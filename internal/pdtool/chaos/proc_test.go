package chaos

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseScheduleMalformed(t *testing.T) {
	cases := []struct {
		spec    string
		wantErr string // substring of the error, "" for accepted
	}{
		{"", ""},
		{"off", ""},
		{"60s/10s", ""},
		{"60s", "wants PERIOD/DOWN"},
		{"x/10s", "outage period"},
		{"60s/y", "outage downtime"},
		{"0s/0s", "positive PERIOD and DOWN"},
		{"0s/10s", "positive PERIOD and DOWN"},
		{"60s/0s", "positive PERIOD and DOWN"},
		{"-60s/10s", "positive PERIOD and DOWN"},
		{"60s/-10s", "positive PERIOD and DOWN"},
		{"10s/10s", "permanent outage"},
		{"10s/20s", "permanent outage"},
	}
	for _, tc := range cases {
		s, err := ParseSchedule(tc.spec)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("ParseSchedule(%q): unexpected error %v", tc.spec, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("ParseSchedule(%q) = %v, want error containing %q", tc.spec, s, tc.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("ParseSchedule(%q) error = %q, want substring %q", tc.spec, err, tc.wantErr)
		}
	}
}

func TestParseKillSchedule(t *testing.T) {
	p, err := ParseKillSchedule("1@8s, 0@30s")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Kills) != 2 || p.Kills[0] != (WorkerKill{Worker: 1, At: 8 * time.Second}) {
		t.Fatalf("kills = %+v", p.Kills)
	}
	if at, ok := p.KillAt(0); !ok || at != 30*time.Second {
		t.Fatalf("KillAt(0) = %v, %v", at, ok)
	}
	if _, ok := p.KillAt(7); ok {
		t.Fatal("KillAt(7) should report no kill")
	}
	if !p.Enabled() {
		t.Fatal("parsed schedule should be enabled")
	}

	if p, err := ParseKillSchedule("off"); err != nil || p.Enabled() {
		t.Fatalf("off = %+v, %v", p, err)
	}
	for _, bad := range []string{"1", "x@8s", "-1@8s", "1@-8s", "1@x"} {
		if _, err := ParseKillSchedule(bad); err == nil {
			t.Errorf("ParseKillSchedule(%q) should fail", bad)
		}
	}
}

func TestProcFaultsEarliestKillWins(t *testing.T) {
	p := ProcFaults{Kills: []WorkerKill{
		{Worker: 2, At: 40 * time.Second},
		{Worker: 2, At: 10 * time.Second},
	}}
	if at, ok := p.KillAt(2); !ok || at != 10*time.Second {
		t.Fatalf("KillAt(2) = %v, %v, want 10s", at, ok)
	}
}

func TestProcFaultsDropHeartbeat(t *testing.T) {
	p := ProcFaults{DropHeartbeats: []Window{{Start: 5 * time.Second, End: 15 * time.Second}}}
	if p.DropHeartbeat(4 * time.Second) {
		t.Fatal("heartbeat at 4s should pass")
	}
	if !p.DropHeartbeat(5 * time.Second) {
		t.Fatal("heartbeat at 5s should drop")
	}
	if p.DropHeartbeat(15 * time.Second) {
		t.Fatal("heartbeat at 15s (window end) should pass")
	}
}

func TestProcFaultsValidate(t *testing.T) {
	bad := []ProcFaults{
		{Kills: []WorkerKill{{Worker: -1, At: time.Second}}},
		{Kills: []WorkerKill{{Worker: 0, At: -time.Second}}},
		{DropHeartbeats: []Window{{Start: 2 * time.Second, End: time.Second}}},
		{ResultDelay: -time.Second},
	}
	for i, p := range bad {
		if err := p.validate(); err == nil {
			t.Errorf("case %d: %+v should fail validation", i, p)
		}
	}
	ok := ProcFaults{
		Kills:            []WorkerKill{{Worker: 1, At: 8 * time.Second}},
		DropHeartbeats:   []Window{{End: time.Second}},
		ResultDelay:      2 * time.Second,
		DuplicateResults: true,
	}
	if err := ok.validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	if s := ok.String(); !strings.Contains(s, "1@8s") || !strings.Contains(s, "dup") {
		t.Errorf("String() = %q", s)
	}
	if s := (ProcFaults{}).String(); s != "off" {
		t.Errorf("zero ProcFaults String() = %q, want off", s)
	}
}

func TestParseKillScheduleCoordinatorTargets(t *testing.T) {
	p, err := ParseKillSchedule("split@40s, coord@75s, 1@8s")
	if err != nil {
		t.Fatal(err)
	}
	if !p.CoordKill || p.CoordKillAt != 75*time.Second {
		t.Fatalf("coord kill = (%v, %v), want 75s", p.CoordKill, p.CoordKillAt)
	}
	if !p.SplitBrain || p.SplitBrainAt != 40*time.Second {
		t.Fatalf("split-brain = (%v, %v), want 40s", p.SplitBrain, p.SplitBrainAt)
	}
	if len(p.Kills) != 1 || p.Kills[0] != (WorkerKill{Worker: 1, At: 8 * time.Second}) {
		t.Fatalf("worker kills = %+v", p.Kills)
	}
	if !p.Enabled() {
		t.Fatal("coordinator schedule should be enabled")
	}
	for _, want := range []string{"coord@1m15s", "split@40s", "1@8s"} {
		if s := p.String(); !strings.Contains(s, want) {
			t.Errorf("String() = %q, want substring %q", s, want)
		}
	}

	// Duplicate targets: the earliest time wins, matching worker kills.
	p, err = ParseKillSchedule("coord@30s,coord@10s,split@20s,split@50s")
	if err != nil {
		t.Fatal(err)
	}
	if p.CoordKillAt != 10*time.Second || p.SplitBrainAt != 20*time.Second {
		t.Fatalf("duplicate targets = coord@%v split@%v, want earliest (10s, 20s)", p.CoordKillAt, p.SplitBrainAt)
	}

	// A coordinator-only schedule counts as enabled even with no worker
	// kills.
	if p, err := ParseKillSchedule("coord@5s"); err != nil || !p.Enabled() {
		t.Fatalf("coord-only schedule = %+v, %v", p, err)
	}
	if p, err := ParseKillSchedule("split@5s"); err != nil || !p.Enabled() {
		t.Fatalf("split-only schedule = %+v, %v", p, err)
	}

	for _, bad := range []string{"coord@-5s", "split@-5s", "coord@x", "boss@5s"} {
		if _, err := ParseKillSchedule(bad); err == nil {
			t.Errorf("ParseKillSchedule(%q) should fail", bad)
		}
	}
}

func TestProcFaultsValidateCoordinatorTimes(t *testing.T) {
	for i, p := range []ProcFaults{
		{CoordKill: true, CoordKillAt: -time.Second},
		{SplitBrain: true, SplitBrainAt: -time.Second},
	} {
		if err := p.validate(); err == nil {
			t.Errorf("case %d: %+v should fail validation", i, p)
		}
	}
	ok := ProcFaults{CoordKill: true, CoordKillAt: 75 * time.Second, SplitBrain: true, SplitBrainAt: 40 * time.Second}
	if err := ok.validate(); err != nil {
		t.Errorf("valid coordinator faults rejected: %v", err)
	}
}

// FuzzParseKillSchedule feeds ParseKillSchedule arbitrary specs, as the
// -kill flags of ppacoord and the proof jobs do. It must never panic.
// The empty and "off" specs, surrounding space aside, are the disabled
// schedule; every other accepted spec enables something, holds only
// worker kills and coordinator targets at non-negative times, and its
// String form parses back to an equal schedule.
func FuzzParseKillSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseKillSchedule(spec)
		if s := strings.TrimSpace(spec); s == "" || s == "off" {
			if err != nil || !reflect.DeepEqual(p, ProcFaults{}) {
				t.Fatalf("ParseKillSchedule(%q) = %+v, %v; want the disabled schedule", spec, p, err)
			}
			return
		}
		if err != nil {
			return
		}
		if !p.Enabled() || len(p.DropHeartbeats) > 0 || p.ResultDelay != 0 || p.DuplicateResults {
			t.Fatalf("ParseKillSchedule(%q) = %+v: want kills or coordinator targets only", spec, p)
		}
		if err := p.validate(); err != nil {
			t.Fatalf("ParseKillSchedule(%q) = %+v, which fails validation: %v", spec, p, err)
		}
		again, err := ParseKillSchedule(p.String())
		if err != nil {
			t.Fatalf("ParseKillSchedule(%q) = %+v, but its String %q fails: %v", spec, p, p.String(), err)
		}
		if !reflect.DeepEqual(again, p) {
			t.Fatalf("ParseKillSchedule(%q) = %+v, but its String %q parses to %+v", spec, p, p.String(), again)
		}
	})
}
