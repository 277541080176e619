package chaos

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"ppatuner/internal/clock"
)

func TestScheduleDisabledForms(t *testing.T) {
	for _, s := range []Schedule{{}, {Period: time.Minute}, {Down: time.Second}} {
		if s.Enabled() && s.Period > 0 && s.Down > 0 {
			continue
		}
		if s.InWindow(0) || s.Remaining(0) != 0 {
			t.Errorf("disabled schedule %+v claims downtime", s)
		}
	}
	if (Schedule{}).Enabled() {
		t.Error("zero schedule enabled")
	}
	if (Schedule{}).String() != "off" {
		t.Errorf("zero schedule renders %q", Schedule{}.String())
	}
}

func TestScheduleValidation(t *testing.T) {
	bad := []Schedule{
		{Period: time.Second, Down: time.Second},             // Down == Period
		{Period: time.Second, Down: 2 * time.Second},         // Down > Period
		{Period: -time.Second, Down: time.Second},            // negative
		{Period: time.Minute, Down: time.Second, Jitter: 1},  // Jitter out of [0,1)
		{Period: time.Minute, Down: time.Second, Jitter: -1}, // negative jitter
		{Windows: []Window{{Start: 5, End: 5}}},              // empty window
		{Windows: []Window{{Start: -1, End: 5}}},             // negative start
	}
	for _, s := range bad {
		if err := s.validate(); err == nil {
			t.Errorf("schedule %+v accepted", s)
		}
	}
	ok := []Schedule{
		{},
		{Period: time.Minute, Down: time.Second},
		{Period: time.Minute, Down: time.Second, Jitter: 0.9},
		{Windows: []Window{{Start: 0, End: time.Second}}},
	}
	for _, s := range ok {
		if err := s.validate(); err != nil {
			t.Errorf("schedule %+v rejected: %v", s, err)
		}
	}
}

// Every periodic window stays inside its stripe, lasts exactly Down, and is
// a pure function of (Seed, k) — jitter cannot create overlaps or drift.
func TestPeriodicWindowsStayInsideStripes(t *testing.T) {
	s := Schedule{Period: time.Minute, Down: 10 * time.Second, Jitter: 0.95, Seed: 42}
	for k := 0; k < 500; k++ {
		w := s.periodicWindow(k)
		lo := time.Duration(k) * s.Period
		hi := lo + s.Period
		if w.Start < lo || w.End > hi {
			t.Fatalf("window %d [%v,%v) escapes stripe [%v,%v)", k, w.Start, w.End, lo, hi)
		}
		if w.End-w.Start != s.Down {
			t.Fatalf("window %d lasts %v, want %v", k, w.End-w.Start, s.Down)
		}
		if again := s.periodicWindow(k); again != w {
			t.Fatalf("window %d not deterministic: %+v vs %+v", k, w, again)
		}
	}
	// Jitter = 0 pins every window to its stripe start.
	strict := Schedule{Period: time.Minute, Down: 10 * time.Second, Seed: 42}
	for k := 0; k < 10; k++ {
		if w := strict.periodicWindow(k); w.Start != time.Duration(k)*time.Minute {
			t.Fatalf("jitter-0 window %d starts at %v", k, w.Start)
		}
	}
	// Different seeds place jittered windows differently somewhere.
	other := s
	other.Seed = 43
	moved := false
	for k := 0; k < 20 && !moved; k++ {
		moved = s.periodicWindow(k) != other.periodicWindow(k)
	}
	if !moved {
		t.Error("seed does not perturb jittered window placement")
	}
}

func TestScheduleMembershipAndRemaining(t *testing.T) {
	s := Schedule{Period: time.Minute, Down: 10 * time.Second}
	cases := []struct {
		t   time.Duration
		in  bool
		rem time.Duration
	}{
		{0, true, 10 * time.Second},
		{9 * time.Second, true, time.Second},
		{10 * time.Second, false, 0}, // [Start, End): End excluded
		{30 * time.Second, false, 0},
		{time.Minute, true, 10 * time.Second},
		{-time.Second, false, 0},
	}
	for _, c := range cases {
		if got := s.InWindow(c.t); got != c.in {
			t.Errorf("InWindow(%v) = %v, want %v", c.t, got, c.in)
		}
		if got := s.Remaining(c.t); got != c.rem {
			t.Errorf("Remaining(%v) = %v, want %v", c.t, got, c.rem)
		}
	}
	explicit := Schedule{Windows: []Window{{Start: 5 * time.Second, End: 8 * time.Second}}}
	if explicit.InWindow(4 * time.Second) {
		t.Error("explicit window fires early")
	}
	if !explicit.InWindow(5 * time.Second) {
		t.Error("explicit window start excluded")
	}
	if explicit.Remaining(6*time.Second) != 2*time.Second {
		t.Errorf("explicit Remaining = %v", explicit.Remaining(6*time.Second))
	}
}

func TestParseSchedule(t *testing.T) {
	s, err := ParseSchedule("60s/10s")
	if err != nil {
		t.Fatal(err)
	}
	if s.Period != time.Minute || s.Down != 10*time.Second {
		t.Errorf("parsed %+v", s)
	}
	if s.String() != "1m0s/10s" {
		t.Errorf("String() = %q", s.String())
	}
	for _, spec := range []string{"", "off", " off "} {
		s, err := ParseSchedule(spec)
		if err != nil || s.Enabled() {
			t.Errorf("ParseSchedule(%q) = %+v, %v; want disabled", spec, s, err)
		}
	}
	for _, spec := range []string{"60s", "x/y", "10s/60s", "60s/"} {
		if _, err := ParseSchedule(spec); err == nil {
			t.Errorf("ParseSchedule(%q) accepted", spec)
		}
	}
}

// Attempts inside a window fail with ErrOutage (and the Outage() marker);
// outside they pass. The fake clock drives the whole timeline.
// FuzzParseSchedule feeds ParseSchedule arbitrary specs, as the -outage
// flags and every served job's outage field do. It must never panic. An
// accepted spec is the disabled zero Schedule or a periodic one with
// 0 < Down < Period and nothing else set, and its String form parses back
// to the same schedule.
func FuzzParseSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSchedule(spec)
		if err != nil {
			return
		}
		want := Schedule{Period: s.Period, Down: s.Down}
		if !s.Enabled() {
			want = Schedule{}
		} else if s.Down <= 0 || s.Down >= s.Period {
			t.Fatalf("ParseSchedule(%q) = %v: want 0 < Down < Period", spec, s)
		}
		if !reflect.DeepEqual(s, want) {
			t.Fatalf("ParseSchedule(%q) = %+v, want %+v", spec, s, want)
		}
		again, err := ParseSchedule(s.String())
		if err != nil {
			t.Fatalf("ParseSchedule(%q) = %v, but its String %q fails: %v", spec, s, s.String(), err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("ParseSchedule(%q) = %+v, but its String %q parses to %+v", spec, s, s.String(), again)
		}
	})
}

func TestInjectorOutageWindows(t *testing.T) {
	fc := clock.NewFake(time.Unix(1000, 0))
	in, err := New(Options{
		Seed:   1,
		Outage: Schedule{Period: time.Minute, Down: 10 * time.Second},
		Clock:  fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	eval := in.Wrap(okEval)

	// t = 0: inside the first window.
	_, err = eval(0)
	if !errors.Is(err, ErrOutage) {
		t.Fatalf("inside window: err = %v, want ErrOutage", err)
	}
	var marked interface{ Outage() bool }
	if !errors.As(err, &marked) || !marked.Outage() {
		t.Error("outage error lacks the Outage() marker")
	}
	if in.OutageRemaining() != 10*time.Second {
		t.Errorf("OutageRemaining = %v, want 10s", in.OutageRemaining())
	}

	// Advance past the window: evaluations flow again.
	fc.Advance(15 * time.Second)
	if y, err := eval(0); err != nil || y[0] != 0 {
		t.Fatalf("after window: y=%v err=%v", y, err)
	}
	if in.OutageRemaining() != 0 {
		t.Errorf("OutageRemaining while up = %v", in.OutageRemaining())
	}

	// Next stripe's window fires too.
	fc.Advance(50 * time.Second) // t = 65s, inside [60s, 70s)
	if _, err := eval(3); !errors.Is(err, ErrOutage) {
		t.Fatalf("second stripe: err = %v, want ErrOutage", err)
	}

	c := in.Counts()
	if c.Outage != 2 || c.Clean != 1 {
		t.Errorf("counts = %+v, want 2 outages + 1 clean", c)
	}
	if c.Total() != 2 {
		t.Errorf("Total() = %d, want 2 (outages count as faults)", c.Total())
	}
}

// Outage failures must not consume (candidate, attempt) draws: the i.i.d.
// fault sequence after the window matches a run that never had the window.
func TestOutageDoesNotShiftIIDSchedule(t *testing.T) {
	run := func(outage Schedule) []bool {
		fc := clock.NewFake(time.Unix(0, 0))
		in, err := New(Options{Seed: 9, Rates: Rates{Transient: 0.5}, Outage: outage, Clock: fc})
		if err != nil {
			t.Fatal(err)
		}
		eval := in.Wrap(okEval)
		if outage.Enabled() {
			// Burn attempts inside the window, then lift it.
			for k := 0; k < 25; k++ {
				if _, err := eval(k); !errors.Is(err, ErrOutage) {
					t.Fatalf("warm-up attempt %d: %v", k, err)
				}
			}
			fc.Advance(time.Hour)
		}
		out := make([]bool, 100)
		for i := range out {
			_, err := eval(i)
			out[i] = err == nil
		}
		return out
	}
	clean := run(Schedule{})
	after := run(Schedule{Windows: []Window{{Start: 0, End: time.Minute}}})
	for i := range clean {
		if clean[i] != after[i] {
			t.Fatalf("candidate %d: outage shifted the i.i.d. fault schedule", i)
		}
	}
}

// An injected hang on a fake clock costs no real time — the satellite fix
// for Wrap stranding 30s sleeps in the non-context path.
func TestHangOnFakeClockIsInstant(t *testing.T) {
	fc := clock.NewFake(time.Unix(0, 0))
	in, err := New(Options{Seed: 17, Rates: Rates{Hang: 1}, Clock: fc}) // default HangFor = 30s
	if err != nil {
		t.Fatal(err)
	}
	eval := in.Wrap(okEval)
	start := time.Now()
	_, err = eval(0)
	if err == nil || !errors.Is(err, ErrTransient) {
		t.Fatalf("hang returned %v, want transient error", err)
	}
	if real := time.Since(start); real > time.Second {
		t.Fatalf("fake-clock hang took %v of real time", real)
	}
	if fc.Sleeps() != 1 {
		t.Errorf("hang slept %d times on the clock, want 1", fc.Sleeps())
	}
}

// Corrupt-QoR injection is deterministic under concurrent WrapTool callers:
// the same candidates get the same poisoned positions regardless of
// scheduling, and clean vectors are never mutated.
func TestCorruptDeterministicUnderConcurrentWrapTool(t *testing.T) {
	poisoned := func() map[int]int {
		in, err := New(Options{Seed: 23, Rates: Rates{Corrupt: 0.5}})
		if err != nil {
			t.Fatal(err)
		}
		tool := in.WrapTool(func(_ context.Context, i int) ([]float64, error) {
			return []float64{float64(i), 1, 2}, nil
		})
		const n = 200
		out := make([]int, n) // NaN position, or -1 for clean
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				y, err := tool(context.Background(), i)
				if err != nil {
					t.Errorf("tool(%d): %v", i, err)
					return
				}
				out[i] = -1
				for p, v := range y {
					if math.IsNaN(v) {
						out[i] = p
					}
				}
			}(i)
		}
		wg.Wait()
		m := map[int]int{}
		for i, p := range out {
			m[i] = p
		}
		return m
	}
	a, b := poisoned(), poisoned()
	saw := false
	for i, p := range a {
		if b[i] != p {
			t.Fatalf("candidate %d: poison position %d vs %d across runs", i, p, b[i])
		}
		if p >= 0 {
			saw = true
		}
	}
	if !saw {
		t.Error("no corruption injected at rate 0.5")
	}
}
