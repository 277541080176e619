package eval

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"ppatuner/internal/clock"
	"ppatuner/internal/core"
	"ppatuner/internal/pdtool"
	"ppatuner/internal/pdtool/chaos"
	"ppatuner/internal/robust"
)

// outageStack wires the campaign-wide middleware for an outage scenario:
// chaos injection (with a downtime schedule on the fake clock) under the
// resilience layer, every unit sharing one circuit breaker.
func outageStack(inj *chaos.Injector, b *robust.Breaker, fc clock.Clock, flog *robust.FailureLog) func(core.Evaluator) core.Evaluator {
	return func(eval core.Evaluator) core.Evaluator {
		re, err := robust.Wrap(nil, inj.Wrap(eval), robust.Options{
			MaxRetries: 3,
			Backoff:    time.Millisecond,
			Policy:     robust.PolicySkip,
			Clock:      fc,
			Sleep:      func(time.Duration) {},
			Breaker:    b,
			Log:        flog,
		})
		if err != nil {
			panic(err) // option error; campaign workers run off the test goroutine
		}
		return re.Evaluate
	}
}

// A campaign driven through a licence-server downtime window must trip the
// breaker, pause the affected evaluations until the tool is back, and still
// produce a table and a final checkpoint file byte-identical to the
// chaos-free run: an outage stretches (virtual) wall-clock time, never
// results.
func TestCampaignOutagePauseBitIdentical(t *testing.T) {
	s := miniScenario(t)
	seeds := []int64{1}
	spaces := Spaces()[1:2] // Power-Delay
	methods := []Method{MLCAD19, PPATuner}

	// Fault-free checkpointed reference.
	refPath := filepath.Join(t.TempDir(), "ref.json")
	refCk, err := robust.LoadCampaignCheckpoint(refPath)
	if err != nil {
		t.Fatal(err)
	}
	var refCalls atomic.Int64
	ref := &Campaign{
		Scenario: s, Seeds: seeds, Spaces: spaces, Methods: methods,
		Checkpoint: refCk,
		WrapUnit: func(u Unit, ev core.Evaluator) core.Evaluator {
			return func(i int) ([]float64, error) { refCalls.Add(1); return ev(i) }
		},
	}
	refTbl, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := refTbl.Format()
	wantBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	// Outage run: the licence server is down for the first 30 virtual
	// seconds — every unit's opening evaluations fail together.
	fc := clock.NewFake(time.Unix(0, 0))
	inj, err := chaos.New(chaos.Options{
		Outage: chaos.Schedule{Windows: []chaos.Window{{Start: 0, End: 30 * time.Second}}},
		Clock:  fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	flog := &robust.FailureLog{}
	b := robust.NewBreaker(robust.BreakerOptions{
		Threshold:  3,
		RetryAfter: time.Second,
		MaxOutage:  10 * time.Minute,
		Clock:      fc,
		Log:        flog,
	})
	path := filepath.Join(t.TempDir(), "outage.json")
	ck, err := robust.LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	c := &Campaign{
		Scenario: s, Seeds: seeds, Spaces: spaces, Methods: methods,
		Workers:    2,
		Checkpoint: ck,
		Opts:       RunOpts{Wrap: outageStack(inj, b, fc, flog)},
		WrapUnit: func(u Unit, ev core.Evaluator) core.Evaluator {
			return func(i int) ([]float64, error) { calls.Add(1); return ev(i) }
		},
	}
	start := time.Now()
	tbl, err := c.Run()
	if err != nil {
		t.Fatalf("outage campaign failed: %v", err)
	}
	if real := time.Since(start); real > 30*time.Second {
		t.Errorf("outage campaign took %v of real time; the fake clock should absorb the downtime", real)
	}

	if got := tbl.Format(); got != want {
		t.Fatalf("outage table differs from fault-free run:\n%s\n----\n%s", got, want)
	}
	gotBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Errorf("final checkpoint bytes differ from the fault-free run:\n%s\n----\n%s", gotBytes, wantBytes)
	}
	if calls.Load() != refCalls.Load() {
		t.Errorf("outage run made %d fresh tool calls, fault-free made %d — the outage must not buy or lose observations",
			calls.Load(), refCalls.Load())
	}
	if inj.Counts().Outage == 0 {
		t.Error("no outage faults injected — the window never fired")
	}
	if b.Trips() == 0 {
		t.Error("breaker never tripped")
	}
	if b.State() != robust.BreakerClosed {
		t.Errorf("breaker left %v, want closed", b.State())
	}
	if flog.Outages() == 0 || flog.BreakerTransitions() == 0 {
		t.Errorf("failure log missing outage machinery: %s", flog.Summary())
	}
	t.Logf("outage run: %d injected outages, %d trips, log: %s", inj.Counts().Outage, b.Trips(), flog.Summary())
}

// A campaign killed mid-outage (the outage outlives MaxOutage, so the
// process aborts with partial state on disk — the moral equivalent of a
// SIGKILL inside the window) must resume after the outage lifts into
// exactly the fault-free table and checkpoint bytes.
func TestCampaignKilledDuringOutageResumesIdentical(t *testing.T) {
	s := miniScenario(t)
	seeds := []int64{2}
	spaces := Spaces()[0:1] // Area-Delay
	methods := []Method{PPATuner}

	// Fault-free checkpointed reference.
	refPath := filepath.Join(t.TempDir(), "ref.json")
	refCk, err := robust.LoadCampaignCheckpoint(refPath)
	if err != nil {
		t.Fatal(err)
	}
	refCalls := 0
	ref := &Campaign{
		Scenario: s, Seeds: seeds, Spaces: spaces, Methods: methods,
		Checkpoint: refCk,
		WrapUnit: func(u Unit, ev core.Evaluator) core.Evaluator {
			return func(i int) ([]float64, error) { refCalls++; return ev(i) }
		},
	}
	refTbl, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := refTbl.Format()
	wantBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	// Run 1: an hour-long outage against a 30-second MaxOutage. The
	// unit's first evaluation pauses, gives up at the deadline and fails
	// the campaign with the unit's start persisted.
	fc := clock.NewFake(time.Unix(0, 0))
	inj, err := chaos.New(chaos.Options{
		Outage: chaos.Schedule{Windows: []chaos.Window{{Start: 0, End: time.Hour}}},
		Clock:  fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := robust.NewBreaker(robust.BreakerOptions{
		Threshold:  1,
		RetryAfter: time.Second,
		MaxOutage:  30 * time.Second,
		Clock:      fc,
	})
	path := filepath.Join(t.TempDir(), "campaign.json")
	ck, err := robust.LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	killedCalls := 0
	killed := &Campaign{
		Scenario: s, Seeds: seeds, Spaces: spaces, Methods: methods,
		Checkpoint: ck,
		Opts:       RunOpts{Wrap: outageStack(inj, b, fc, nil)},
		WrapUnit: func(u Unit, ev core.Evaluator) core.Evaluator {
			return func(i int) ([]float64, error) { killedCalls++; return ev(i) }
		},
	}
	if _, err := killed.Run(); !errors.Is(err, robust.ErrOutageDeadline) {
		t.Fatalf("killed campaign returned %v, want ErrOutageDeadline", err)
	}
	if killedCalls != 0 {
		t.Fatalf("the tool saw %d calls through an hour-long outage, want 0", killedCalls)
	}

	// The file on disk holds the interrupted unit's start.
	re, err := robust.LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if state, _ := re.PartialRandState(killed.UnitKey(killed.Units()[0])); state == nil {
		t.Fatal("the interrupted unit left no recorded start")
	}

	// Resume in a "fresh process" after the licence server came back: no
	// chaos, no breaker. The interrupted unit re-runs like any incomplete
	// unit and the campaign finishes identically to fault-free.
	freshCalls := 0
	resumed := &Campaign{
		Scenario: s, Seeds: seeds, Spaces: spaces, Methods: methods,
		Checkpoint: re,
		WrapUnit: func(u Unit, ev core.Evaluator) core.Evaluator {
			return func(i int) ([]float64, error) { freshCalls++; return ev(i) }
		},
	}
	tbl, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Format(); got != want {
		t.Fatalf("resumed table differs from fault-free run:\n%s\n----\n%s", got, want)
	}
	if freshCalls != refCalls {
		t.Errorf("resume made %d fresh calls, fault-free made %d", freshCalls, refCalls)
	}
	gotBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Errorf("final checkpoint bytes differ from the fault-free run")
	}
}

// TestTarget2OutageCampaignBitIdentical is the acceptance run on the
// paper's Target2 benchmark: a PPATuner campaign with a downtime window
// injected mid-flight — breaker trips, the cell's evaluations pause until
// the window ends — must reproduce the chaos-disabled observations, table
// cells and checkpoint byte-for-byte.
func TestTarget2OutageCampaignBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("Target2 generation is slow; skipped under -short")
	}
	ds := target2(t)
	s := &Scenario{
		Name: "Target2", Source: ds, Target: ds,
		SourceN: 60, InitFrac: 0.02,
		Budgets: map[Method]int{PPATuner: 40},
	}
	seeds := []int64{1}
	spaces := []ObjSpace{{Name: "Power-Delay", Metrics: []pdtool.Metric{pdtool.Power, pdtool.Delay}}}
	methods := []Method{PPATuner}

	refPath := filepath.Join(t.TempDir(), "ref.json")
	refCk, err := robust.LoadCampaignCheckpoint(refPath)
	if err != nil {
		t.Fatal(err)
	}
	ref := &Campaign{Scenario: s, Seeds: seeds, Spaces: spaces, Methods: methods, Checkpoint: refCk}
	refTbl, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := refTbl.Format()
	wantBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	fc := clock.NewFake(time.Unix(0, 0))
	inj, err := chaos.New(chaos.Options{
		Outage: chaos.Schedule{Windows: []chaos.Window{{Start: 0, End: time.Minute}}},
		Clock:  fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	flog := &robust.FailureLog{}
	b := robust.NewBreaker(robust.BreakerOptions{
		Threshold:  1,
		RetryAfter: 2 * time.Second,
		MaxOutage:  10 * time.Minute,
		Clock:      fc,
		Log:        flog,
	})
	path := filepath.Join(t.TempDir(), "outage.json")
	ck, err := robust.LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	c := &Campaign{
		Scenario: s, Seeds: seeds, Spaces: spaces, Methods: methods,
		Checkpoint: ck,
		Opts:       RunOpts{Wrap: outageStack(inj, b, fc, flog)},
	}
	tbl, err := c.Run()
	if err != nil {
		t.Fatalf("Target2 outage campaign failed: %v", err)
	}
	if got := tbl.Format(); got != want {
		t.Fatalf("Target2 outage table differs from chaos-disabled:\n%s\n----\n%s", got, want)
	}
	gotBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Error("Target2 final checkpoint bytes differ from the chaos-disabled run")
	}
	if b.Trips() == 0 || inj.Counts().Outage == 0 {
		t.Errorf("outage machinery idle: %d trips, counts %+v", b.Trips(), inj.Counts())
	}
	t.Logf("Target2 outage acceptance: %d injected outages, %d trips, log: %s",
		inj.Counts().Outage, b.Trips(), flog.Summary())
}
