package robust

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ppatuner/internal/clock"
)

// fakeOutage mimics a tool adapter's outage-marked error without importing
// the chaos package.
type fakeOutage struct{}

func (fakeOutage) Error() string { return "licence server down" }
func (fakeOutage) Outage() bool  { return true }

func TestIsOutage(t *testing.T) {
	if !IsOutage(fakeOutage{}) {
		t.Error("bare outage error not recognised")
	}
	if !IsOutage(fmt.Errorf("attempt 3: %w", fakeOutage{})) {
		t.Error("wrapped outage error not recognised")
	}
	if IsOutage(errors.New("plain failure")) {
		t.Error("plain error misclassified as outage")
	}
	if IsOutage(nil) {
		t.Error("nil misclassified as outage")
	}
}

func TestParsePolicyCaseInsensitive(t *testing.T) {
	for spelling, want := range map[string]FailurePolicy{
		"retry": PolicyRetry, "Retry": PolicyRetry, "RETRY": PolicyRetry,
		"Skip": PolicySkip, " SKIP ": PolicySkip,
		"Abort": PolicyAbort,
	} {
		got, err := ParsePolicy(spelling)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", spelling, got, err, want)
		}
	}
	if _, err := ParsePolicy("sikp"); err == nil {
		t.Error("typo accepted")
	}
}

// The full happy-path cycle: closed -> open (threshold) -> half-open
// (dwell) -> closed (probe success), with every transition in the log.
func TestBreakerClosedOpenHalfOpenClosed(t *testing.T) {
	fc := clock.NewFake(time.Unix(0, 0))
	log := &FailureLog{}
	b := NewBreaker(BreakerOptions{Threshold: 3, RetryAfter: time.Second, MaxOutage: time.Minute, Clock: fc, Log: log})

	boom := errors.New("transient")
	for k := 0; k < 2; k++ {
		b.OnFailure(boom)
		if b.State() != BreakerClosed {
			t.Fatalf("tripped after %d failures, threshold is 3", k+1)
		}
	}
	b.OnFailure(boom)
	if b.State() != BreakerOpen {
		t.Fatal("threshold reached but breaker still closed")
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", b.Trips())
	}

	// Acquire pauses through the dwell (the fake clock jumps), then admits
	// this caller as the half-open probe.
	if err := b.Acquire(context.Background()); err != nil {
		t.Fatalf("Acquire after dwell: %v", err)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after admitted probe = %v, want half-open", b.State())
	}
	if fc.Sleeps() == 0 {
		t.Error("Acquire never slept on the clock while open")
	}
	b.OnSuccess()
	if b.State() != BreakerClosed {
		t.Fatalf("state after probe success = %v, want closed", b.State())
	}

	sum := log.Summary()
	if log.BreakerTransitions() != 3 { // open, half-open, closed
		t.Errorf("%d transitions logged, want 3 (%s)", log.BreakerTransitions(), sum)
	}
	if !strings.Contains(sum, "breaker transitions") {
		t.Errorf("summary %q does not tally breaker transitions", sum)
	}
}

// A failed probe re-opens the breaker and the dwell grows; the episode
// deadline keeps running across re-opens.
func TestBreakerProbeFailureReopens(t *testing.T) {
	fc := clock.NewFake(time.Unix(0, 0))
	b := NewBreaker(BreakerOptions{Threshold: 1, RetryAfter: time.Second, MaxOutage: time.Hour, Clock: fc})

	b.OnFailure(fakeOutage{}) // outage-marked: trips immediately
	if b.State() != BreakerOpen {
		t.Fatal("outage failure did not trip the breaker")
	}
	if err := b.Acquire(context.Background()); err != nil {
		t.Fatalf("probe admission: %v", err)
	}
	b.OnFailure(fakeOutage{})
	if b.State() != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	if b.Trips() != 1 {
		t.Errorf("a re-open counted as a fresh trip (trips=%d)", b.Trips())
	}
	// Second probe after a longer dwell succeeds and closes.
	if err := b.Acquire(context.Background()); err != nil {
		t.Fatalf("second probe admission: %v", err)
	}
	b.OnSuccess()
	if b.State() != BreakerClosed {
		t.Fatalf("state after probe success = %v, want closed", b.State())
	}
}

// An episode that outlives MaxOutage aborts with ErrOutageDeadline rather
// than pausing forever.
func TestBreakerMaxOutageAborts(t *testing.T) {
	fc := clock.NewFake(time.Unix(0, 0))
	b := NewBreaker(BreakerOptions{Threshold: 1, RetryAfter: time.Second, MaxOutage: 10 * time.Second, Clock: fc})
	b.OnFailure(fakeOutage{})
	deadline := 0
	for k := 0; k < 100; k++ {
		err := b.Acquire(context.Background())
		if errors.Is(err, ErrOutageDeadline) {
			deadline = k
			break
		}
		if err != nil {
			t.Fatalf("Acquire: %v", err)
		}
		b.OnFailure(fakeOutage{}) // every probe fails: the outage never lifts
	}
	if deadline == 0 {
		t.Fatal("Acquire never hit ErrOutageDeadline against a permanent outage")
	}
	if also := b.AwaitRecovery(context.Background()); !errors.Is(also, ErrOutageDeadline) {
		t.Fatalf("AwaitRecovery = %v, want ErrOutageDeadline", also)
	}
}

// Park mode refuses instead of pausing: the scheduler keeps its worker.
func TestBreakerParkModeRefusesImmediately(t *testing.T) {
	fc := clock.NewFake(time.Unix(0, 0))
	b := NewBreaker(BreakerOptions{Threshold: 1, RetryAfter: time.Minute, MaxOutage: time.Hour, Park: true, Clock: fc})
	b.OnFailure(fakeOutage{})
	if err := b.Acquire(context.Background()); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Acquire while open (park mode) = %v, want ErrBreakerOpen", err)
	}
	if fc.Sleeps() != 0 {
		t.Error("park mode slept instead of refusing")
	}
	// After recovery (no Probe configured), AwaitRecovery leaves the
	// half-open slot to the next evaluation.
	if err := b.AwaitRecovery(context.Background()); err != nil {
		t.Fatalf("AwaitRecovery: %v", err)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after AwaitRecovery = %v, want half-open", b.State())
	}
	if err := b.Acquire(context.Background()); err != nil {
		t.Fatalf("probe admission after recovery: %v", err)
	}
	b.OnSuccess()
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed", b.State())
	}
}

// AwaitRecovery with a health probe drives the whole cycle itself.
func TestBreakerAwaitRecoveryWithHealthProbe(t *testing.T) {
	fc := clock.NewFake(time.Unix(0, 0))
	probes := 0
	b := NewBreaker(BreakerOptions{
		Threshold:  1,
		RetryAfter: time.Second,
		MaxOutage:  time.Hour,
		Clock:      fc,
		Probe: func(context.Context) error {
			probes++
			if probes < 3 {
				return fakeOutage{} // still down for the first two pings
			}
			return nil
		},
	})
	b.OnFailure(fakeOutage{})
	if err := b.AwaitRecovery(context.Background()); err != nil {
		t.Fatalf("AwaitRecovery: %v", err)
	}
	if probes != 3 {
		t.Errorf("health probe ran %d times, want 3", probes)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed", b.State())
	}
}

// The evaluator integration: outage failures pause on the breaker and never
// consume the candidate's retry budget, so a long outage cannot turn into a
// spurious Failed mark under PolicySkip.
func TestEvaluatorOutageDoesNotConsumeRetryBudget(t *testing.T) {
	fc := clock.NewFake(time.Unix(0, 0))
	log := &FailureLog{}
	b := NewBreaker(BreakerOptions{Threshold: 1, RetryAfter: time.Second, MaxOutage: time.Hour, Clock: fc, Log: log})
	calls := 0
	// The tool is down for the first 7 calls — more than 1+MaxRetries —
	// then recovers.
	tool := func(_ context.Context, i int) ([]float64, error) {
		calls++
		if calls <= 7 {
			return nil, fmt.Errorf("call %d: %w", calls, error(fakeOutage{}))
		}
		return []float64{1, 2}, nil
	}
	e, err := New(context.Background(), tool, Options{
		MaxRetries:    2,
		Policy:        PolicySkip,
		NumObjectives: 2,
		Clock:         fc,
		Sleep:         func(time.Duration) {},
		Breaker:       b,
		Log:           log,
	})
	if err != nil {
		t.Fatal(err)
	}
	y, err := e.Evaluate(0)
	if err != nil {
		t.Fatalf("evaluation failed through the outage: %v", err)
	}
	if y[0] != 1 || y[1] != 2 {
		t.Fatalf("y = %v", y)
	}
	if calls != 8 {
		t.Errorf("tool saw %d calls, want 8 (7 outage + 1 success)", calls)
	}
	if got := log.Outages(); got != 7 {
		t.Errorf("log tallied %d outages, want 7", got)
	}
	if log.Terminal() != 0 {
		t.Errorf("outage produced %d terminal events; the budget must be untouched", log.Terminal())
	}
	if b.State() != BreakerClosed {
		t.Fatalf("breaker = %v after recovery, want closed", b.State())
	}
}

// Without a breaker, outage errors degrade gracefully to ordinary transient
// failures (legacy behaviour): the budget applies.
func TestEvaluatorOutageWithoutBreakerConsumesBudget(t *testing.T) {
	calls := 0
	tool := func(_ context.Context, i int) ([]float64, error) {
		calls++
		return nil, fakeOutage{}
	}
	e, err := New(context.Background(), tool, Options{
		MaxRetries: 2,
		Policy:     PolicySkip,
		Sleep:      func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Evaluate(4); err == nil {
		t.Fatal("permanent outage with no breaker must exhaust the budget")
	}
	if calls != 3 {
		t.Errorf("tool saw %d calls, want 3 (1 + MaxRetries)", calls)
	}
}

// Park mode propagates ErrBreakerOpen out of Evaluate without wrapping
// ErrSkipCandidate, so schedulers can tell "parked" from "failed".
func TestEvaluatorParkPropagatesBreakerOpen(t *testing.T) {
	fc := clock.NewFake(time.Unix(0, 0))
	b := NewBreaker(BreakerOptions{Threshold: 1, RetryAfter: time.Minute, MaxOutage: time.Hour, Park: true, Clock: fc})
	e, err := New(context.Background(), func(_ context.Context, i int) ([]float64, error) {
		return nil, fakeOutage{}
	}, Options{MaxRetries: 5, Clock: fc, Sleep: func(time.Duration) {}, Breaker: b})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Evaluate(1)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen in the chain", err)
	}
}

func TestBreakerStateStrings(t *testing.T) {
	for s, want := range map[BreakerState]string{
		BreakerClosed: "closed", BreakerOpen: "open", BreakerHalfOpen: "half-open",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestBreakerDwellResetsAfterFullRecovery(t *testing.T) {
	// Regression guard: a recovery (OnSuccess while half-open) must reset the
	// doubling dwell, so a *later* trip starts probing after the base
	// RetryAfter again — not after whatever multiple the previous episode's
	// failed probes had doubled it to.
	fc := clock.NewFake(time.Unix(0, 0))
	b := NewBreaker(BreakerOptions{
		Threshold:  1,
		RetryAfter: time.Second,
		MaxOutage:  time.Hour,
		Clock:      fc,
	})

	// Episode one: trip, then fail three probes so the dwell doubles to 8s.
	b.OnFailure(fmt.Errorf("wrapped: %w", fakeOutage{}))
	for i := 0; i < 3; i++ {
		fc.Advance(10 * time.Second) // past any dwell
		if err := b.Acquire(context.Background()); err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
		b.OnFailure(fakeOutage{})
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state after failed probes = %v, want open", b.State())
	}

	// Full recovery: the next probe succeeds and the breaker closes.
	fc.Advance(10 * time.Second)
	if err := b.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	b.OnSuccess()
	if b.State() != BreakerClosed {
		t.Fatalf("state after recovery = %v, want closed", b.State())
	}

	// Episode two: trip again. Base dwell (1s) must be enough to admit the
	// probe — without the reset, dwellLocked would still report 8s and
	// AwaitRecovery would have to sleep.
	b.OnFailure(fakeOutage{})
	fc.Advance(time.Second)
	sleepsBefore := fc.Sleeps()
	if err := b.AwaitRecovery(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := fc.Sleeps(); got != sleepsBefore {
		t.Fatalf("AwaitRecovery slept %d times after base dwell; dwell was not reset by recovery", got-sleepsBefore)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after base dwell = %v, want half-open", b.State())
	}
}

// TestBreakerProbesEscapePeriodicOutage runs a licence server that is down
// for the first 500 ms of every second against RetryAfter 1 s. Open dwells
// of whole seconds would land every probe at the phase of the trip, inside
// the down half, until MaxOutage aborts the run. The breaker must instead
// keep closing: each trip is followed by a probe in an up half, well
// before the deadline.
func TestBreakerProbesEscapePeriodicOutage(t *testing.T) {
	origin := time.Unix(0, 0)
	fc := clock.NewFake(origin)
	b := NewBreaker(BreakerOptions{Threshold: 1, RetryAfter: time.Second, MaxOutage: 120 * time.Second, Clock: fc})
	down := func() bool { return fc.Now().Sub(origin)%time.Second < 500*time.Millisecond }
	const evalTime = 5 * time.Millisecond
	fc.Advance(100 * time.Millisecond)
	b.OnFailure(fakeOutage{}) // tripped at 100 ms, inside the first outage
	probes, recoveries := 0, 0
	for recoveries < 5 {
		probing := b.State() != BreakerClosed
		if err := b.Acquire(context.Background()); err != nil {
			t.Fatalf("after %d probes and %d recoveries, at %v: %v", probes, recoveries, fc.Now().Sub(origin), err)
		}
		if probing {
			probes++
		}
		failed := down()
		fc.Advance(evalTime)
		if failed {
			b.OnFailure(fakeOutage{})
			continue
		}
		if probing {
			recoveries++
		}
		b.OnSuccess()
	}
	if elapsed := fc.Now().Sub(origin); elapsed > 2*time.Minute {
		t.Fatalf("5 recoveries took %v", elapsed)
	}
	t.Logf("5 recoveries after %d probes, %v of virtual time", probes, fc.Now().Sub(origin))
}
