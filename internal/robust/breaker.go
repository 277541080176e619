package robust

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"ppatuner/internal/clock"
)

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed passes evaluations through and counts consecutive
	// failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen refuses evaluations: callers pause (or park, see
	// BreakerOptions.Park) instead of burning per-candidate retry budgets
	// against infrastructure that is down for everyone.
	BreakerOpen
	// BreakerHalfOpen admits exactly one probe evaluation; its outcome
	// decides between closing and re-opening.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// ErrBreakerOpen reports that the breaker refused an evaluation while open
// (Park mode). It is a scheduling signal, not a tool failure: campaign
// schedulers detect it with errors.Is, park the unit, and requeue it after
// recovery. It never wraps core.ErrSkipCandidate, so a parked unit is never
// mistaken for a failed candidate.
var ErrBreakerOpen = errors.New("robust: circuit breaker open")

// ErrOutageDeadline reports that one outage episode outlived
// BreakerOptions.MaxOutage — the bound that keeps "pause and wait" from
// meaning "hang forever".
var ErrOutageDeadline = errors.New("robust: outage exceeded the max-outage deadline")

// IsOutage reports whether err is marked as a correlated infrastructure
// outage — an error in whose chain some error implements Outage() bool
// returning true (chaos.ErrOutage does; real licence-server adapters can
// mark their own errors the same way without importing anything).
func IsOutage(err error) bool {
	var o interface{ Outage() bool }
	return errors.As(err, &o) && o.Outage()
}

// BreakerOptions configures a Breaker.
type BreakerOptions struct {
	// Threshold is how many consecutive transient failures (across all
	// candidates) trip the breaker (default 5). Outage-marked failures
	// (IsOutage) trip it immediately: the tool said "down", there is
	// nothing to vote on.
	Threshold int
	// RetryAfter is the open dwell before a half-open probe is admitted
	// (default 1s). It doubles per consecutive failed probe up to
	// 8×RetryAfter, then holds, and each dwell after a failed probe is
	// offset by less than RetryAfter/2 (see dwellLocked).
	RetryAfter time.Duration
	// MaxOutage bounds one outage episode, measured from the trip that
	// opened the breaker until it closes again (default 5m). Past it,
	// Acquire and AwaitRecovery fail with ErrOutageDeadline.
	MaxOutage time.Duration
	// Park, when true, makes Acquire return ErrBreakerOpen immediately
	// while the breaker refuses evaluations, instead of pausing the caller.
	// Campaign schedulers use it to park work units and keep their workers.
	Park bool
	// Probe, when non-nil, is a cheap health check (licence ping) that
	// AwaitRecovery uses to drive open→half-open→closed without spending a
	// real evaluation. Without it, the next admitted evaluation is the
	// probe.
	Probe func(ctx context.Context) error
	// Clock supplies dwell timing; defaults to the wall clock. Tests
	// install a clock.Fake so outage episodes resolve in microseconds.
	Clock clock.Clock
	// Log, when non-nil, receives every state transition as a structured
	// KindBreaker event.
	Log *FailureLog
}

func (o *BreakerOptions) setDefaults() {
	if o.Threshold <= 0 {
		o.Threshold = 5
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.MaxOutage <= 0 {
		o.MaxOutage = 5 * time.Minute
	}
	if o.Clock == nil {
		o.Clock = clock.Real()
	}
}

// Breaker is a circuit breaker shared by every evaluation of a run: it
// converts per-call failures into a run-level "the infrastructure is down"
// signal, so a correlated outage pauses (or parks) evaluations instead of
// exhausting every candidate's retry budget and poisoning the run with
// spurious Failed marks. State transitions are recorded in the FailureLog;
// results are never touched — an outage stretches wall-clock time, never
// numbers.
type Breaker struct {
	opt BreakerOptions

	mu           sync.Mutex
	state        BreakerState
	consec       int       // consecutive transient failures while closed
	failedProbes int       // consecutive failed probes this episode
	episodeStart time.Time // first trip of the current outage episode
	openedAt     time.Time // latest (re)open
	probing      bool      // the half-open slot is taken
	trips        int       // closed→open transitions, cumulative
}

// NewBreaker builds a circuit breaker.
func NewBreaker(opt BreakerOptions) *Breaker {
	opt.setDefaults()
	return &Breaker{opt: opt}
}

// State returns the current position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Trips reports how many times the breaker has opened from closed.
func (b *Breaker) Trips() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// transitionLocked moves the state machine and records the event; callers
// hold b.mu.
func (b *Breaker) transitionLocked(to BreakerState, reason string) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	b.opt.Log.add(Event{
		Index:   -1,
		Attempt: -1,
		Kind:    KindBreaker,
		Err:     fmt.Sprintf("breaker %s -> %s: %s", from, to, reason),
	})
}

// tripLocked opens the breaker from closed; callers hold b.mu.
func (b *Breaker) tripLocked(now time.Time, reason string) {
	b.trips++
	b.openedAt = now
	b.episodeStart = now
	b.failedProbes = 0
	b.transitionLocked(BreakerOpen, reason)
}

// dwellLocked is the open dwell before the next probe: RetryAfter doubled
// per failed probe, capped at 8×, and after the episode's k-th failed probe
// offset by frac(k·φ)·RetryAfter/2, φ = (√5−1)/2. Dwells of whole multiples
// of RetryAfter would land every probe at the phase of the trip in an
// outage that recurs with a period dividing RetryAfter, so a licence
// server down for the first half of every second kept every probe in a
// down half until MaxOutage. The golden-ratio offsets move each probe's
// phase on by a different amount, deterministically. The episode's first
// dwell stays RetryAfter. Callers hold b.mu.
func (b *Breaker) dwellLocked() time.Duration {
	d := b.opt.RetryAfter
	for i := 0; i < b.failedProbes && d < 8*b.opt.RetryAfter; i++ {
		d *= 2
	}
	if d > 8*b.opt.RetryAfter {
		d = 8 * b.opt.RetryAfter
	}
	if b.failedProbes > 0 {
		_, frac := math.Modf(float64(b.failedProbes) * invGolden)
		d += time.Duration(frac * float64(b.opt.RetryAfter/2))
	}
	return d
}

// invGolden is φ = (√5−1)/2, whose multiples modulo 1 spread evenly.
const invGolden = 0.6180339887498949

// Acquire gates one evaluation attempt. Closed: passes immediately.
// Open: pauses the caller (on the breaker's clock) until a half-open probe
// slot is available, the episode exceeds MaxOutage (ErrOutageDeadline), or
// ctx is done — unless Park is set, in which case it returns ErrBreakerOpen
// at once. A nil return can mean "this attempt is the probe": report the
// attempt's outcome with OnSuccess/OnFailure either way.
func (b *Breaker) Acquire(ctx context.Context) error {
	for {
		b.mu.Lock()
		now := b.opt.Clock.Now()
		switch b.state {
		case BreakerClosed:
			b.mu.Unlock()
			return nil
		case BreakerHalfOpen:
			if !b.probing {
				b.probing = true
				b.mu.Unlock()
				return nil
			}
		case BreakerOpen:
			if now.Sub(b.episodeStart) >= b.opt.MaxOutage {
				b.mu.Unlock()
				return fmt.Errorf("%w (down for %v)", ErrOutageDeadline, b.opt.MaxOutage)
			}
			if now.Sub(b.openedAt) >= b.dwellLocked() {
				b.transitionLocked(BreakerHalfOpen, "retry dwell elapsed; admitting one probe")
				b.probing = true
				b.mu.Unlock()
				return nil
			}
		}
		// Waiting: either open inside the dwell, or half-open with the
		// probe slot taken. Sleep the shorter of "time to next decision"
		// and "time to the episode deadline", bounded below so a coarse
		// clock cannot spin.
		wait := b.opt.RetryAfter / 4
		if b.state == BreakerOpen {
			wait = b.dwellLocked() - now.Sub(b.openedAt)
		}
		if remain := b.opt.MaxOutage - now.Sub(b.episodeStart); wait > remain {
			wait = remain
		}
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		park := b.opt.Park
		b.mu.Unlock()
		if park {
			return ErrBreakerOpen
		}
		if err := b.opt.Clock.Sleep(ctx, wait); err != nil {
			return err
		}
	}
}

// OnSuccess reports a successful tool invocation. A success while half-open
// (or open — a straggler admitted before the trip) proves the
// infrastructure is back and closes the breaker.
func (b *Breaker) OnSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consec = 0
	if b.state != BreakerClosed {
		b.probing = false
		b.failedProbes = 0
		b.episodeStart = time.Time{}
		b.transitionLocked(BreakerClosed, "evaluation succeeded; infrastructure recovered")
	}
}

// OnFailure reports a failed tool invocation. While closed, outage-marked
// errors trip immediately and other transients count toward Threshold.
// While half-open, the probe's failure re-opens the breaker (the episode —
// and its MaxOutage deadline — keeps running).
func (b *Breaker) OnFailure(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.opt.Clock.Now()
	switch b.state {
	case BreakerHalfOpen:
		b.probing = false
		b.failedProbes++
		b.openedAt = now
		b.transitionLocked(BreakerOpen, fmt.Sprintf("probe failed (%d this episode): %v", b.failedProbes, err))
	case BreakerClosed:
		if IsOutage(err) {
			b.tripLocked(now, fmt.Sprintf("outage-marked failure: %v", err))
			return
		}
		b.consec++
		if b.consec >= b.opt.Threshold {
			b.tripLocked(now, fmt.Sprintf("%d consecutive transient failures (threshold %d): %v", b.consec, b.opt.Threshold, err))
		}
	case BreakerOpen:
		// A straggler that was in flight before the trip; nothing new.
	}
}

// AwaitRecovery blocks until the breaker closes, pacing itself on the
// breaker's clock. With a Probe configured it drives the state machine
// itself (dwell → probe → close or re-open and dwell longer); without one
// it returns as soon as a half-open slot is available, leaving the next
// evaluation to be the probe. It fails with ErrOutageDeadline when the
// episode outlives MaxOutage, and with ctx.Err() on cancellation. Campaign
// schedulers call it between parking a unit and requeueing it.
func (b *Breaker) AwaitRecovery(ctx context.Context) error {
	for {
		b.mu.Lock()
		now := b.opt.Clock.Now()
		state := b.state
		if state == BreakerClosed {
			b.mu.Unlock()
			return nil
		}
		if now.Sub(b.episodeStart) >= b.opt.MaxOutage {
			b.mu.Unlock()
			return fmt.Errorf("%w (down for %v)", ErrOutageDeadline, b.opt.MaxOutage)
		}
		probeReady := state == BreakerOpen && now.Sub(b.openedAt) >= b.dwellLocked()
		if state == BreakerHalfOpen && !b.probing {
			// A slot is already free for the next evaluation.
			b.mu.Unlock()
			return nil
		}
		if probeReady {
			if b.opt.Probe == nil {
				b.transitionLocked(BreakerHalfOpen, "retry dwell elapsed; next evaluation probes")
				b.mu.Unlock()
				return nil
			}
			b.transitionLocked(BreakerHalfOpen, "retry dwell elapsed; health probe running")
			b.probing = true
			b.mu.Unlock()
			err := b.opt.Probe(ctx)
			if err == nil {
				b.OnSuccess()
				return nil
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			b.OnFailure(err)
			continue
		}
		wait := b.opt.RetryAfter / 4
		if state == BreakerOpen {
			wait = b.dwellLocked() - now.Sub(b.openedAt)
		}
		if remain := b.opt.MaxOutage - now.Sub(b.episodeStart); wait > remain {
			wait = remain
		}
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		b.mu.Unlock()
		if err := b.opt.Clock.Sleep(ctx, wait); err != nil {
			return err
		}
	}
}
