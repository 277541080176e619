// Package robust hardens the evaluation path between the tuner and the
// physical-design tool. The paper's evaluator is a commercial P&R engine
// whose runs routinely fail in practice — licence drops, crashes, hangs,
// garbage QoR — so a production tuning loop must budget for failure instead
// of assuming an infallible oracle (FIST, ICCAD'20, makes the same point for
// design-flow tuning at large).
//
// Evaluator wraps a core.Evaluator (or a context-aware ToolFunc) with:
//
//   - context cancellation and a per-evaluation deadline;
//   - bounded retries with exponential backoff and deterministic jitter;
//   - panic recovery (a crashing tool adapter becomes an error, not a dead
//     tuner process);
//   - QoR validation (length, NaN, Inf) before anything reaches the GP
//     surrogates;
//   - a FailurePolicy deciding whether an exhausted candidate aborts the run
//     or is skipped (the tuner marks it core.Failed and continues);
//   - an optional run-level circuit Breaker: correlated failures (a licence
//     server or farm outage takes down every in-flight run at once) pause
//     evaluations instead of exhausting per-candidate retry budgets;
//   - a shared, concurrency-safe FailureLog for post-run diagnostics.
//
// The checkpoint file in checkpoint.go completes the story: observations are
// persisted as they are made, so a killed run resumes without re-invoking
// the tool for anything it already paid for.
package robust

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"time"

	"ppatuner/internal/clock"
	"ppatuner/internal/core"
)

// ToolFunc is a context-aware tool invocation: evaluate pool candidate i,
// honouring ctx for cancellation and deadlines. Adapters around real tools
// should pass ctx to exec.CommandContext (or equivalent) so a deadline kills
// the tool process; plain in-process evaluators can ignore it and rely on
// the wrapper's goroutine abandonment.
type ToolFunc func(ctx context.Context, i int) ([]float64, error)

// FailurePolicy decides what happens when an evaluation fails after the
// retry budget is spent.
type FailurePolicy int

const (
	// PolicyRetry retries transient failures up to MaxRetries; if the
	// candidate still fails, the run aborts with the last error. The default.
	PolicyRetry FailurePolicy = iota
	// PolicySkip retries like PolicyRetry, but an exhausted candidate is
	// surrendered: the returned error wraps core.ErrSkipCandidate, so the
	// tuner marks it Failed and the PAL loop continues without it.
	PolicySkip
	// PolicyAbort fails fast: no retries, the first error aborts the run.
	PolicyAbort
)

func (p FailurePolicy) String() string {
	switch p {
	case PolicyRetry:
		return "retry"
	case PolicySkip:
		return "skip"
	case PolicyAbort:
		return "abort"
	default:
		return fmt.Sprintf("FailurePolicy(%d)", int(p))
	}
}

// ParsePolicy maps the CLI spelling to a FailurePolicy, case-insensitively
// ("Skip" and "SKIP" mean skip).
func ParsePolicy(s string) (FailurePolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "retry":
		return PolicyRetry, nil
	case "skip":
		return PolicySkip, nil
	case "abort":
		return PolicyAbort, nil
	default:
		return 0, fmt.Errorf("robust: unknown failure policy %q (want retry|skip|abort)", s)
	}
}

// Options configures an Evaluator.
type Options struct {
	// Timeout is the per-evaluation deadline; 0 disables it. When it fires
	// the attempt fails with context.DeadlineExceeded (retryable) and the
	// in-flight tool goroutine is abandoned — see Evaluator.Evaluate.
	Timeout time.Duration
	// MaxRetries bounds re-attempts after the first failure (default 2, so
	// up to 3 attempts per candidate). Ignored under PolicyAbort.
	MaxRetries int
	// Backoff is the delay before the first retry (default 100ms); each
	// further retry doubles it up to MaxBackoff (default 30s).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// JitterFrac randomises each backoff by ±JitterFrac of itself (default
	// 0.5), decorrelating retry storms when several workers fail together.
	// The jitter source is seeded (Seed), keeping runs reproducible.
	JitterFrac float64
	// Policy decides the fate of a candidate that exhausts its retries.
	Policy FailurePolicy
	// NumObjectives, when positive, validates the length of returned QoR
	// vectors; NaN/Inf are always rejected.
	NumObjectives int
	// Seed drives backoff jitter (deterministic; default 1).
	Seed int64
	// Clock supplies retry-backoff timing (default: the wall clock). Tests
	// install a clock.Fake so backoff-heavy paths run in microseconds.
	Clock clock.Clock
	// Sleep replaces the clock's sleep between retries (test hook; default
	// sleeps on Clock).
	Sleep func(time.Duration)
	// Breaker, when non-nil, is the run-level circuit breaker shared by
	// every evaluation. Outage-marked failures (IsOutage) trip it
	// immediately and other transients count toward its threshold; while it
	// is open, evaluations pause instead of consuming per-candidate retry
	// budgets, so a correlated outage stretches wall-clock time but never
	// changes which candidates succeed.
	Breaker *Breaker
	// Log, when non-nil, receives every failure event. A single log may be
	// shared by several evaluators.
	Log *FailureLog
}

func (o *Options) setDefaults() {
	if o.MaxRetries <= 0 {
		o.MaxRetries = 2
	}
	if o.Backoff <= 0 {
		o.Backoff = 100 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 30 * time.Second
	}
	if o.JitterFrac <= 0 {
		o.JitterFrac = 0.5
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Clock == nil {
		o.Clock = clock.Real()
	}
	if o.Sleep == nil {
		clk := o.Clock
		o.Sleep = func(d time.Duration) { _ = clk.Sleep(context.Background(), d) }
	}
}

// PanicError reports a tool adapter panic converted into an ordinary error.
type PanicError struct {
	Index int
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("robust: evaluation %d panicked: %v", e.Index, e.Value)
}

// ValidationError reports a malformed QoR vector.
type ValidationError struct {
	Index  int
	Reason string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("robust: evaluation %d returned invalid QoR: %s", e.Index, e.Reason)
}

// ValidateVector rejects QoR vectors that would poison the surrogates:
// wrong length (when want > 0), NaN, or Inf entries.
func ValidateVector(y []float64, want int) error {
	if want > 0 && len(y) != want {
		return fmt.Errorf("%d objectives, want %d", len(y), want)
	}
	for k, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("objective %d is %v", k, v)
		}
	}
	return nil
}

// Evaluator is the fault-tolerant wrapper. Construct with New (context-aware
// tool) or Wrap (plain core.Evaluator); pass its Evaluate method to the
// tuner.
type Evaluator struct {
	tool ToolFunc
	opt  Options
	ctx  context.Context

	mu  sync.Mutex
	rng *rand.Rand
}

// New builds a fault-tolerant evaluator around a context-aware tool
// function. ctx is the run-scope context: cancelling it stops evaluations
// (including ones blocked in a hung tool, via abandonment) with ctx.Err().
func New(ctx context.Context, tool ToolFunc, opt Options) (*Evaluator, error) {
	if tool == nil {
		return nil, errors.New("robust: nil tool")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	opt.setDefaults()
	return &Evaluator{
		tool: tool,
		opt:  opt,
		ctx:  ctx,
		rng:  rand.New(rand.NewSource(opt.Seed)),
	}, nil
}

// Wrap lifts a plain evaluator into a fault-tolerant one. The inner
// evaluator cannot observe cancellation, so a deadline abandons (rather
// than stops) a hung call.
func Wrap(ctx context.Context, eval core.Evaluator, opt Options) (*Evaluator, error) {
	if eval == nil {
		return nil, errors.New("robust: nil evaluator")
	}
	return New(ctx, func(_ context.Context, i int) ([]float64, error) { return eval(i) }, opt)
}

// Log returns the failure log (nil if none was configured).
func (e *Evaluator) Log() *FailureLog { return e.opt.Log }

// Evaluate runs one fault-tolerant evaluation of candidate i. It satisfies
// core.Evaluator, so wire it straight into core.New:
//
//	tn, _ := core.New(pool, re.Evaluate, opt)
func (e *Evaluator) Evaluate(i int) ([]float64, error) {
	attempts := 1 + e.opt.MaxRetries
	if e.opt.Policy == PolicyAbort {
		attempts = 1
	}
	var lastErr error
	for a := 0; a < attempts; {
		if err := e.ctx.Err(); err != nil {
			return nil, fmt.Errorf("robust: evaluation %d: %w", i, err)
		}
		if b := e.opt.Breaker; b != nil {
			// The breaker gates every attempt: while open, this pauses
			// without touching the candidate's retry budget — an outage is
			// not the candidate's fault.
			if err := b.Acquire(e.ctx); err != nil {
				return nil, fmt.Errorf("robust: evaluation %d: %w", i, err)
			}
		}
		if a > 0 {
			e.opt.Sleep(e.backoff(a))
		}
		y, err := e.attempt(i)
		if err == nil {
			// The tool answered: the infrastructure is up, whatever the
			// vector says.
			if b := e.opt.Breaker; b != nil {
				b.OnSuccess()
			}
			if verr := ValidateVector(y, e.opt.NumObjectives); verr != nil {
				err = &ValidationError{Index: i, Reason: verr.Error()}
			} else {
				return y, nil
			}
		} else if b := e.opt.Breaker; b != nil {
			b.OnFailure(err)
		}
		lastErr = err
		// Run-scope cancellation is not a tool failure: stop immediately and
		// do not count it against the candidate. (A per-attempt deadline only
		// cancels the child context, so e.ctx.Err() stays nil for those.)
		if e.ctx.Err() != nil {
			return nil, err
		}
		if e.opt.Breaker != nil && IsOutage(err) {
			// Correlated outage with a breaker in charge: log it, but do not
			// charge the candidate — the next Acquire pauses until recovery
			// (bounded by the breaker's MaxOutage deadline).
			e.opt.Log.add(Event{Index: i, Attempt: a, Kind: KindOutage, Err: err.Error()})
			continue
		}
		e.opt.Log.add(Event{Index: i, Attempt: a, Kind: classify(err), Err: err.Error(), Terminal: a == attempts-1})
		a++
	}
	switch e.opt.Policy {
	case PolicySkip:
		return nil, fmt.Errorf("robust: evaluation %d failed after %d attempts: %w: %w",
			i, attempts, core.ErrSkipCandidate, lastErr)
	default:
		return nil, fmt.Errorf("robust: evaluation %d failed after %d attempts: %w", i, attempts, lastErr)
	}
}

// attempt performs a single guarded tool invocation: panic recovery, and a
// deadline enforced by racing the tool goroutine against the context. A tool
// that outlives its deadline is abandoned — its goroutine keeps running and
// its eventual result is discarded through the buffered channel. That is the
// strongest guarantee available without tool cooperation; context-aware
// tools (ToolFunc implementations that honour ctx) terminate for real.
func (e *Evaluator) attempt(i int) ([]float64, error) {
	ctx := e.ctx
	cancel := func() {}
	if e.opt.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, e.opt.Timeout)
	}
	defer cancel()
	type outcome struct {
		y   []float64
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{nil, &PanicError{Index: i, Value: r}}
			}
		}()
		y, err := e.tool(ctx, i)
		ch <- outcome{y, err}
	}()
	select {
	case out := <-ch:
		return out.y, out.err
	case <-ctx.Done():
		return nil, fmt.Errorf("robust: evaluation %d: %w", i, ctx.Err())
	}
}

// backoff returns the exponential, jittered delay before retry attempt a
// (a >= 1).
func (e *Evaluator) backoff(a int) time.Duration {
	d := e.opt.Backoff << uint(a-1)
	if d > e.opt.MaxBackoff || d <= 0 {
		d = e.opt.MaxBackoff
	}
	e.mu.Lock()
	j := 1 + e.opt.JitterFrac*(2*e.rng.Float64()-1)
	e.mu.Unlock()
	jd := time.Duration(float64(d) * j)
	if jd < 0 {
		jd = 0
	}
	return jd
}
