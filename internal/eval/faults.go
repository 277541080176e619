package eval

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"time"

	"ppatuner/internal/clock"
	"ppatuner/internal/core"
	"ppatuner/internal/pdtool/chaos"
	"ppatuner/internal/robust"
)

// FaultConfig declares the licence-outage rehearsal of a run: injected
// downtime windows, the circuit breaker that pauses evaluations through
// them, and the bound on one outage episode. The tables, ppaworker and
// ppatune commands register its flags, and ppaserved fills it from a job's
// outage and breaker fields, so every surface validates it one way.
type FaultConfig struct {
	// Outage is the downtime schedule in chaos.ParseSchedule's
	// "PERIOD/DOWN" spelling; "" and "off" disable it.
	Outage string
	// Breaker trips the circuit breaker after this many consecutive
	// transient failures (an outage-marked failure trips it at once);
	// 0 disables it.
	Breaker int
	// MaxOutage bounds one outage episode: past it the run fails. It must
	// be positive; RegisterFlags defaults it to DefaultMaxOutage.
	MaxOutage time.Duration
}

// DefaultMaxOutage is -max-outage's default and the bound every ppaserved
// job runs under.
const DefaultMaxOutage = 5 * time.Minute

// RegisterFlags registers -outage, -breaker and -max-outage on fs.
func (c *FaultConfig) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Outage, "outage", "", "inject correlated downtime windows: PERIOD/DOWN (e.g. 60s/10s); empty or \"off\" disables")
	fs.IntVar(&c.Breaker, "breaker", 0, "circuit breaker: trip after N consecutive transient failures, or at once on an outage-marked one, and hold evaluations until the tool is back (0 disables)")
	fs.DurationVar(&c.MaxOutage, "max-outage", DefaultMaxOutage, "abort when one outage episode keeps the breaker open longer than this")
}

// Schedule checks the fields every surface shares — a well-formed outage
// schedule, a breaker threshold of at least 0 and a positive max-outage —
// and returns the parsed schedule.
func (c FaultConfig) Schedule() (chaos.Schedule, error) {
	sched, err := chaos.ParseSchedule(c.Outage)
	switch {
	case err != nil:
		return chaos.Schedule{}, fmt.Errorf("outage: %v", err)
	case c.Breaker < 0:
		return chaos.Schedule{}, errors.New("breaker must be >= 0")
	case c.MaxOutage <= 0:
		return chaos.Schedule{}, errors.New("max-outage must be > 0")
	}
	return sched, nil
}

// Validate checks c for a campaign: Schedule's checks, and an outage needs
// a breaker. Without one, every unit in a window burns its retry budget
// and a skipped candidate changes the table.
func (c FaultConfig) Validate() error {
	_, err := c.campaignSchedule()
	return err
}

func (c FaultConfig) campaignSchedule() (chaos.Schedule, error) {
	sched, err := c.Schedule()
	if err == nil && sched.Enabled() && c.Breaker == 0 {
		err = errors.New("outage requires a breaker: downtime without one burns retry budgets instead of pausing evaluations")
	}
	return sched, err
}

// FaultStack is a campaign's built fault stack. The zero value is the
// fault-free stack.
type FaultStack struct {
	// Wrap is the evaluator middleware for RunOpts.Wrap: the outage
	// injector beneath a PolicySkip resilient evaluator. Nil when the
	// configuration sets nothing.
	Wrap func(core.Evaluator) core.Evaluator
	// Breaker is the breaker every wrapped evaluator shares: an evaluation
	// that meets it open pauses until the tool is back, on the Build
	// context, for at most MaxOutage. Nil when the configuration sets
	// nothing.
	Breaker *robust.Breaker

	sched chaos.Schedule
	inj   *chaos.Injector
	log   *robust.FailureLog
}

// Build validates c as Validate does and builds its campaign stack. ctx
// cancels in-flight evaluations and breaker pauses, seed keys the retry
// jitter, and clk times the outage windows, backoff and breaker dwells
// (nil: the wall clock). The windows' timeline starts here.
func (c FaultConfig) Build(ctx context.Context, seed int64, clk clock.Clock) (FaultStack, error) {
	sched, err := c.campaignSchedule()
	if err != nil || c.Breaker == 0 {
		return FaultStack{}, err
	}
	st := FaultStack{sched: sched, log: &robust.FailureLog{}}
	if sched.Enabled() {
		if st.inj, err = chaos.New(chaos.Options{Seed: seed, Outage: sched, Clock: clk}); err != nil {
			return FaultStack{}, err
		}
	}
	st.Breaker = robust.NewBreaker(robust.BreakerOptions{
		Threshold: c.Breaker, MaxOutage: c.MaxOutage,
		Log: st.log, Clock: clk,
	})
	inj, opt := st.inj, robust.Options{
		Policy: robust.PolicySkip, Seed: seed,
		Breaker: st.Breaker, Log: st.log, Clock: clk,
	}
	st.Wrap = func(ev core.Evaluator) core.Evaluator {
		if inj != nil {
			ev = inj.Wrap(ev)
		}
		re, _ := robust.Wrap(ctx, ev, opt) // fails only on a nil evaluator
		return re.Evaluate
	}
	return st, nil
}

// Summary reports what a stack with a breaker did: its schedule, the
// outage failures injected, the breaker's trips and the failure log.
func (s FaultStack) Summary() string {
	outages := 0
	if s.inj != nil {
		outages = s.inj.Counts().Outage
	}
	return fmt.Sprintf("schedule %s, %d outage failures injected, %d breaker trip(s), failures: %s",
		s.sched, outages, s.Breaker.Trips(), s.log.Summary())
}
