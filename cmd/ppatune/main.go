// Command ppatune runs one tuner (PPATuner or a baseline) on one benchmark
// scenario and objective space, printing the hyper-volume error, ADRS and
// tool-run count — one cell of the paper's Table 2 / Table 3: the run draws
// from the cell's own random stream, so for a seed it prints that seed's
// cell of the table (tables -seeds N,).
//
// Usage:
//
//	ppatune [-scenario 1|2] [-space area-delay|power-delay|area-power-delay]
//	        [-method PPATuner|TCAD'19|MLCAD'19|DAC'19|ASPDAC'20] [-seed N]
//	        [-timeout D] [-retries N] [-policy retry|skip|abort]
//	        [-checkpoint FILE] [-chaos RATE] [-outage PERIOD/DOWN]
//	        [-breaker N] [-max-outage D] [-workers N] [-log]
//
// The fault-tolerance flags harden the evaluation path: -timeout bounds each
// tool evaluation, -retries bounds re-attempts with exponential backoff,
// -policy picks what an exhausted candidate does to the run, -checkpoint
// persists every observation to FILE so a killed run resumes without
// re-running the tool, and -chaos injects transient faults at the given rate
// (plus occasional hangs/crashes/corrupt QoR at a tenth of it) to rehearse
// all of the above.
//
// The outage flags are declared once, in eval.FaultConfig, for every
// command that takes them: -outage PERIOD/DOWN injects a DOWN-long licence
// outage inside every PERIOD stripe of the evaluation path, -breaker N arms
// a circuit breaker that trips after N consecutive transient failures (an
// outage-marked one trips it at once), and -max-outage D (default 5m)
// bounds one outage episode. Here the windows come on top of the i.i.d.
// -chaos faults, and the breaker pauses evaluations instead of parking
// them, so an outage stretches wall-clock time but never changes results.
// Unlike a campaign, a single run takes -outage without -breaker, with a
// note: its -policy decides what a candidate that exhausts its retries in
// a window does.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"slices"
	"strings"
	"time"

	"ppatuner"
	"ppatuner/internal/eval"
	"ppatuner/internal/pdtool/chaos"
	"ppatuner/internal/robust"
)

func main() {
	scenario := flag.Int("scenario", 2, "scenario: 1 (Source1->Target1) or 2 (Source2->Target2)")
	spaceName := flag.String("space", "power-delay", "objective space: area-delay | power-delay | area-power-delay")
	method := flag.String("method", "PPATuner", "tuner: PPATuner | TCAD'19 | MLCAD'19 | DAC'19 | ASPDAC'20")
	seed := flag.Int64("seed", 1, "random seed")
	timeout := flag.Duration("timeout", 0, "per-evaluation deadline (0 disables)")
	retries := flag.Int("retries", 2, "retry budget per evaluation")
	policyName := flag.String("policy", "skip", "failure policy after retries: retry | skip | abort")
	ckptPath := flag.String("checkpoint", "", "JSON checkpoint file: observations are persisted there and resumed from it")
	chaosRate := flag.Float64("chaos", 0, "injected transient-fault rate in [0,1) (hangs/panics/corrupt QoR injected at rate/10 each)")
	var faults eval.FaultConfig
	faults.RegisterFlags(flag.CommandLine)
	workers := flag.Int("workers", 0, "tuner concurrency: surrogate fits, pool sweeps and batched tool calls (0 = engine default; results are identical for any value)")
	logJSON := flag.Bool("log", false, "stream evaluation-failure events as structured JSON logs on stderr")
	flag.Parse()

	// Validate every flag before the scenario build: generating the offline
	// datasets takes ~10s (scenario 2) to ~30s (scenario 1) on two cores,
	// and a typo should not cost that.
	if *scenario != 1 && *scenario != 2 {
		fmt.Fprintln(os.Stderr, "ppatune: -scenario must be 1 or 2")
		os.Exit(2)
	}
	var space ppatuner.ObjSpace
	found := false
	for _, sp := range ppatuner.ObjSpaces() {
		if strings.EqualFold(strings.ReplaceAll(sp.Name, "-", ""), strings.ReplaceAll(*spaceName, "-", "")) {
			space = sp
			found = true
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "ppatune: unknown objective space %q\n", *spaceName)
		os.Exit(2)
	}
	m := eval.Method(*method)
	if !slices.Contains(eval.Methods(), m) {
		fmt.Fprintf(os.Stderr, "ppatune: unknown method %q\n", *method)
		os.Exit(2)
	}
	policy, err := ppatuner.ParseFailurePolicy(*policyName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppatune: %v\n", err)
		os.Exit(2)
	}
	// A single run takes -outage without -breaker: its -policy decides what
	// a candidate that exhausts its retries in a window does.
	sched, err := faults.Schedule()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppatune: %v\n", err)
		os.Exit(2)
	}
	if sched.Enabled() && faults.Breaker == 0 {
		fmt.Fprintln(os.Stderr, "ppatune: note: -outage without -breaker burns retry budgets during downtime; pass -breaker to pause instead")
	}
	var inj *chaos.Injector
	if *chaosRate > 0 || sched.Enabled() {
		rates := chaos.Rates{}
		if *chaosRate > 0 {
			rates = chaos.Rates{
				Transient: *chaosRate,
				Hang:      *chaosRate / 10,
				Panic:     *chaosRate / 10,
				Corrupt:   *chaosRate / 10,
			}
		}
		inj, err = chaos.New(chaos.Options{
			Seed:    *seed,
			Rates:   rates,
			Outage:  sched,
			HangFor: 2 * *timeout,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppatune: %v\n", err)
			os.Exit(2)
		}
	}

	// Without -checkpoint the run's cell lives in memory.
	ckpt, err := ppatuner.LoadCampaignCheckpoint(*ckptPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppatune: %v\n", err)
		os.Exit(1)
	}
	if n := len(ckpt.PartialObservations(robust.RunKey)); n > 0 {
		fmt.Printf("checkpoint: resuming with %d cached observations from %s\n", n, *ckptPath)
	}

	var s *ppatuner.Scenario
	switch *scenario {
	case 1:
		s, err = ppatuner.ScenarioOne()
	case 2:
		s, err = ppatuner.ScenarioTwo()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppatune: %v\n", err)
		os.Exit(1)
	}

	// Fault-tolerance middleware around the pool evaluator, innermost first:
	// chaos injection (optional rehearsal) -> the cell's replay cache ->
	// resilient retry/deadline/validation layer.
	flog := &robust.FailureLog{}
	if *logJSON {
		flog.Stream(slog.New(slog.NewJSONHandler(os.Stderr, nil)))
	}
	// A single run's breaker pauses instead of parking: there is no
	// campaign scheduler to requeue the run.
	var brk *robust.Breaker
	if faults.Breaker > 0 {
		brk = robust.NewBreaker(robust.BreakerOptions{
			Threshold: faults.Breaker,
			MaxOutage: faults.MaxOutage,
			Log:       flog,
		})
	}
	var inner func(ppatuner.Evaluator) ppatuner.Evaluator
	if inj != nil {
		inner = func(ev ppatuner.Evaluator) ppatuner.Evaluator { return inj.Wrap(ev) }
	}
	wrap := func(ev ppatuner.Evaluator) ppatuner.Evaluator {
		re, _ := robust.Wrap(context.Background(), ev, robust.Options{ // fails only on a nil evaluator
			Timeout:    *timeout,
			MaxRetries: *retries,
			Policy:     policy,
			Seed:       *seed,
			Breaker:    brk,
			Log:        flog,
		})
		return re.Evaluate
	}

	fmt.Printf("%s | %s | %s (seed %d)\n", s.Name, space.Name, m, *seed)
	start := time.Now()
	spec := eval.UnitSpec{Scenario: s.Name, Space: space.Name, Method: m, Seed: *seed}
	out, res, _, err := eval.RunCell(s, space, spec, ckpt, robust.RunKey, inner, eval.RunOpts{Wrap: wrap, Workers: *workers})
	if err == nil {
		// Fold the run's observation journal into the checkpoint file.
		err = ckpt.Retire()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppatune: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("hyper-volume error: %.4f\n", res.HV)
	fmt.Printf("ADRS:               %.4f\n", res.ADRS)
	fmt.Printf("tool runs:          %d\n", res.Runs)
	fmt.Printf("wall time:          %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("failures:           %s\n", flog.Summary())
	if brk != nil {
		fmt.Printf("breaker:            %d trip(s), final state %s\n", brk.Trips(), brk.State())
	}
	if inj != nil && inj.Counts().Outage > 0 {
		fmt.Printf("outages injected:   %d (schedule %s)\n", inj.Counts().Outage, sched)
	}
	if *ckptPath != "" {
		replayed, fresh := ckpt.Stats()
		fmt.Printf("checkpoint:         %d replayed, %d fresh (now %d cached in %s)\n", replayed, fresh, len(ckpt.PartialObservations(robust.RunKey)), *ckptPath)
	}
	fmt.Printf("predicted Pareto-optimal configurations: %d\n", len(out.ParetoIdx))
	for _, i := range out.ParetoIdx {
		p := s.Target.Points[i]
		fmt.Printf("  power=%.3f mW delay=%.4f ns area=%.1f um2  %s\n",
			p.QoR.PowerMW, p.QoR.DelayNS, p.QoR.AreaUm2, p.Config)
	}
}
