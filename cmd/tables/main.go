// Command tables regenerates the paper's Table 2 (Scenario One: the whole
// performance comparison on Target1) and Table 3 (Scenario Two: Target2),
// running all five tuners over the three objective spaces and averaging over
// seeds. Each (space × method × seed) cell is an independent work unit:
// -workers runs units concurrently (bit-identical output for any value) and
// -checkpoint persists completed cells plus mid-run tuner state so a killed
// regeneration resumes with -resume instead of restarting.
//
// Usage:
//
//	tables [-table 2|3|both] [-seeds N|s1,s2,...] [-workers N]
//	       [-checkpoint FILE [-resume]] [-json FILE]
//	       [-outage PERIOD/DOWN] [-breaker N] [-max-outage D]
//
// -seeds takes either a count N (averages over seeds 1..N) or an explicit
// comma-separated seed list such as 1,2,5 (a trailing comma forces list
// form: "7," runs just seed 7). -json writes the machine-readable
// TABLES.json document alongside the text tables.
//
// The outage flags rehearse campaign resilience: -outage injects correlated
// downtime windows (a DOWN-long outage inside every PERIOD stripe) into the
// evaluation path, and -breaker arms a shared circuit breaker in park mode —
// cells that hit the open breaker are parked (persisted in -checkpoint) and
// requeued after recovery, bounded by -max-outage, so the regenerated
// tables are bit-identical to an outage-free run.
//
// To distribute the units over worker processes instead, use the ppacoord
// command: its output is byte-identical to this one's.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ppatuner"
	"ppatuner/internal/eval"
)

func main() {
	table := flag.String("table", "both", "which table to regenerate: 2 | 3 | both")
	seedSpec := flag.String("seeds", "3", "seed count N (averages seeds 1..N) or explicit comma-separated seed list")
	workers := flag.Int("workers", 1, "table cells to run concurrently (bit-identical output for any value)")
	ckptPath := flag.String("checkpoint", "", "campaign checkpoint file: completed cells and mid-run tuner state persist there")
	resume := flag.Bool("resume", false, "continue from an existing -checkpoint file (without it, a pre-existing file is an error)")
	jsonPath := flag.String("json", "", "write the machine-readable TABLES.json document to this path")
	outageSpec := flag.String("outage", "", "inject correlated downtime windows: PERIOD/DOWN (e.g. 60s/10s), empty or \"off\" disables")
	breakerN := flag.Int("breaker", 0, "circuit breaker: trip after N consecutive transient failures and park affected cells (0 disables; outage-marked failures trip immediately)")
	maxOutage := flag.Duration("max-outage", 5*time.Minute, "abort when one outage episode keeps the breaker open longer than this")
	flag.Parse()

	seeds, err := eval.ParseSeeds(*seedSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tables: %v\n", err)
		os.Exit(2)
	}
	sched, err := ppatuner.ParseOutageSchedule(*outageSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tables: %v\n", err)
		os.Exit(2)
	}
	if sched.Enabled() && *breakerN <= 0 {
		fmt.Fprintln(os.Stderr, "tables: note: -outage without -breaker burns retry budgets during downtime; pass -breaker to park and requeue cells instead")
	}

	// Outage middleware: chaos injection (correlated windows on the shared
	// virtual timeline) under the resilience layer, which shares one
	// park-mode breaker with the campaign scheduler.
	flog := &ppatuner.FailureLog{}
	var inj *ppatuner.ChaosInjector
	if sched.Enabled() {
		inj, err = ppatuner.NewChaos(ppatuner.ChaosOptions{Seed: seeds[0], Outage: sched})
		if err != nil {
			fmt.Fprintf(os.Stderr, "tables: %v\n", err)
			os.Exit(2)
		}
	}
	var brk *ppatuner.CircuitBreaker
	if *breakerN > 0 {
		brk = ppatuner.NewCircuitBreaker(ppatuner.CircuitBreakerOptions{
			Threshold: *breakerN,
			MaxOutage: *maxOutage,
			Park:      true,
			Log:       flog,
		})
	}
	var wrap func(ppatuner.Evaluator) ppatuner.Evaluator
	if inj != nil || brk != nil {
		wrap = func(ev ppatuner.Evaluator) ppatuner.Evaluator {
			if inj != nil {
				ev = inj.Wrap(ev)
			}
			re, err := ppatuner.WrapEvaluator(nil, ev, ppatuner.ResilientOptions{
				Policy:  ppatuner.PolicySkip,
				Seed:    seeds[0],
				Breaker: brk,
				Log:     flog,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "tables: %v\n", err)
				os.Exit(2)
			}
			return re.Evaluate
		}
	}

	var ck *ppatuner.CampaignCheckpoint
	resumedCells := 0
	if *ckptPath != "" {
		if !*resume {
			if fi, err := os.Stat(*ckptPath); err == nil && fi.Size() > 0 {
				fmt.Fprintf(os.Stderr, "tables: checkpoint %s already exists; pass -resume to continue it or remove the file\n", *ckptPath)
				os.Exit(2)
			}
		}
		ck, err = ppatuner.LoadCampaignCheckpoint(*ckptPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tables: %v\n", err)
			os.Exit(1)
		}
		resumedCells = ck.Cells()
	}

	var reports []eval.TableReport
	run := func(name string, mk func() (*ppatuner.Scenario, error)) {
		t0 := time.Now()
		s, err := mk()
		if err != nil {
			fmt.Fprintf(os.Stderr, "tables: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("— %s (benchmark ready in %v) —\n", name, time.Since(t0).Round(time.Second))
		t0 = time.Now()
		c := &ppatuner.Campaign{
			Scenario: s, Seeds: seeds, Workers: *workers, Checkpoint: ck,
			Breaker: brk,
			Opts:    ppatuner.HarnessRunOpts{Wrap: wrap},
		}
		tbl, err := c.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "tables: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(tbl.Format())
		fmt.Printf("(computed in %v over %d seed(s), %d worker(s))\n\n", time.Since(t0).Round(time.Second), len(seeds), *workers)
		reports = append(reports, tbl.Report(name, seeds))
	}

	if *table == "2" || *table == "both" {
		run("Table 2", ppatuner.ScenarioOne)
	}
	if *table == "3" || *table == "both" {
		run("Table 3", ppatuner.ScenarioTwo)
	}

	if ck != nil {
		replayed, fresh := ck.Stats()
		fmt.Printf("checkpoint: resumed %d completed cells, replayed %d observations, %d fresh evaluations (now %d cells in %s)\n",
			resumedCells, replayed, fresh, ck.Cells(), *ckptPath)
	}
	if brk != nil {
		outages := 0
		if inj != nil {
			outages = inj.Counts().Outage
		}
		fmt.Printf("outage: schedule %s, %d outage failures injected, %d breaker trip(s), failures: %s\n",
			sched, outages, brk.Trips(), flog.Summary())
	}

	if *jsonPath != "" {
		if err := eval.WriteTablesJSON(*jsonPath, seeds, *workers, reports); err != nil {
			fmt.Fprintf(os.Stderr, "tables: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}
