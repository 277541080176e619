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
//	       [-breaker N [-outage PERIOD/DOWN]] [-max-outage D]
//
// -seeds takes either a count N (averages over seeds 1..N) or an explicit
// comma-separated seed list such as 1,2,5 (a trailing comma forces list
// form: "7," runs just seed 7). -json writes the machine-readable
// TABLES.json document alongside the text tables.
//
// The outage flags are declared once, in eval.FaultConfig, for every
// command that takes them: -outage PERIOD/DOWN injects a DOWN-long licence
// outage inside every PERIOD stripe of the evaluation path, -breaker N arms
// a circuit breaker that trips after N consecutive transient failures (an
// outage-marked one trips it at once), and -max-outage D (default 5m)
// bounds one outage episode. A campaign's -outage needs -breaker: an
// evaluation that meets the open breaker pauses until the tool is back, so
// the regenerated tables are bit-identical to an outage-free run.
//
// To distribute the units over worker processes instead, use the ppacoord
// command: its output is byte-identical to this one's.
package main

import (
	"context"
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
	var faults eval.FaultConfig
	faults.RegisterFlags(flag.CommandLine)
	flag.Parse()

	seeds, err := eval.ParseSeeds(*seedSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tables: %v\n", err)
		os.Exit(2)
	}
	// The outage windows' timeline starts here, before the benchmark build.
	stack, err := faults.Build(context.Background(), seeds[0], nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tables: %v\n", err)
		os.Exit(2)
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
			Opts: ppatuner.HarnessRunOpts{Wrap: stack.Wrap},
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
	if stack.Breaker != nil {
		fmt.Printf("outage: %s\n", stack.Summary())
	}

	if *jsonPath != "" {
		if err := eval.WriteTablesJSON(*jsonPath, seeds, *workers, reports); err != nil {
			fmt.Fprintf(os.Stderr, "tables: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}
