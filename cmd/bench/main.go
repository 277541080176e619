// Command bench runs the GP hot-path micro-benchmarks (internal/gpbench) and
// writes the results to a JSON file, giving every PR a machine-readable perf
// trajectory for the surrogate loop:
//
//	go run ./cmd/bench -o BENCH_gp.json
//
// The same benchmarks are exposed to `go test -bench` as BenchmarkFitRefit,
// BenchmarkPredictPool and BenchmarkAddTarget in the root package; this
// command exists so CI can archive the numbers without scraping test output.
// All three run PPATuner's own surrogate: an RBF ARD transfer GP at d = 12.
//
// With -against BASELINE.json the command additionally acts as a regression
// gate: it reads the baseline before measuring, compares fresh ns/op to the
// baseline's and exits 1 on a regression. -o and -against must name
// different files, or the run would overwrite its own baseline. FitRefit
// gates at -maxregress (a fraction; 0.25 allows +25%); PredictPool and
// AddTarget are much shorter-running and therefore
// noisier on shared CI hosts, so they gate at the wider -maxregress-micro.
// A gated benchmark missing from either report fails the gate, and so does
// one whose fresh run timed fewer than minGateIters iterations; every other
// benchmark is informational. The report records the SIMD level the kernels
// ran at (avx512, avx2 or generic), and the gate notes a baseline taken at
// another level or GOMAXPROCS, whose ratios then reflect the host.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"ppatuner/internal/gpbench"
	"ppatuner/internal/simd"
)

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Report is the BENCH_gp.json document.
type Report struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// GOMAXPROCS and Workers pin down the concurrency the numbers were taken
	// under: ns/op from a host with different effective parallelism is not
	// comparable, and the gate should know that.
	GOMAXPROCS int `json:"gomaxprocs"`
	Workers    int `json:"workers"`
	// SIMD is the kernel path the numbers ran on: RBFARD runs 8 lanes on
	// avx512, 4 on avx2 and scalar on generic, so ns/op from different
	// levels do not compare.
	SIMD      string   `json:"simd"`
	Timestamp string   `json:"timestamp"`
	Results   []Result `json:"results"`
}

// simdLevel names the SIMD path internal/simd dispatches to on this host.
func simdLevel() string {
	switch {
	case simd.Enabled512():
		return "avx512"
	case simd.Enabled():
		return "avx2"
	default:
		return "generic"
	}
}

func run(name string, fn func(*testing.B)) Result {
	r := testing.Benchmark(fn)
	return Result{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// loadBaseline reads and parses the -against report. It runs before
// anything is measured or written, and refuses an -o naming the same file:
// writing first and gating second would compare a run against itself.
func loadBaseline(path, out string) (Report, error) {
	// A baseline that exists and is the file -o names would be overwritten.
	if bi, err := os.Stat(path); err == nil {
		if oi, err := os.Stat(out); err == nil && os.SameFile(bi, oi) {
			return Report{}, fmt.Errorf("-o %s and -against %s are the same file; the run would overwrite its baseline", out, path)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, fmt.Errorf("reading baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return Report{}, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	return base, nil
}

// minGateIters is the fewest iterations a gated benchmark's fresh run must
// time for the gate to judge it. Fewer are cold samples: at -benchtime 1x
// one PredictPool sweep read about 2x its baseline on a healthy tree.
// FitRefit, the slowest, times 7 at the default -benchtime on a 2-vCPU host.
const minGateIters = 3

// gate compares the fresh measurements against a baseline report and returns
// an error when a gated benchmark regressed beyond its allowed fraction, was
// timed over fewer than minGateIters iterations, or is missing from either
// report. FitRefit is long-running and gates tightly (maxRegress);
// PredictPool and AddTarget are microsecond-scale and gate at the wider
// maxMicro. Other benchmarks are informational.
func gate(fresh, base Report, maxRegress, maxMicro float64) error {
	if base.GOMAXPROCS != 0 && base.GOMAXPROCS != fresh.GOMAXPROCS {
		fmt.Printf("gate: note: GOMAXPROCS differs (baseline %d, fresh %d); ratios may reflect the host, not the code\n",
			base.GOMAXPROCS, fresh.GOMAXPROCS)
	}
	if base.SIMD != fresh.SIMD {
		fmt.Printf("gate: note: SIMD level differs (baseline %q, fresh %q); ratios may reflect the host, not the code\n",
			base.SIMD, fresh.SIMD)
	}
	allowed := map[string]float64{
		"FitRefit":    maxRegress,
		"PredictPool": maxMicro,
		"AddTarget":   maxMicro,
	}
	baseNs := make(map[string]float64, len(base.Results))
	for _, r := range base.Results {
		baseNs[r.Name] = r.NsPerOp
	}
	var gateErr error
	fail := func(err error) {
		if gateErr == nil {
			gateErr = err
		}
		fmt.Println(err)
	}
	measured := make(map[string]bool, len(fresh.Results))
	for _, r := range fresh.Results {
		measured[r.Name] = true
		old, ok := baseNs[r.Name]
		if !ok || old <= 0 {
			continue
		}
		ratio := r.NsPerOp / old
		verdict := "info"
		if max, isGated := allowed[r.Name]; isGated {
			verdict = "ok"
			switch {
			case r.Iterations < minGateIters:
				verdict = "TOO FEW ITERATIONS"
				fail(fmt.Errorf("%s timed %d iterations, fewer than the %d the gate needs; raise -benchtime",
					r.Name, r.Iterations, minGateIters))
			case ratio > 1+max:
				verdict = "REGRESSED"
				fail(fmt.Errorf("%s regressed: %.0f ns/op vs baseline %.0f ns/op (%.2fx > allowed %.2fx)",
					r.Name, r.NsPerOp, old, ratio, 1+max))
			}
		}
		fmt.Printf("gate %-28s %12.0f ns/op vs %12.0f baseline (%.2fx) [%s]\n",
			r.Name, r.NsPerOp, old, ratio, verdict)
	}
	for _, name := range slices.Sorted(maps.Keys(allowed)) {
		if baseNs[name] <= 0 {
			fail(fmt.Errorf("%s is gated but missing from the baseline", name))
		} else if !measured[name] {
			fail(fmt.Errorf("%s is gated but missing from the fresh run", name))
		}
	}
	return gateErr
}

func main() {
	out := flag.String("o", "BENCH_gp.json", "output file for the JSON benchmark report")
	benchtime := flag.String("benchtime", "", "per-benchmark budget as a duration or iteration count (e.g. 2s, 1x); empty keeps the testing default")
	against := flag.String("against", "", "baseline BENCH_gp.json to gate against; exit 1 if a gated benchmark regresses beyond its margin")
	maxRegress := flag.Float64("maxregress", 0.25, "allowed FitRefit ns/op regression vs -against, as a fraction (0.25 = +25%)")
	maxMicro := flag.Float64("maxregress-micro", 0.75, "allowed PredictPool/AddTarget ns/op regression vs -against; wider than -maxregress because microsecond-scale benchmarks are noisier on shared hosts")
	workers := flag.Int("workers", 1, "SetWorkers value for every benchmarked surrogate (recorded in the report)")
	testing.Init()
	flag.Parse()
	if *benchtime != "" {
		if err := flag.Set("test.benchtime", *benchtime); err != nil {
			fmt.Fprintf(os.Stderr, "bench: -benchtime %s: %v\n", *benchtime, err)
			os.Exit(2)
		}
	}
	gpbench.Workers = *workers
	var baseline Report
	if *against != "" {
		var err error
		if baseline, err = loadBaseline(*against, *out); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(2)
		}
	}

	rep := Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    *workers,
		SIMD:       simdLevel(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	benches := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"FitRefit", gpbench.FitRefit},
		{"PredictPool", gpbench.PredictPool},
		{"AddTarget", gpbench.AddTarget},
	}
	for _, bench := range benches {
		res := run(bench.name, bench.fn)
		fmt.Printf("%-28s %12.0f ns/op %10d B/op %6d allocs/op (%d iters)\n",
			bench.name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, res.Iterations)
		rep.Results = append(rep.Results, res)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)

	if *against != "" {
		if err := gate(rep, baseline, *maxRegress, *maxMicro); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
}
