// Command perfbench is the repository's end-to-end benchmark: it drives the
// whole tuning stack — flow-simulator datasets, tuners and surrogates,
// campaign scheduler and checkpoint, shard coordinator and workers, and the
// job service — on fixed workloads, prints every metric as `name value
// unit`, checks the outputs, and ends with one JSON result line.
//
//	bash perfbench/run.sh --workload table3 --seed 1 --seconds 20 --trace 0
//
// run.sh builds the command into .bench_build/ and runs it from the
// repository root; every file a run writes stays under .bench_build/.
//
// # Workloads
//
// Every workload runs in its own process. Concurrency is fixed at
// min(2, NumCPU) threads and connections. The seed shifts only the tuner
// and job seeds; the datasets never change. The first run after a build
// generates the paper's scenario datasets into .bench_build/data, untimed
// (see data.go). A run then sets up five times (set-up time is their
// median; a traced run sets up once) and repeats rounds of fixed work, round
// r with the seeds after round r-1's, until --seconds have passed and at
// least five rounds have run; timings are medians over rounds.
//
//   - table3: Scenario Two, all five tuners × three objective spaces × one
//     seed per round (15 units), in-process eval.Campaign with two unit
//     workers and a file checkpoint — the cmd/tables -table 3 path. Many
//     short mixed units: the scheduler and the per-observation checkpoint
//     rewrite carry the load. internal/par hands each worker a fixed
//     contiguous range of units, so one worker idles while the other
//     finishes.
//   - table2-ppatuner: Scenario One, PPATuner on the Area-Delay space, one
//     unit per round, two engine workers, exact GP. The GP and the PAL sweeps
//     over the 5000-point pool do the work; it is the only large-pool
//     workload. One space keeps the rounds alike: a unit of the other spaces
//     takes up to twice as long.
//   - dist-obs: Scenario Two, MLCAD'19 + DAC'19 × three spaces × four seeds
//     per round (24 units), shard.Coordinator over loopback TCP with two
//     in-process shard.RunWorker workers and a file checkpoint, as
//     cmd/ppacoord runs it. The tuners are cheap and the GP does no work, so
//     per-observation costs dominate: the coordinator rewrites its whole
//     checkpoint on every observation, on the loop that also merges and
//     acknowledges them.
//   - serve-small-jobs: serve.Server behind httptest on loopback TCP, two
//     campaign slots, one unit worker per job. Each round boots a server on
//     a manifest already holding 104 finished jobs, as a long-running
//     server's would, and two closed-loop clients run eight one-space jobs
//     each (TCAD'19 + MLCAD'19 + DAC'19, one seed): submit, follow the job by
//     long-poll events, fetch the front, submit the next. The manifest grows
//     to 120 jobs (about 1 MB) and is rewritten whole on every submit,
//     status and unit change, next to HTTP and slot scheduling.
//
// # End-to-end metrics (--trace 0)
//
//	setup_s      scenario set-up: load the stored datasets, re-derive a fixed
//	             sample through the flow simulator and generate a 32-point
//	             dataset with benchdata.Generate (serve adds server boot and
//	             one warm-up job per objective space). Generating the full
//	             datasets happens once per build and is not timed
//	campaign_s   one round, first submit to last result
//	cpu_s        user+system CPU of one round (getrusage)
//	io_write_mb  bytes passed to write(2) in one round (/proc/self/io wchar;
//	             files and sockets alike)
//	peak_rss_mb  resident-set high-water mark (VmHWM) of one round, reset
//	             before each round through /proc/self/clear_refs, so one
//	             round's GC overshoot does not set the run's value
//	item_s.p50   latency of one item: a campaign unit (Gate to OnUnit), a
//	item_s.p90   distributed unit (grant to result), or a job (submit to
//	             front), pooled over the run's rounds: 100 to 400 items per
//	             run, except table2-ppatuner's five to seven, whose p90 is
//	             its slowest unit or next to it. The run prints the count
//	tool_runs    tool runs of the first five rounds (a function of the seed)
//
// Their regression bounds are in BENCHMARK.json, sized to the run-to-run
// spread measured on a shared 2-vCPU host; see BASELINE.md.
//
// # Per-layer metrics (--trace 1)
//
// A traced run records spans in memory from the benchmark's side of each
// layer's public hooks — eval.Campaign Gate/OnUnit/Opts.Wrap/WrapUnit, a
// timing wrapper around shard.Conn, and HTTP requests against
// serve.Server.Handler() — and derives the per-layer metrics from them,
// self time included. Layers without a hook are replayed after the run
// from what the hooks saw: the GP calls of round 0's PPATuner units
// (gpreplay.go), the coordinator's checkpoint writes of round 0 (distobs.go)
// and the server's manifest writes of round 0 (serve.go). A traced run
// first repeats round 0 untraced, for trace.overhead_frac, and writes the
// spans as JSONL to --trace-out. Each layer, its metrics, and the
// end-to-end metric it should move:
//
//	benchdata/pdtool  benchdata.generate_s (benchdata.Generate of 64 target
//	                  points), benchdata.flow_runs (flow runs per set-up),
//	                  pdtool.run_ms.p50/.p90 (64 target configurations run
//	                  serially) -> setup_s, every workload
//	eval/par          eval.units, eval.unit_s.p50/.p90,
//	                  eval.worker_busy_s.max/.min, eval.idle_s
//	                  -> campaign_s on table3; none on table2-ppatuner.
//	                  eval.hv_err, round 0's mean HV error, is result
//	                  quality: a function of the seed that no speed-up
//	                  may move
//	core/baselines    tuner.<method>.busy_s (unit self time outside the
//	                  evaluator stack) -> campaign_s, cpu_s on table3 and
//	                  table2-ppatuner
//	gp                gp.fit_s, gp.add_s, gp.predict_s, gp.fits, gp.adds,
//	                  gp.predicts (replayed), core.sweep_s_est (PPATuner
//	                  busy minus the replay, an estimate) -> campaign_s on
//	                  table2-ppatuner; zero on dist-obs and serve-small-jobs
//	checkpoint        ckpt.obs_writes, ckpt.obs_write_ms.p50/.p99,
//	                  ckpt.write_s, ckpt.file_kb -> campaign_s, io_write_mb
//	                  on table3 (measured: the Opts.Wrap call minus the
//	                  WrapUnit call it contains) and dist-obs (replayed)
//	shard             shard.obs_ack_ms.p50/.p99, shard.grant_wait_ms.p50,
//	                  shard.msgs, shard.wire_mb, shard.obs_per_s,
//	                  shard.leases_granted, shard.leases_expired,
//	                  shard.zombie_results -> campaign_s, io_write_mb on
//	                  dist-obs
//	serve             serve.submit_ms.p50/.p90, serve.queue_wait_s.p50/.p90,
//	                  serve.run_s.p50, serve.first_unit_s.p50,
//	                  serve.poll_ms.p50, serve.front_ms.p50,
//	                  serve.manifest_kb, serve.manifest_writes and
//	                  serve.manifest_write_s (replayed) -> item_s.*,
//	                  campaign_s, io_write_mb on serve-small-jobs
//	trace             trace.overhead_frac: traced round 0 over untraced, - 1
//
// Per-round totals are medians over traced rounds; percentiles pool the
// samples of all traced rounds; replayed values cover round 0.
//
// # Outputs
//
// Every round checks invariants that hold for any seed. For seeds 1 and 2
// the output digest of round 0 must also match testdata/e2e_golden.json
// (recorded per SIMD level, since the GP kernels round differently per
// level); other seeds print outputs=unverified.
//
// # Flags
//
//	--workload NAME|all  all re-executes the command once per workload
//	--seed S             first tuner/job seed
//	--seconds N          length of the measured phase
//	--trace 0|1          per-layer run
//	--trace-out FILE     span JSONL (default .bench_build/trace/NAME-seedS.jsonl)
//	--repeat N           run the workload N times in fresh processes, seeds
//	                     S..S+N-1, and print each metric's median, quartiles
//	                     and spread against its bound in BENCHMARK.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ppatuner/internal/eval"
	"ppatuner/internal/simd"
)

// config is what every workload driver receives.
type config struct {
	seed int64
	conc int    // threads of load and connections
	dir  string // scratch directory for the run's files
}

// driver runs one workload.
type driver interface {
	scenarioKind() string
	scenario() *eval.Scenario
	// executors is how many units may run at once (worker lanes).
	executors() int
	// gpWorkers is the PPATuner engine's worker count, for the replay.
	gpWorkers() int
	// setup builds the workload's state; it is timed and repeated.
	setup() error
	// prepare builds, once and untimed, fixtures the rounds start from.
	prepare() error
	// round runs round r's fixed work; tr is nil when untraced.
	round(r int, tr *Tracer) (*roundResult, error)
}

// roundResult is what one round reports.
type roundResult struct {
	items     []float64 // per-item latency, s
	units     int       // campaign units finished
	runs      int       // tool runs
	hvErr     float64   // sum of per-unit HV errors
	attempted int       // items attempted
	failed    int       // items failed
	output    []byte    // the round's outputs, digested for the golden check
	extra     map[string]float64
	samples   map[string][]float64 // per-layer samples only the workload sees
	gpUnits   []gpUnit
	// replay, set on traced rounds of workloads whose layers have no hook,
	// re-runs the round's calls into such a layer after the run and returns
	// per-layer totals and samples.
	replay func() (map[string]float64, map[string][]float64, error)
}

type workload struct {
	name string
	new  func(config) driver
}

// workloads are in BENCHMARK.json order; the package doc says why each
// exists.
var workloads = []workload{
	{"table3", func(c config) driver {
		return &campaignDriver{scenarioBase: scenarioBase{cfg: c, kind: "scenario2"},
			seedsPerRound: 1, unitWorkers: c.conc}
	}},
	{"table2-ppatuner", func(c config) driver {
		return &campaignDriver{scenarioBase: scenarioBase{cfg: c, kind: "scenario1"},
			methods: []eval.Method{eval.PPATuner}, spaces: []string{"Area-Delay"},
			seedsPerRound: 1, unitWorkers: 1, engineWorkers: c.conc}
	}},
	{"dist-obs", func(c config) driver {
		return &distDriver{scenarioBase: scenarioBase{cfg: c, kind: "scenario2"}, seedsPerRound: 4}
	}},
	{"serve-small-jobs", func(c config) driver {
		return &serveDriver{scenarioBase: scenarioBase{cfg: c, kind: "scenario2"}, jobsPerClient: 8, pastJobs: 104}
	}},
}

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 5

// minRounds is the fewest rounds a run measures, however long they take, so
// every median has at least this many samples; tool_runs counts them.
const minRounds = 5

func main() {
	name := flag.String("workload", "", "workload to run, or all")
	seed := flag.Int64("seed", 1, "first tuner/job seed")
	seconds := flag.Int("seconds", 20, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	traceOut := flag.String("trace-out", "", "span JSONL file (default .bench_build/trace/WORKLOAD-seedS.jsonl)")
	repeat := flag.Int("repeat", 0, "run the workload N times in fresh processes and print the spread of each metric")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload NAME|all [--seed S] [--seconds N] [--trace 0|1] [--trace-out FILE] [--repeat N]")
		os.Exit(2)
	}
	var err error
	switch {
	case *name == "all":
		err = runAll(os.Args[1:])
	case *repeat > 0:
		err = runRepeat(*name, *seed, *repeat, os.Args[1:])
	default:
		w, ok := lookup(*name)
		if !ok {
			err = fmt.Errorf("unknown workload %q", *name)
			break
		}
		out := *traceOut
		if out == "" {
			out = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		}
		err = runOne(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// concurrency is the fixed load: two threads and connections, or fewer on
// a smaller host.
func concurrency() int { return min(2, runtime.NumCPU()) }

// simdLevel names the GP kernel path this host takes; golden digests are
// recorded per level.
func simdLevel() string {
	switch {
	case simd.Enabled512():
		return "avx512"
	case simd.Enabled():
		return "avx2"
	}
	return "generic"
}
