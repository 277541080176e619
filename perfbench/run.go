package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit, in print order.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"campaign_s", "s"},
	{"cpu_s", "s"},
	{"io_write_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"item_s.p50", "s"},
	{"item_s.p90", "s"},
	{"tool_runs", "count"},
}

// roundStat is one measured round.
type roundStat struct {
	wall, cpu, writeMB, peakMB float64
	res                        *roundResult
}

func measureRound(d driver, r int, tr *Tracer) (roundStat, error) {
	// Start every round from a collected heap, so the previous round's
	// garbage is not charged to this one.
	runtime.GC()
	resetPeakRSS()
	before, err := snapshot()
	if err != nil {
		return roundStat{}, err
	}
	res, err := d.round(r, tr)
	after, serr := snapshot()
	if err == nil {
		err = serr
	}
	st := roundStat{res: res}
	st.wall, st.cpu, st.writeMB = after.since(before)
	if st.peakMB, serr = peakRSSMB(); err == nil {
		err = serr
	}
	if res == nil {
		st.res = &roundResult{}
	}
	return st, err
}

// runOne runs a workload in this process and prints its metrics and result
// line. It returns an error when the run or its output check failed.
func runOne(w workload, seed int64, dur time.Duration, traced bool, traceOut string) error {
	conc := concurrency()
	runtime.GOMAXPROCS(conc)
	dir := filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d := w.new(config{seed: seed, conc: conc, dir: dir})
	if err := prepareScenario(d.scenarioKind()); err != nil {
		return err
	}
	fmt.Printf("# host: num_cpu=%d gomaxprocs=%d load_threads=%d simd=%s %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), conc, simdLevel(), runtime.Version(), runtime.GOOS, runtime.GOARCH)

	reps := setupRepeats
	if traced {
		reps = 1
	}
	var setupTimes []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := d.setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	if err := d.prepare(); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}

	var base roundStat
	var tr *Tracer
	if traced {
		var err error
		if base, err = measureRound(d, 0, nil); err != nil {
			return fmt.Errorf("untraced round 0: %w", err)
		}
		tr = newTracer()
	}
	var rounds []roundStat
	var runErr error
	start, steal0 := time.Now(), stealSeconds()
	for r := 0; ; r++ {
		st, err := measureRound(d, r, tr)
		rounds = append(rounds, st)
		if err != nil {
			runErr = fmt.Errorf("round %d: %w", r, err)
			break
		}
		if len(rounds) >= minRounds && time.Since(start) >= dur {
			break
		}
	}

	res := result{Correct: runErr == nil, Metrics: map[string]metric{}}
	var items []float64
	runs := 0 // tool runs of the first minRounds rounds: a function of the seed
	for r, st := range rounds {
		res.Attempted += st.res.attempted
		res.Failed += st.res.failed
		items = append(items, st.res.items...)
		if r < minRounds {
			runs += st.res.runs
		}
	}
	res.Attempted = max(res.Attempted, 1)
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", runErr)
	} else {
		digest := sha256.Sum256(rounds[0].res.output)
		got := hex.EncodeToString(digest[:])
		verdict, err := checkGolden(w.name, seed, got)
		if err != nil {
			return err
		}
		if traced && !bytes.Equal(base.res.output, rounds[0].res.output) {
			verdict = "MISMATCH (traced round 0 differs from untraced)"
		}
		fmt.Printf("outputs=%s digest=%s\n", verdict, got)
		if verdict != "verified" && verdict != "unverified" {
			res.Correct = false
		}
	}
	fmt.Printf("# %d rounds in %.1fs (hypervisor steal %.2fs), %d items; round 0: %d units, %d tool runs, HV error %.6g\n",
		len(rounds), time.Since(start).Seconds(), stealSeconds()-steal0, len(items),
		rounds[0].res.units, rounds[0].res.runs, hvErr(rounds[0].res))
	walls := make([]float64, len(rounds))
	for r, st := range rounds {
		walls[r] = st.wall
	}
	fmt.Printf("# set-up s:%s; round wall s:%s\n", fmtList(setupTimes), fmtList(walls))

	var defs []metricDef
	if traced {
		defs = perLayer
		vals, err := layerMetrics(d, tr, rounds, base, conc)
		if err != nil {
			return err
		}
		for name, v := range vals {
			res.Metrics[name] = metric{Value: v}
		}
		if err := tr.WriteJSONL(traceOut); err != nil {
			return err
		}
		fmt.Printf("# spans: %s\n", traceOut)
	} else {
		defs = endToEnd
		var cpus, writes, peaks []float64
		for _, st := range rounds {
			cpus = append(cpus, st.cpu)
			writes, peaks = append(writes, st.writeMB), append(peaks, st.peakMB)
		}
		vals := map[string]float64{
			"setup_s":     median(setupTimes),
			"campaign_s":  median(walls),
			"cpu_s":       median(cpus),
			"io_write_mb": median(writes),
			"peak_rss_mb": median(peaks),
			"item_s.p50":  pct(items, 50),
			"item_s.p90":  pct(items, 90),
			"tool_runs":   float64(runs),
		}
		for name, v := range vals {
			res.Metrics[name] = metric{Value: v}
		}
	}
	for _, m := range defs {
		v := res.Metrics[m.name]
		v.Unit = m.unit
		res.Metrics[m.name] = v
		fmt.Printf("%s %s %s\n", m.name, strconv.FormatFloat(v.Value, 'g', -1, 64), m.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: run failed or outputs are wrong", w.name)
	}
	return nil
}

func fmtList(xs []float64) string {
	var b strings.Builder
	for _, x := range xs {
		fmt.Fprintf(&b, " %.3f", x)
	}
	return b.String()
}

// hvErr is the mean HV error over a round's units.
func hvErr(r *roundResult) float64 {
	if r.units == 0 {
		return 0
	}
	return r.hvErr / float64(r.units)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
