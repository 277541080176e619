package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"sync"
	"testing"

	"ppatuner/internal/benchdata"
	"ppatuner/internal/eval"
	"ppatuner/internal/param"
	"ppatuner/internal/pdtool"
)

var (
	miniOnce sync.Once
	mini     *eval.Scenario
	miniErr  error
)

// miniScenario is a Scenario Two lookalike small enough to drive every
// workload in seconds.
func miniScenario(t *testing.T) *eval.Scenario {
	t.Helper()
	miniOnce.Do(func() {
		design, err := pdtool.NewSmallMAC()
		if err != nil {
			miniErr = err
			return
		}
		src, err := benchdata.Generate("mini-src", param.Source2Space(), design, benchdata.GenOptions{Points: 60, Seed: 1})
		if err != nil {
			miniErr = err
			return
		}
		tgt, err := benchdata.Generate("mini-tgt", param.Target2Space(), design, benchdata.GenOptions{Points: 60, Seed: 2})
		if err != nil {
			miniErr = err
			return
		}
		mini = &eval.Scenario{
			Name: "mini", Source: src, Target: tgt, SourceN: 20, InitFrac: 0.1,
			Budgets: map[eval.Method]int{eval.TCAD19: 14, eval.MLCAD19: 10, eval.DAC19: 16, eval.ASPDAC20: 10, eval.PPATuner: 12},
		}
	})
	if miniErr != nil {
		t.Fatal(miniErr)
	}
	return mini
}

// TestWorkloadsOnMiniScenario drives every workload's round on the mini
// scenario, untraced and traced, and requires identical outputs: the
// instrumentation stays off the determinism path.
func TestWorkloadsOnMiniScenario(t *testing.T) {
	sc := miniScenario(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			d := w.new(config{seed: 3, conc: 2, dir: t.TempDir()})
			setScenario(d, sc)
			if sd, ok := d.(*serveDriver); ok {
				if err := sd.warmUp(); err != nil {
					t.Fatalf("warm-up: %v", err)
				}
			}
			if err := d.prepare(); err != nil {
				t.Fatalf("prepare: %v", err)
			}
			plain, err := d.round(0, nil)
			if err != nil {
				t.Fatalf("untraced round: %v", err)
			}
			tr := newTracer()
			traced, err := d.round(0, tr)
			if err != nil {
				t.Fatalf("traced round: %v", err)
			}
			if plain.units == 0 || plain.runs == 0 || len(plain.items) == 0 || plain.failed != 0 || plain.attempted == 0 {
				t.Fatalf("implausible round: %+v", plain)
			}
			if len(plain.output) == 0 || string(plain.output) != string(traced.output) {
				t.Fatalf("traced outputs differ from untraced (%d vs %d bytes)", len(traced.output), len(plain.output))
			}
			if len(tr.Spans()) == 0 {
				t.Fatal("traced round recorded no spans")
			}
			for _, u := range traced.gpUnits {
				c, err := replayGP(u, d.gpWorkers())
				if err != nil {
					t.Fatalf("replay %s: %v", u.spec.Key(), err)
				}
				if c.fits == 0 || c.adds == 0 {
					t.Fatalf("replay %s did no surrogate work: %+v", u.spec.Key(), c)
				}
			}
			switch w.name {
			case "dist-obs", "serve-small-jobs":
				if traced.replay == nil {
					t.Fatal("traced round has no replay")
				}
				vals, _, err := traced.replay()
				if err != nil {
					t.Fatalf("replay: %v", err)
				}
				if vals["ckpt.write_s"]+vals["serve.manifest_write_s"] <= 0 {
					t.Fatalf("replay timed no writes: %v", vals)
				}
				if w.name == "serve-small-jobs" && vals["serve.manifest_writes"] != float64(8*plain.attempted) {
					t.Fatalf("replayed %v manifest writes for %d jobs, want 8 a job", vals["serve.manifest_writes"], plain.attempted)
				}
			}
			extra, samples := map[string]float64{}, map[string][]float64{}
			spanLayers(spanRounds(tr.Spans())["0"], d.executors(), extra, samples)
			if extra["eval.units"] == 0 && w.name != "serve-small-jobs" {
				t.Fatalf("no unit spans: %v", extra)
			}
		})
	}
}

// setScenario installs a prebuilt scenario in place of the stored one.
func setScenario(d driver, sc *eval.Scenario) {
	switch d := d.(type) {
	case *campaignDriver:
		d.sc = sc
	case *distDriver:
		d.sc = sc
	case *serveDriver:
		d.sc = sc
	}
}

// TestBenchmarkJSONMatchesMetrics pins BENCHMARK.json to the metric tables
// the command prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	legal := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, defs []metricDef, names, units []string) {
		if len(names) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(names), len(defs))
		}
		for i := range min(len(names), len(defs)) {
			if names[i] != defs[i].name || units[i] != defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the command prints %s [%s]", kind, i, names[i], units[i], defs[i].name, defs[i].unit)
			}
			if !legal.MatchString(names[i]) {
				t.Errorf("%s: illegal metric name %q", kind, names[i])
			}
		}
	}
	var names, units []string
	for _, m := range doc.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", endToEnd, names, units)
	names, units = nil, nil
	for _, m := range doc.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per_layer", perLayer, names, units)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i].name)
		}
	}
}

func TestPercentile(t *testing.T) {
	// Hand-computed: rank h = 9p/100 into the sorted samples 1..10,
	// interpolated between floor(h) and floor(h)+1.
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{50, 5.5}, {90, 9.1}, {99, 9.91}, {100, 10}, {10, 1.9}, {0, 1}} {
		got, n := percentile(xs, tc.p)
		if math.Abs(got-tc.want) > 1e-12 || n != len(xs) {
			t.Errorf("percentile(p%v) = %v over %d, want %v over %d", tc.p, got, n, tc.want, len(xs))
		}
	}
	if got, n := percentile([]float64{4, 2, 9}, 50); got != 4 || n != 3 {
		t.Errorf("percentile of three = %v over %d, want the middle one", got, n)
	}
	if got, n := percentile([]float64{7}, 90); got != 7 || n != 1 {
		t.Errorf("percentile of one = %v over %d", got, n)
	}
	if got, n := percentile(nil, 50); got != 0 || n != 0 {
		t.Errorf("empty percentile = %v over %d", got, n)
	}
	if xs[0] != 9 || xs[9] != 10 {
		t.Error("percentile reordered its input")
	}
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestSelfTimeAndLanes(t *testing.T) {
	ms := int64(1e6)
	spans := []Span{
		{ID: 1, Name: "round", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "unit", Start: 0, End: 60 * ms},
		{ID: 3, Parent: 1, Name: "unit", Start: 10 * ms, End: 50 * ms},
		{ID: 4, Parent: 1, Name: "unit", Start: 60 * ms, End: 90 * ms},
		{ID: 5, Parent: 2, Name: "eval", Start: 5 * ms, End: 15 * ms},
		{ID: 6, Parent: 2, Name: "eval", Start: 12 * ms, End: 20 * ms}, // overlaps 5
		{ID: 7, Parent: 5, Name: "tool", Start: 6 * ms, End: 8 * ms},
		{ID: 8, Parent: 4, Name: "eval", Start: 85 * ms, End: 95 * ms}, // runs past its parent
	}
	self := selfTimes(spans)
	want := map[int64]float64{
		1: 0.010, // 100 ms minus the union of units [0,90]
		2: 0.045, // 60 minus the union [5,20]
		3: 0.040,
		4: 0.025, // 30 minus [85,90]
		5: 0.008,
		6: 0.008,
		7: 0.002,
		8: 0.010,
	}
	for id, w := range want {
		if math.Abs(self[id]-w) > 1e-12 {
			t.Errorf("span %d self time %v, want %v", id, self[id], w)
		}
	}
	busy := lanes(spans[1:4], 2)
	sort.Float64s(busy)
	if math.Abs(busy[0]-0.040) > 1e-12 || math.Abs(busy[1]-0.090) > 1e-12 {
		t.Errorf("lanes = %v, want [0.04 0.09]", busy)
	}
}

func TestLinkEvals(t *testing.T) {
	tr := newTracer()
	unit := tr.Begin("unit", "k", 0)
	t0 := tr.epoch
	ev := tr.Record("eval", "", 7, 0, t0.Add(1e6), t0.Add(9e6))
	tool := tr.Record("tool", "k", 7, unit, t0.Add(2e6), t0.Add(3e6))
	other := tr.Record("tool", "k", 7, unit, t0.Add(20e6), t0.Add(21e6))
	tr.End(unit)
	tr.linkEvals()
	byID := map[int64]Span{}
	for _, s := range tr.Spans() {
		byID[s.ID] = s
	}
	if byID[ev].Parent != unit || byID[ev].Key != "k" || byID[tool].Parent != ev || byID[other].Parent != unit {
		t.Fatalf("linking went wrong: %+v", byID)
	}
}

func TestWithFlag(t *testing.T) {
	got := withFlag([]string{"--workload", "all", "-seed=4", "--trace", "1"}, "seed", "9")
	want := []string{"--workload", "all", "--trace", "1", "--seed", "9"}
	if len(got) != len(want) {
		t.Fatalf("withFlag = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("withFlag = %v, want %v", got, want)
		}
	}
}
