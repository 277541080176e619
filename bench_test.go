// Benchmarks regenerating every table and figure of the paper's evaluation
// section, plus ablations over PPATuner's design choices. Each benchmark
// reports the paper's quality indicators (hyper-volume error, ADRS, tool
// runs) as custom metrics so `go test -bench` output doubles as the
// reproduction record:
//
//	BenchmarkTable1Stats       — Table 1 (parameter statistics)
//	BenchmarkTable2_*          — Table 2, one per objective space (Target1)
//	BenchmarkTable3_*          — Table 3, one per objective space (Target2)
//	BenchmarkFigure3           — Figure 3 (power-delay fronts on Target2)
//	BenchmarkAblation*         — transfer on/off, δ, τ, source size, batch
//	BenchmarkFlow*             — raw simulator throughput
package ppatuner_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ppatuner"
	"ppatuner/internal/core"
	"ppatuner/internal/eval"
	"ppatuner/internal/gpbench"
	"ppatuner/internal/pareto"
)

// ---- GP hot-path micro-suite (shared with cmd/bench, which emits
// BENCH_gp.json so the perf trajectory is machine-readable per PR) ----

func BenchmarkFitRefit(b *testing.B)    { gpbench.FitRefit(b) }
func BenchmarkPredictPool(b *testing.B) { gpbench.PredictPool(b) }
func BenchmarkAddTarget(b *testing.B)   { gpbench.AddTarget(b) }

// BenchmarkTable1Stats regenerates the Table 1 parameter statistics.
func BenchmarkTable1Stats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range []*ppatuner.Space{
			ppatuner.Source1Space(), ppatuner.Target1Space(),
			ppatuner.Source2Space(), ppatuner.Target2Space(),
		} {
			if len(s.Stats()) != s.Dim() {
				b.Fatalf("%s: stats rows != dim", s.Name)
			}
		}
	}
}

// benchTableSpace runs all five methods on one scenario/objective-space cell
// and reports each method's indicators.
func benchTableSpace(b *testing.B, mk func() (*ppatuner.Scenario, error), spaceIdx int) {
	b.Helper()
	s, err := mk()
	if err != nil {
		b.Fatal(err)
	}
	space := ppatuner.ObjSpaces()[spaceIdx]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		for _, m := range ppatuner.Methods() {
			out, err := eval.RunMethod(m, s, space, seed)
			if err != nil {
				b.Fatalf("%s: %v", m, err)
			}
			hv, adrs := eval.Score(s, space, out)
			b.ReportMetric(hv, fmt.Sprintf("hv-%s", shortName(m)))
			b.ReportMetric(adrs, fmt.Sprintf("adrs-%s", shortName(m)))
			b.ReportMetric(float64(out.Runs), fmt.Sprintf("runs-%s", shortName(m)))
		}
	}
}

func shortName(m ppatuner.HarnessMethod) string {
	switch m {
	case eval.TCAD19:
		return "TCAD19"
	case eval.MLCAD19:
		return "MLCAD19"
	case eval.DAC19:
		return "DAC19"
	case eval.ASPDAC20:
		return "ASPDAC20"
	default:
		return "PPATuner"
	}
}

func BenchmarkTable2_AreaDelay(b *testing.B)      { benchTableSpace(b, ppatuner.ScenarioOne, 0) }
func BenchmarkTable2_PowerDelay(b *testing.B)     { benchTableSpace(b, ppatuner.ScenarioOne, 1) }
func BenchmarkTable2_AreaPowerDelay(b *testing.B) { benchTableSpace(b, ppatuner.ScenarioOne, 2) }

func BenchmarkTable3_AreaDelay(b *testing.B)      { benchTableSpace(b, ppatuner.ScenarioTwo, 0) }
func BenchmarkTable3_PowerDelay(b *testing.B)     { benchTableSpace(b, ppatuner.ScenarioTwo, 1) }
func BenchmarkTable3_AreaPowerDelay(b *testing.B) { benchTableSpace(b, ppatuner.ScenarioTwo, 2) }

// BenchmarkFigure3 regenerates the Figure 3 fronts and reports their sizes
// and the learned front's ADRS to the golden one.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		golden, learned, err := ppatuner.Figure3(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if len(golden) == 0 || len(learned) == 0 {
			b.Fatal("empty front")
		}
		b.ReportMetric(float64(len(golden)), "golden-points")
		b.ReportMetric(float64(len(learned)), "learned-points")
		b.ReportMetric(pareto.ADRS(golden, learned), "adrs")
	}
}

// ---- Ablations (Scenario Two, power-delay: the cheapest full-size cell) ----

// ablationRun executes PPATuner with overrides and reports quality.
func ablationRun(b *testing.B, name string, seed int64, mutate func(*core.Options)) {
	b.Helper()
	s, err := ppatuner.ScenarioTwo()
	if err != nil {
		b.Fatal(err)
	}
	space := ppatuner.ObjSpaces()[1]
	pool := s.Target.UnitX()
	objVecs := s.Target.Objectives(space.Metrics)
	ev := func(i int) ([]float64, error) { return objVecs[i], nil }
	rng := rand.New(rand.NewSource(seed))

	// Source slice identical to the harness protocol.
	srcIdx := rng.Perm(s.Source.N())[:s.SourceN]
	var sx [][]float64
	sy := make([][]float64, len(space.Metrics))
	for _, j := range srcIdx {
		p := s.Source.Points[j]
		sx = append(sx, p.Config.EncodeInto(s.Target.Space))
		for k, m := range space.Metrics {
			sy[k] = append(sy[k], p.QoR.Get(m))
		}
	}
	opt := core.Options{
		NumObjectives: len(space.Metrics),
		SourceX:       sx,
		SourceY:       sy,
		InitTarget:    14,
		MaxIter:       51,
		DeltaFrac:     0.02,
		Tau:           9,
		ARD:           true,
		FitMaxEvals:   400,
		Rng:           rng,
	}
	mutate(&opt)
	tn, err := core.New(pool, ev, opt)
	if err != nil {
		b.Fatal(err)
	}
	res, err := tn.Run()
	if err != nil {
		b.Fatal(err)
	}
	hv, adrs := eval.Score(s, space, &eval.Outcome{ParetoIdx: res.ParetoIdx, Runs: res.Runs})
	b.ReportMetric(hv, "hv-"+name)
	b.ReportMetric(adrs, "adrs-"+name)
	b.ReportMetric(float64(res.Runs), "runs-"+name)
}

// BenchmarkAblationTransfer isolates the transfer kernel (Eq. 7): identical
// loop with and without the 200 source points.
func BenchmarkAblationTransfer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		ablationRun(b, "with", seed, func(o *core.Options) {})
		ablationRun(b, "without", seed, func(o *core.Options) { o.SourceX, o.SourceY = nil, nil })
	}
}

// BenchmarkAblationDelta sweeps the relaxation coefficient δ (Eq. 11/12),
// the user's precision-vs-runs controller.
func BenchmarkAblationDelta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		for _, df := range []float64{0.01, 0.05, 0.15} {
			name := fmt.Sprintf("delta%.2f", df)
			ablationRun(b, name, seed, func(o *core.Options) { o.DeltaFrac = df })
		}
	}
}

// BenchmarkAblationTau sweeps the uncertainty-region scaling τ (Eq. 9).
func BenchmarkAblationTau(b *testing.B) {
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		for _, tau := range []float64{2.25, 4, 9} {
			name := fmt.Sprintf("tau%.2g", tau)
			ablationRun(b, name, seed, func(o *core.Options) { o.Tau = tau })
		}
	}
}

// BenchmarkAblationSourceSize sweeps the amount of historical data feeding
// the transfer kernel.
func BenchmarkAblationSourceSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		for _, n := range []int{50, 100, 200} {
			name := fmt.Sprintf("src%d", n)
			ablationRun(b, name, seed, func(o *core.Options) {
				o.SourceX = o.SourceX[:n]
				for k := range o.SourceY {
					o.SourceY[k] = o.SourceY[k][:n]
				}
			})
		}
	}
}

// BenchmarkAblationBatch compares single selection with the licence-parallel
// batch mode of Sec. 3.3.
func BenchmarkAblationBatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		ablationRun(b, "batch1", seed, func(o *core.Options) { o.Batch = 1 })
		ablationRun(b, "batch4", seed, func(o *core.Options) { o.Batch = 4 })
	}
}

// ---- Raw flow-simulator throughput ----

func benchFlow(b *testing.B, design *ppatuner.Design, space *ppatuner.Space) {
	b.Helper()
	u := make([]float64, space.Dim())
	for i := range u {
		u[i] = 0.5
	}
	cfg := space.MustConfig(u)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ppatuner.RunFlow(design, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlowSmallMAC(b *testing.B) { benchFlow(b, ppatuner.SmallMAC(), ppatuner.Target1Space()) }
func BenchmarkFlowLargeMAC(b *testing.B) { benchFlow(b, ppatuner.LargeMAC(), ppatuner.Target2Space()) }
