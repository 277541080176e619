// Package gpbench hosts the surrogate hot-path micro-benchmarks shared by
// the root benchmark suite (`go test -bench`) and cmd/bench, which re-runs
// them standalone and emits BENCH_gp.json — a machine-readable perf record so
// successive PRs can see the trajectory of the GP fit/predict loop instead of
// eyeballing `go test -bench` output diffs.
//
// Every fixture runs what PPATuner runs: an RBF ARD transfer GP over Table
// 1's 12-knob Scenario One space, ~200 training points (120 source + 80
// target) and a large attached candidate pool. FitRefit is the
// hyper-parameter refit (up to 240 Nelder–Mead NLML evaluations),
// PredictPool is the per-iteration posterior sweep over the whole pool, four
// candidates per PredictPool4 call as the tuner's region update makes it,
// and AddTarget is the incremental posterior/pool-cache update after one
// tool evaluation.
package gpbench

import (
	"math"
	"math/rand"
	"testing"

	"ppatuner/internal/gp"
)

// Fixture dimensions. Dim is the knob count of Table 1's Scenario One
// space; the sizes make one FitRefit iteration a realistic refit (n≈200
// points, full-data NLML) and PredictPool sweep a pool big enough for
// memory effects to show. PoolN is a multiple of 4.
const (
	Dim      = 12
	SourceN  = 120
	TargetN  = 80
	PoolN    = 1500
	FitEvals = 240
)

// synth is a smooth multimodal response surface standing in for one QoR
// metric.
func synth(x []float64) float64 {
	s := 0.0
	for d, v := range x {
		s += math.Sin(3*v+float64(d)) + 0.3*v*v
	}
	return s
}

func points(rng *rand.Rand, n, dim int) ([][]float64, []float64) {
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := make([]float64, dim)
		for d := range x {
			x[d] = rng.Float64()
		}
		xs[i] = x
		ys[i] = synth(x)
	}
	return xs, ys
}

// fixtureData returns the deterministic source/target/pool point sets.
func fixtureData() (sx [][]float64, sy []float64, tx [][]float64, ty []float64, pool [][]float64) {
	rng := rand.New(rand.NewSource(1))
	sx, sy = points(rng, SourceN, Dim)
	tx, ty = points(rng, TargetN, Dim)
	pool, _ = points(rng, PoolN, Dim)
	return
}

// newGP builds the transfer GP over the fixture data without fitting it.
func newGP(sx [][]float64, sy []float64, tx [][]float64, ty []float64) *gp.GP {
	g := gp.New(gp.RBF, Dim, true)
	if err := g.SetSource(sx, sy); err != nil {
		panic(err)
	}
	if err := g.SetTarget(tx, ty); err != nil {
		panic(err)
	}
	g.SetWorkers(Workers)
	return g
}

// FitRefit measures one full hyper-parameter refit (the per-refit cost the
// tuner pays at every scheduled recalibration). The GP is rebuilt from
// default hyper-parameters each iteration so every Fit walks the same
// optimisation surface.
func FitRefit(b *testing.B) {
	sx, sy, tx, ty, _ := fixtureData()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := newGP(sx, sy, tx, ty)
		b.StartTimer()
		if err := g.Fit(gp.FitOptions{MaxEvals: FitEvals}); err != nil {
			b.Fatal(err)
		}
	}
}

// PredictPool measures one posterior mean/variance sweep over the whole
// candidate pool — the model-calibration stage of each tuner iteration —
// four candidates per PredictPool4 call.
func PredictPool(b *testing.B) {
	sx, sy, tx, ty, pool := fixtureData()
	g := newGP(sx, sy, tx, ty)
	if err := g.Rebuild(); err != nil {
		b.Fatal(err)
	}
	if err := g.AttachPool(pool); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		for p := 0; p+4 <= len(pool); p += 4 {
			mu, sd := g.PredictPool4([4]int{p, p + 1, p + 2, p + 3})
			for c := range mu {
				sink += mu[c] + sd[c]
			}
		}
	}
	if math.IsNaN(sink) {
		b.Fatal("NaN prediction")
	}
}

// AddTarget measures the incremental posterior + pool-cache update after one
// tool evaluation. The fixture is reset periodically (timer stopped) so the
// measured cost stays at the fixture's size instead of growing with b.N.
func AddTarget(b *testing.B) {
	const resetEvery = 64
	sx, sy, tx, ty, pool := fixtureData()
	rng := rand.New(rand.NewSource(2))
	adds, _ := points(rng, resetEvery, Dim)

	reset := func() *gp.GP {
		g := newGP(sx, sy, tx, ty)
		if err := g.Rebuild(); err != nil {
			b.Fatal(err)
		}
		g.ReserveAdds(resetEvery)
		if err := g.AttachPool(pool); err != nil {
			b.Fatal(err)
		}
		return g
	}
	g := reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%resetEvery == 0 {
			b.StopTimer()
			g = reset()
			b.StartTimer()
		}
		x := adds[i%resetEvery]
		if err := g.AddTarget(x, synth(x)); err != nil {
			b.Fatal(err)
		}
	}
}

// Workers is the SetWorkers value applied to every benchmarked surrogate.
// cmd/bench sets it from -workers and records it in BENCH_gp.json so runs on
// differently-sized hosts stay comparable.
var Workers = 1
