package gp

import (
	"math"
	"math/rand"
	"testing"

	"ppatuner/internal/mat"
)

// target function used across regression tests.
func fTest(x []float64) float64 {
	return math.Sin(3*x[0]) + 0.5*x[1]*x[1]
}

func trainSet(rng *rand.Rand, n int, f func([]float64) float64) ([][]float64, []float64) {
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64()}
		ys[i] = f(xs[i])
	}
	return xs, ys
}

// transferSet builds correlated source/target datasets over [0,1]^dim, the
// shape the paper's tuning campaigns produce.
func transferSet(rng *rand.Rand, ns, nt, dim int) (xs [][]float64, ys []float64, xt [][]float64, yt []float64) {
	f := func(x []float64, shift float64) float64 {
		s := shift
		for k, v := range x {
			s += math.Sin(3*v+float64(k)) + 0.3*v*v
		}
		return s
	}
	mk := func(n int, shift float64) ([][]float64, []float64) {
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			xi := make([]float64, dim)
			for k := range xi {
				xi[k] = rng.Float64()
			}
			x[i] = xi
			y[i] = f(xi, shift) + 0.01*rng.NormFloat64()
		}
		return x, y
	}
	xs, ys = mk(ns, 0)
	xt, yt = mk(nt, 0.4)
	return
}

func TestGPInterpolatesTrainingData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := trainSet(rng, 30, fTest)
	g := New(RBF, 2, false)
	if err := g.SetTarget(x, y); err != nil {
		t.Fatal(err)
	}
	if err := g.Fit(FitOptions{MaxEvals: 150}); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		mu, sd := g.Predict(x[i])
		if math.Abs(mu-y[i]) > 0.05 {
			t.Errorf("training point %d: mu = %g, want %g", i, mu, y[i])
		}
		if sd > 0.2 {
			t.Errorf("training point %d: sd = %g, want small", i, sd)
		}
	}
}

func TestGPGeneralises(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := trainSet(rng, 60, fTest)
	g := New(RBF, 2, true)
	if err := g.SetTarget(x, y); err != nil {
		t.Fatal(err)
	}
	if err := g.Fit(FitOptions{MaxEvals: 200}); err != nil {
		t.Fatal(err)
	}
	var mse float64
	const m = 50
	for i := 0; i < m; i++ {
		xq := []float64{rng.Float64(), rng.Float64()}
		mu, _ := g.Predict(xq)
		d := mu - fTest(xq)
		mse += d * d
	}
	mse /= m
	if mse > 0.01 {
		t.Errorf("test MSE = %g, want < 0.01", mse)
	}
}

func TestGPUncertaintyGrowsAwayFromData(t *testing.T) {
	g := New(RBF, 1, false)
	if err := g.SetTarget([][]float64{{0.5}}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := g.Rebuild(); err != nil {
		t.Fatal(err)
	}
	_, sdNear := g.Predict([]float64{0.5})
	_, sdFar := g.Predict([]float64{5})
	if !(sdFar > sdNear) {
		t.Errorf("sd near = %g, sd far = %g; want far > near", sdNear, sdFar)
	}
}

func TestGPFitImprovesNLML(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := trainSet(rng, 40, fTest)
	g := New(RBF, 2, false)
	if err := g.SetTarget(x, y); err != nil {
		t.Fatal(err)
	}
	g.standardise()
	before := g.NLML()
	if err := g.Fit(FitOptions{MaxEvals: 150}); err != nil {
		t.Fatal(err)
	}
	after := g.NLML()
	if !(after <= before+1e-9) {
		t.Errorf("NLML after fit %g > before %g", after, before)
	}
}

// TestGPAddTargetMatchesRebuild: incremental posterior updates must agree
// with a from-scratch rebuild.
func TestGPAddTargetMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := trainSet(rng, 20, fTest)
	xNew, yNew := trainSet(rng, 5, fTest)
	queries, _ := trainSet(rng, 10, fTest)

	inc := New(RBF, 2, false)
	if err := inc.SetTarget(x, y); err != nil {
		t.Fatal(err)
	}
	if err := inc.Rebuild(); err != nil {
		t.Fatal(err)
	}
	for i := range xNew {
		if err := inc.AddTarget(xNew[i], yNew[i]); err != nil {
			t.Fatal(err)
		}
	}

	full := New(RBF, 2, false)
	if err := full.SetTarget(append(append([][]float64{}, x...), xNew...), append(append([]float64{}, y...), yNew...)); err != nil {
		t.Fatal(err)
	}
	// Use the same (default) hyper-parameters and the same standardisation
	// state as the incremental model (white-box: bypass Rebuild's
	// re-standardisation so the two posteriors are over identical data).
	full.yMeanS, full.yStdS = inc.yMeanS, inc.yStdS
	full.yMeanT, full.yStdT = inc.yMeanT, inc.yStdT
	ch, err := mat.CholeskyWithJitter(full.gram(), 1e-8, 8)
	if err != nil {
		t.Fatal(err)
	}
	full.chol = ch
	full.alpha = ch.Solve(full.yStdAll())

	for i, q := range queries {
		mi, si := inc.Predict(q)
		mf, sf := full.Predict(q)
		if math.Abs(mi-mf) > 1e-6 || math.Abs(si-sf) > 1e-6 {
			t.Errorf("query %d: incremental (%g, %g) vs full (%g, %g)", i, mi, si, mf, sf)
		}
	}
}

func TestGPPoolMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := trainSet(rng, 25, fTest)
	pool, _ := trainSet(rng, 40, fTest)
	g := New(RBF, 2, false)
	if err := g.SetTarget(x, y); err != nil {
		t.Fatal(err)
	}
	if err := g.Fit(FitOptions{MaxEvals: 80}); err != nil {
		t.Fatal(err)
	}
	if err := g.AttachPool(pool); err != nil {
		t.Fatal(err)
	}
	for p := range pool {
		mp, sp := g.PredictPool(p)
		mq, sq := g.Predict(pool[p])
		if math.Abs(mp-mq) > 1e-8 || math.Abs(sp-sq) > 1e-8 {
			t.Fatalf("pool %d: (%g, %g) vs Predict (%g, %g)", p, mp, sp, mq, sq)
		}
	}
	// After an incremental add the cached pool must still agree.
	xn, yn := trainSet(rng, 3, fTest)
	for i := range xn {
		if err := g.AddTarget(xn[i], yn[i]); err != nil {
			t.Fatal(err)
		}
	}
	for p := range pool {
		mp, sp := g.PredictPool(p)
		mq, sq := g.Predict(pool[p])
		if math.Abs(mp-mq) > 1e-6 || math.Abs(sp-sq) > 1e-6 {
			t.Fatalf("pool %d after add: (%g, %g) vs Predict (%g, %g)", p, mp, sp, mq, sq)
		}
	}
}

// TestExactDeterministic: one Fit → AttachPool → AddTarget×k → Fit
// sequence, each run on a freshly built GP, must give bitwise-equal
// PredictPool results at every step for any SetWorkers count. The pool
// sizes cover every remainder mod 4, so shards end in every mix of
// four-candidate batches and single candidates. At one worker each cached
// prediction must also equal the uncached Predict bit for bit, which pins
// the batched solves to the scalar forward substitution and, for RBF, the
// batched kernel columns and pool extension to one another.
func TestExactDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	xs, ys, xt, yt := transferSet(rng, 30, 12, 3)
	adds, addY := make([][]float64, 9), make([]float64, 9)
	for i := range adds {
		adds[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		addY[i] = rng.NormFloat64()
	}
	for _, m := range []int{1, 4, 5, 203} {
		pool := make([][]float64, m)
		for i := range pool {
			pool[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		}
		run := func(workers int) []float64 {
			g := New(RBF, 3, true)
			g.SetWorkers(workers)
			g.ReserveAdds(len(adds))
			if err := g.SetSource(xs, ys); err != nil {
				t.Fatal(err)
			}
			if err := g.SetTarget(xt, yt); err != nil {
				t.Fatal(err)
			}
			if err := g.Fit(FitOptions{MaxEvals: 40}); err != nil {
				t.Fatal(err)
			}
			if err := g.AttachPool(pool); err != nil {
				t.Fatal(err)
			}
			var out []float64
			record := func(stage string) {
				for p := range pool {
					mu, sd := g.PredictPool(p)
					out = append(out, mu, sd)
					if workers != 1 {
						continue
					}
					mq, sq := g.Predict(pool[p])
					if math.Float64bits(mu) != math.Float64bits(mq) || math.Float64bits(sd) != math.Float64bits(sq) {
						t.Fatalf("pool %d, %s, candidate %d: PredictPool (%v, %v), Predict (%v, %v)",
							m, stage, p, mu, sd, mq, sq)
					}
				}
			}
			record("after AttachPool")
			for i := range adds {
				if err := g.AddTarget(adds[i], addY[i]); err != nil {
					t.Fatal(err)
				}
				record("after AddTarget")
			}
			if err := g.Fit(FitOptions{MaxEvals: 40}); err != nil {
				t.Fatal(err)
			}
			record("after refit")
			return out
		}
		want := run(1)
		for _, w := range []int{2, 7} {
			got := run(w)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("pool %d, workers=%d: prediction %d differs bitwise: %v vs %v", m, w, i, got[i], want[i])
				}
			}
		}
	}
}

// TestTransferGPHelps: with very few target observations of a shifted copy
// of the source function, the transfer GP must beat a target-only GP.
func TestTransferGPHelps(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	fSrc := func(x []float64) float64 { return math.Sin(4*x[0]) + x[1] }
	fTgt := func(x []float64) float64 { return math.Sin(4*x[0]) + x[1] + 0.1 }

	xs, ys := trainSet(rng, 80, fSrc)
	xt, yt := trainSet(rng, 5, fTgt)

	transfer := New(RBF, 2, false)
	if err := transfer.SetSource(xs, ys); err != nil {
		t.Fatal(err)
	}
	if err := transfer.SetTarget(xt, yt); err != nil {
		t.Fatal(err)
	}
	if err := transfer.Fit(FitOptions{MaxEvals: 200}); err != nil {
		t.Fatal(err)
	}

	plain := New(RBF, 2, false)
	if err := plain.SetTarget(xt, yt); err != nil {
		t.Fatal(err)
	}
	if err := plain.Fit(FitOptions{MaxEvals: 200}); err != nil {
		t.Fatal(err)
	}

	var mseT, mseP float64
	const m = 60
	for i := 0; i < m; i++ {
		xq := []float64{rng.Float64(), rng.Float64()}
		want := fTgt(xq)
		mt, _ := transfer.Predict(xq)
		mp, _ := plain.Predict(xq)
		mseT += (mt - want) * (mt - want)
		mseP += (mp - want) * (mp - want)
	}
	if !(mseT < mseP) {
		t.Errorf("transfer MSE %g !< plain MSE %g", mseT/m, mseP/m)
	}
	// Similar tasks: the learned cross-task correlation should be high.
	if transfer.Rho() < 0.5 {
		t.Errorf("learned rho = %g, want > 0.5 for near-identical tasks", transfer.Rho())
	}
}

// TestTransferGPDissimilarTasks: when the source task is anti-correlated
// with the target, the learned rho must drop well below the similar-task
// value (the kernel "measures both positive and negative correlations").
func TestTransferGPDissimilarTasks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fSrc := func(x []float64) float64 { return -math.Sin(4*x[0]) - x[1] }
	fTgt := func(x []float64) float64 { return math.Sin(4*x[0]) + x[1] }

	xs, ys := trainSet(rng, 80, fSrc)
	xt, yt := trainSet(rng, 15, fTgt)

	g := New(RBF, 2, false)
	if err := g.SetSource(xs, ys); err != nil {
		t.Fatal(err)
	}
	if err := g.SetTarget(xt, yt); err != nil {
		t.Fatal(err)
	}
	if err := g.Fit(FitOptions{MaxEvals: 250}); err != nil {
		t.Fatal(err)
	}
	if g.Rho() > 0.5 {
		t.Errorf("anti-correlated tasks: learned rho = %g, want low/negative", g.Rho())
	}
}

func TestGPRhoWithoutSource(t *testing.T) {
	g := New(RBF, 2, false)
	if g.Rho() != 1 {
		t.Errorf("Rho without source = %g, want 1", g.Rho())
	}
}

func TestGPFixTransfer(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	xs, ys := trainSet(rng, 20, fTest)
	xt, yt := trainSet(rng, 5, fTest)
	g := New(RBF, 2, false)
	if err := g.SetSource(xs, ys); err != nil {
		t.Fatal(err)
	}
	if err := g.SetTarget(xt, yt); err != nil {
		t.Fatal(err)
	}
	g.a, g.b = 0.33, 1.25
	if err := g.Fit(FitOptions{MaxEvals: 60, FixTransfer: true}); err != nil {
		t.Fatal(err)
	}
	if g.a != 0.33 || g.b != 1.25 {
		t.Errorf("FixTransfer changed (a, b) to (%g, %g)", g.a, g.b)
	}
}

func TestGPErrors(t *testing.T) {
	g := New(RBF, 2, false)
	if err := g.Fit(FitOptions{}); err == nil {
		t.Error("Fit with no data succeeded")
	}
	if err := g.Rebuild(); err == nil {
		t.Error("Rebuild with no data succeeded")
	}
	if err := g.SetTarget([][]float64{{1, 2}}, []float64{1, 2}); err == nil {
		t.Error("mismatched target lengths accepted")
	}
	if err := g.SetSource([][]float64{{1}}, []float64{1}); err == nil {
		t.Error("wrong source dim accepted")
	}
	if err := g.AttachPool(nil); err == nil {
		t.Error("AttachPool before Rebuild succeeded")
	}
	if err := g.SetTarget([][]float64{{0.1, 0.2}}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := g.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := g.AttachPool([][]float64{{1}}); err == nil {
		t.Error("pool with wrong dim accepted")
	}
	if err := g.AddTarget([]float64{1}, 0); err == nil {
		t.Error("AddTarget with wrong dim accepted")
	}
}

func TestGPAddTargetDuplicatePointSurvives(t *testing.T) {
	g := New(RBF, 2, false)
	if err := g.SetTarget([][]float64{{0.5, 0.5}}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := g.Rebuild(); err != nil {
		t.Fatal(err)
	}
	// Adding the identical point twice must not corrupt the posterior.
	for i := 0; i < 2; i++ {
		if err := g.AddTarget([]float64{0.5, 0.5}, 1); err != nil {
			t.Fatalf("duplicate add %d: %v", i, err)
		}
	}
	mu, sd := g.Predict([]float64{0.5, 0.5})
	if math.IsNaN(mu) || math.IsNaN(sd) {
		t.Fatal("NaN prediction after duplicate adds")
	}
	if math.Abs(mu-1) > 0.05 {
		t.Errorf("mu = %g, want ~1", mu)
	}
}

func TestGPCounts(t *testing.T) {
	g := New(RBF, 1, false)
	if err := g.SetSource([][]float64{{0.1}, {0.2}}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := g.SetTarget([][]float64{{0.3}}, []float64{3}); err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.NTarget() != 1 {
		t.Errorf("N = %d, NTarget = %d; want 3, 1", g.N(), g.NTarget())
	}
	if err := g.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := g.AddTarget([]float64{0.4}, 4); err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.NTarget() != 2 {
		t.Errorf("after add: N = %d, NTarget = %d; want 4, 2", g.N(), g.NTarget())
	}
}

func TestSubsampledDeterministicAndStructured(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	xs, ys, xt, yt := transferSet(rng, 40, 20, 2)
	g := New(RBF, 2, true)
	if err := g.SetSource(xs, ys); err != nil {
		t.Fatal(err)
	}
	if err := g.SetTarget(xt, yt); err != nil {
		t.Fatal(err)
	}
	sub := g.subsampled(30)
	sub2 := g.subsampled(30)
	if sub.N() != 30 {
		t.Fatalf("subsampled to %d points, want 30", sub.N())
	}
	// Proportional split: 30·40/60 = 20 source points.
	if len(sub.xs) != 20 || len(sub.xt) != 10 {
		t.Errorf("split %d/%d, want 20/10", len(sub.xs), len(sub.xt))
	}
	for i := range sub.xs {
		if &sub.xs[i][0] != &sub2.xs[i][0] {
			t.Fatal("subsampling is not deterministic (different source rows picked)")
		}
	}
	// Stride subsampling picks views into the parent data, never copies.
	for _, row := range sub.xs {
		found := false
		for _, orig := range xs {
			if &row[0] == &orig[0] {
				found = true
				break
			}
		}
		if !found {
			t.Fatal("subsampled source row is not a view into the parent dataset")
		}
	}
	if sub.cov != g.cov {
		t.Error("subsampled GP must share the parent covariance (Fit mutates it in place)")
	}
	if sub.a != g.a || sub.b != g.b || sub.noiseT != g.noiseT || sub.noiseS != g.noiseS {
		t.Error("subsampled GP did not inherit transfer/noise hyper-parameters")
	}
}

func TestSubsampledKeepsSourceTaskPresence(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	xs, ys, xt, yt := transferSet(rng, 3, 200, 2)
	g := New(RBF, 2, true)
	if err := g.SetSource(xs, ys); err != nil {
		t.Fatal(err)
	}
	if err := g.SetTarget(xt, yt); err != nil {
		t.Fatal(err)
	}
	sub := g.subsampled(40)
	if len(sub.xs) < 1 {
		t.Fatal("subsampling dropped the source task entirely; packed hyper layout would change")
	}
	if !sub.hasSource {
		t.Error("hasSource lost in subsample")
	}
}

func TestSubsampledNoopWhenSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	xt, yt := trainSet(rng, 10, fTest)
	g := New(RBF, 2, true)
	if err := g.SetTarget(xt, yt); err != nil {
		t.Fatal(err)
	}
	if sub := g.subsampled(50); sub != g {
		t.Error("subsampled(n >= N) must return the receiver unchanged")
	}
	if sub := g.subsampled(0); sub != g {
		t.Error("subsampled(0) must return the receiver unchanged")
	}
}
