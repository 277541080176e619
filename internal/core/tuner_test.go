package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"ppatuner/internal/pareto"
)

// synthetic bi-objective problem: a trade-off along x0 with multimodal
// ripples, so a handful of samples cannot pin the surface down and the
// active-learning loop has real work to do.
func synthObj(x []float64) []float64 {
	f1 := x[0] + 0.25*x[1]*x[1] + 0.15*math.Sin(5*x[0]+3*x[1])
	f2 := 1 - x[0] + 0.25*(1-x[1])*(1-x[1]) + 0.15*math.Cos(4*x[0]-2*x[1])
	return []float64{f1, f2}
}

func synthPool(rng *rand.Rand, n int) [][]float64 {
	pool := make([][]float64, n)
	for i := range pool {
		pool[i] = []float64{rng.Float64(), rng.Float64()}
	}
	return pool
}

func poolEval(pool [][]float64, f func([]float64) []float64, count *int) Evaluator {
	return func(i int) ([]float64, error) {
		if count != nil {
			*count++
		}
		return f(pool[i]), nil
	}
}

func defaultOpts(rng *rand.Rand) Options {
	return Options{
		NumObjectives: 2,
		InitTarget:    8,
		MaxIter:       120,
		Rng:           rng,
		FitMaxEvals:   80,
		FitSubsample:  60,
	}
}

func TestTunerFindsParetoFront(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pool := synthPool(rng, 150)
	var evals int
	tn, err := New(pool, poolEval(pool, synthObj, &evals), defaultOpts(rng))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tn.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ParetoIdx) == 0 {
		t.Fatal("no Pareto candidates returned")
	}
	if res.Runs != evals {
		t.Errorf("Runs = %d, evaluator saw %d", res.Runs, evals)
	}
	if res.Runs >= len(pool) {
		t.Errorf("tuner evaluated the whole pool (%d runs)", res.Runs)
	}

	// Quality: the returned set's golden vectors must approximate the true
	// pool front well.
	all := make([][]float64, len(pool))
	for i := range pool {
		all[i] = synthObj(pool[i])
	}
	golden := pareto.FrontPoints(all)
	approx := make([][]float64, 0, len(res.ParetoIdx))
	for _, i := range res.ParetoIdx {
		approx = append(approx, synthObj(pool[i]))
	}
	// Quality bars near the paper's own reported bands (HV error ≈ 0.05–0.1,
	// ADRS ≈ 0.04–0.1).
	adrs := pareto.ADRS(golden, approx)
	if adrs > 0.12 {
		t.Errorf("ADRS = %g, want <= 0.12", adrs)
	}
	ref := pareto.ReferencePoint(all, 0.1)
	if hv := pareto.HVError(golden, approx, ref); hv > 0.15 {
		t.Errorf("hyper-volume error = %g, want <= 0.15", hv)
	}
}

func TestTunerDeterministicGivenSeed(t *testing.T) {
	run := func() *Result {
		rng := rand.New(rand.NewSource(42))
		pool := synthPool(rand.New(rand.NewSource(7)), 60)
		tn, err := New(pool, poolEval(pool, synthObj, nil), defaultOpts(rng))
		if err != nil {
			t.Fatal(err)
		}
		res, err := tn.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Runs != b.Runs || len(a.ParetoIdx) != len(b.ParetoIdx) {
		t.Fatalf("non-deterministic: %d/%d runs, %d/%d pareto", a.Runs, b.Runs, len(a.ParetoIdx), len(b.ParetoIdx))
	}
	for i := range a.ParetoIdx {
		if a.ParetoIdx[i] != b.ParetoIdx[i] {
			t.Fatal("pareto sets differ between identical runs")
		}
	}
}

func TestTunerAllDecidedOnConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pool := synthPool(rng, 80)
	opt := defaultOpts(rng)
	opt.MaxIter = 500 // plenty to converge
	tn, err := New(pool, poolEval(pool, synthObj, nil), opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tn.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters >= opt.MaxIter {
		t.Skip("did not converge within budget; cannot assert full classification")
	}
	for i, s := range res.Status {
		if s == Undecided {
			t.Fatalf("candidate %d still undecided after convergence", i)
		}
	}
}

func TestTunerBatchSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pool := synthPool(rng, 100)
	opt := defaultOpts(rng)
	opt.Batch = 4
	tn, err := New(pool, poolEval(pool, synthObj, nil), opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tn.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ParetoIdx) == 0 {
		t.Fatal("batch run returned nothing")
	}
	// Batch mode must evaluate in multiples after the init phase.
	if res.Runs <= opt.InitTarget {
		t.Errorf("batch run only used init evaluations (%d)", res.Runs)
	}
}

// TestTunerTransferHelpsAtFixedBudget: with source knowledge of a
// near-identical task and a tight evaluation budget, the transfer tuner must
// deliver a better Pareto approximation than the plain tuner — the paper's
// central claim — and the learned task correlation must be positive.
func TestTunerTransferHelpsAtFixedBudget(t *testing.T) {
	poolRng := rand.New(rand.NewSource(8))
	pool := synthPool(poolRng, 120)

	srcF := func(x []float64) []float64 {
		y := synthObj(x)
		return []float64{y[0] * 1.01, y[1] * 1.01} // near-identical source task
	}
	srcX := synthPool(rand.New(rand.NewSource(9)), 80)
	srcY := make([][]float64, 2)
	for _, x := range srcX {
		y := srcF(x)
		srcY[0] = append(srcY[0], y[0])
		srcY[1] = append(srcY[1], y[1])
	}

	all := make([][]float64, len(pool))
	for i := range pool {
		all[i] = synthObj(pool[i])
	}
	golden := pareto.FrontPoints(all)

	runWith := func(seed int64, withSource bool) (*Result, float64) {
		rng := rand.New(rand.NewSource(seed))
		opt := defaultOpts(rng)
		opt.MaxIter = 15 // tight tool-run budget: init 8 + 15
		if withSource {
			opt.SourceX = srcX
			opt.SourceY = srcY
		}
		tn, err := New(pool, poolEval(pool, synthObj, nil), opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tn.Run()
		if err != nil {
			t.Fatal(err)
		}
		approx := make([][]float64, 0, len(res.ParetoIdx))
		for _, i := range res.ParetoIdx {
			approx = append(approx, synthObj(pool[i]))
		}
		return res, pareto.ADRS(golden, approx)
	}

	var adrsT, adrsP float64
	var lastT *Result
	for seed := int64(10); seed < 14; seed++ {
		rt, at := runWith(seed, true)
		_, ap := runWith(seed, false)
		adrsT += at
		adrsP += ap
		lastT = rt
	}
	if !(adrsT < adrsP) {
		t.Errorf("at a fixed budget, transfer ADRS %g !< plain ADRS %g (summed over 4 seeds)", adrsT, adrsP)
	}
	for k, rho := range lastT.Rho {
		if rho < 0.2 {
			t.Errorf("objective %d: learned rho = %g, want positive for near-identical tasks", k, rho)
		}
	}
}

func TestTunerValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pool := synthPool(rng, 10)
	ev := poolEval(pool, synthObj, nil)
	good := defaultOpts(rng)

	if _, err := New(nil, ev, good); err == nil {
		t.Error("empty pool accepted")
	}
	if _, err := New(pool, nil, good); err == nil {
		t.Error("nil evaluator accepted")
	}
	bad := good
	bad.NumObjectives = 0
	if _, err := New(pool, ev, bad); err == nil {
		t.Error("zero objectives accepted")
	}
	bad = good
	bad.Rng = nil
	if _, err := New(pool, ev, bad); err == nil {
		t.Error("nil rng accepted")
	}
	bad = good
	bad.SourceX = [][]float64{{1, 2}}
	bad.SourceY = [][]float64{{1}}
	if _, err := New(pool, ev, bad); err == nil {
		t.Error("SourceY objective-count mismatch accepted")
	}
	bad = good
	bad.SourceX = [][]float64{{1, 2}}
	bad.SourceY = [][]float64{{1, 2}, {3}}
	if _, err := New(pool, ev, bad); err == nil {
		t.Error("SourceY length mismatch accepted")
	}
	ragged := [][]float64{{1, 2}, {3}}
	if _, err := New(ragged, ev, good); err == nil {
		t.Error("ragged pool accepted")
	}
}

func TestTunerEvaluatorErrorPropagates(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pool := synthPool(rng, 20)
	boom := errors.New("license server down")
	ev := func(i int) ([]float64, error) { return nil, boom }
	tn, err := New(pool, ev, defaultOpts(rng))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Run(); !errors.Is(err, boom) {
		t.Errorf("Run error = %v, want wrapped %v", err, boom)
	}
}

func TestTunerEvaluatorWrongDimension(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := synthPool(rng, 20)
	ev := func(i int) ([]float64, error) { return []float64{1}, nil }
	tn, err := New(pool, ev, defaultOpts(rng))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Run(); err == nil {
		t.Error("wrong-dimension evaluator accepted")
	}
}

func TestDeltaControlsPrecision(t *testing.T) {
	pool := synthPool(rand.New(rand.NewSource(30)), 100)
	run := func(deltaFrac float64) *Result {
		rng := rand.New(rand.NewSource(31))
		opt := defaultOpts(rng)
		opt.DeltaFrac = deltaFrac
		opt.MaxIter = 400
		tn, err := New(pool, poolEval(pool, synthObj, nil), opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tn.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	coarse := run(0.15)
	fine := run(0.01)
	// A looser δ must not need more tool runs than a tight one.
	if coarse.Runs > fine.Runs {
		t.Errorf("coarse δ used %d runs, fine δ %d — precision knob inverted", coarse.Runs, fine.Runs)
	}
}

func TestDiameterScaling(t *testing.T) {
	// White-box: a tuner with known regions must measure scaled diameters.
	tn := &Tuner{
		scale: []float64{2, 4},
		lo:    [][]float64{{0, 0}},
		hi:    [][]float64{{2, 4}},
	}
	if d := tn.diameter(0); math.Abs(d-math.Sqrt2) > 1e-12 {
		t.Errorf("diameter = %g, want sqrt(2)", d)
	}
}
