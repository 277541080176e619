package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ppatuner/internal/pareto"
)

// tri-objective synthetic problem: conflicts along both coordinates.
func synthObj3(x []float64) []float64 {
	y := synthObj(x)
	f3 := 0.5 + 0.5*(x[0]-0.5)*(x[0]-0.5) + 0.4*(1-x[1])
	return []float64{y[0], y[1], f3}
}

func TestTunerThreeObjectives(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pool := synthPool(rng, 120)
	var evals int
	tn, err := New(pool, func(i int) ([]float64, error) {
		evals++
		return synthObj3(pool[i]), nil
	}, Options{
		NumObjectives: 3,
		InitTarget:    10,
		MaxIter:       80,
		Rng:           rng,
		FitMaxEvals:   80,
		FitSubsample:  60,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tn.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ParetoIdx) == 0 {
		t.Fatal("no Pareto candidates in 3-objective run")
	}
	all := make([][]float64, len(pool))
	for i := range pool {
		all[i] = synthObj3(pool[i])
	}
	golden := pareto.FrontPoints(all)
	var approx [][]float64
	for _, i := range res.ParetoIdx {
		approx = append(approx, synthObj3(pool[i]))
	}
	if adrs := pareto.ADRS(golden, approx); adrs > 0.25 {
		t.Errorf("3-objective ADRS = %g, want <= 0.25", adrs)
	}
}

// TestGlobalSelectionDiffersFromFrontier: the vanilla PAL rule and the
// frontier-focused rule must explore different evaluation orders — the knob
// the TCAD'19 baseline depends on.
func TestGlobalSelectionDiffersFromFrontier(t *testing.T) {
	pool := synthPool(rand.New(rand.NewSource(42)), 90)
	run := func(global bool) []int {
		rng := rand.New(rand.NewSource(43))
		opt := defaultOpts(rng)
		opt.MaxIter = 25
		opt.GlobalSelection = global
		tn, err := New(pool, poolEval(pool, synthObj, nil), opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tn.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.EvaluatedIdx
	}
	a, b := run(false), run(true)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("GlobalSelection had no effect on the evaluation order")
	}
}

func TestDebugState(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	pool := synthPool(rng, 40)
	tn, err := New(pool, poolEval(pool, synthObj, nil), defaultOpts(rng))
	if err != nil {
		t.Fatal(err)
	}
	if got := tn.DebugState(); !strings.Contains(got, "not initialised") {
		t.Errorf("pre-init DebugState = %q", got)
	}
	if _, err := tn.Run(); err != nil {
		t.Fatal(err)
	}
	got := tn.DebugState()
	for _, want := range []string{"rho=", "noiseT=", "delta"} {
		if !strings.Contains(got, want) {
			t.Errorf("DebugState missing %q in:\n%s", want, got)
		}
	}

	// More objectives than the eight its width sums once had room for:
	// distances to nine centres around a circle, so every pair conflicts.
	obj9 := func(x []float64) []float64 {
		y := make([]float64, 9)
		for k := range y {
			a := 2 * math.Pi * float64(k) / 9
			dx, dy := x[0]-0.5-0.4*math.Cos(a), x[1]-0.5-0.4*math.Sin(a)
			y[k] = dx*dx + dy*dy
		}
		return y
	}
	opt := defaultOpts(rng)
	opt.NumObjectives = 9
	opt.MaxIter = 1
	tn, err = New(pool, poolEval(pool, obj9, nil), opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Run(); err != nil {
		t.Fatal(err)
	}
	if got := tn.DebugState(); !strings.Contains(got, "obj 8: avg region width") {
		t.Errorf("9-objective DebugState has no width line for objective 8:\n%s", got)
	}
}

// TestStatusAccounting: every candidate ends in exactly one of the three
// states, and dropped candidates never appear in the result set.
func TestStatusAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	pool := synthPool(rng, 100)
	opt := defaultOpts(rng)
	opt.MaxIter = 400
	tn, err := New(pool, poolEval(pool, synthObj, nil), opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tn.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Status) != len(pool) {
		t.Fatalf("status length %d != pool %d", len(res.Status), len(pool))
	}
	inResult := map[int]bool{}
	for _, i := range res.ParetoIdx {
		inResult[i] = true
	}
	for i, s := range res.Status {
		if s == Dropped && inResult[i] {
			// A dropped candidate can only be returned if it was evaluated
			// and proved non-dominated (golden values beat the regions).
			found := false
			for _, e := range res.EvaluatedIdx {
				if e == i {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("unevaluated dropped candidate %d in result", i)
			}
		}
	}
}

// TestRunsNeverExceedBudget holds across option combinations.
func TestRunsNeverExceedBudget(t *testing.T) {
	for _, batch := range []int{1, 3} {
		rng := rand.New(rand.NewSource(46))
		pool := synthPool(rng, 70)
		opt := defaultOpts(rng)
		opt.MaxIter = 20
		opt.Batch = batch
		tn, err := New(pool, poolEval(pool, synthObj, nil), opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tn.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Runs > opt.InitTarget+opt.MaxIter*batch {
			t.Errorf("batch=%d: %d runs exceed budget %d", batch, res.Runs, opt.InitTarget+opt.MaxIter*batch)
		}
	}
}

// TestRefitWhenBatchStepsOverSchedule drives the tuner loop by hand from
// an 8-point initial design, so the first refit is scheduled at 28
// evaluations. With Batch 1 the count reaches 28 exactly and refits
// there; with Batch 3 it runs 26, 29 and must refit once, at 29, instead
// of skipping the refit. A refit must move the fitted hyper-parameters.
func TestRefitWhenBatchStepsOverSchedule(t *testing.T) {
	for _, tc := range []struct{ batch, want int }{{1, 28}, {3, 29}} {
		pool := synthPool(rand.New(rand.NewSource(51)), 203)
		opt := defaultOpts(rand.New(rand.NewSource(52)))
		opt.Batch = tc.batch
		tn, err := New(pool, poolEval(pool, synthObj, nil), opt)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if err := tn.initialise(ctx); err != nil {
			t.Fatal(err)
		}
		if len(tn.evaluated) != 8 || tn.refitAt[0] != 28 {
			t.Fatalf("batch %d: initial design of %d points, first refit at %d; want 8 and 28", tc.batch, len(tn.evaluated), tn.refitAt[0])
		}
		var refits []int
		for len(tn.evaluated) < 40 {
			tn.updateRegions()
			tn.decide()
			picks := tn.selectBatch()
			if !tn.anyUndecided() || len(picks) == 0 {
				t.Fatalf("batch %d: the run stopped at %d evaluations", tc.batch, len(tn.evaluated))
			}
			if err := tn.observeBatch(ctx, picks); err != nil {
				t.Fatal(err)
			}
			pending, before := len(tn.refitAt), tn.gps[0].Cov().Clone()
			if err := tn.maybeRefit(); err != nil {
				t.Fatal(err)
			}
			if len(tn.refitAt) < pending {
				refits = append(refits, len(tn.evaluated))
				if after := tn.gps[0].Cov(); after.Var == before.Var && slices.Equal(after.Len, before.Len) {
					t.Fatalf("batch %d: refit at %d left the hyper-parameters as they were", tc.batch, len(tn.evaluated))
				}
			}
		}
		if !slices.Equal(refits, []int{tc.want}) {
			t.Errorf("batch %d: refits at evaluation counts %v, want [%d]", tc.batch, refits, tc.want)
		}
	}
}
