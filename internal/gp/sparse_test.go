package gp

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

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

// TestSparseMatchesExactWhenSaturated: with the inducing budget covering the
// whole training set, the DTC posterior degenerates to the exact GP (up to
// the 1e-8 jitter), so predictions must agree closely.
func TestSparseMatchesExactWhenSaturated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs, ys, xt, yt := transferSet(rng, 25, 20, 3)

	exact := New(RBF, 3, true)
	sparse := NewSparse(RBF, 3, true, 100, 9)
	for _, m := range []Model{exact, sparse} {
		if err := m.SetSource(xs, ys); err != nil {
			t.Fatal(err)
		}
		if err := m.SetTarget(xt, yt); err != nil {
			t.Fatal(err)
		}
		if err := m.Rebuild(); err != nil {
			t.Fatal(err)
		}
	}
	if got := sparse.NInducing(); got != 45 {
		t.Fatalf("NInducing = %d, want all 45 training points", got)
	}
	for i := 0; i < 40; i++ {
		xq := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		muE, sdE := exact.Predict(xq)
		muS, sdS := sparse.Predict(xq)
		if math.Abs(muE-muS) > 1e-4*(1+math.Abs(muE)) {
			t.Errorf("query %d: mean exact %g sparse %g", i, muE, muS)
		}
		if math.Abs(sdE-sdS) > 1e-3*(1+sdE) {
			t.Errorf("query %d: sd exact %g sparse %g", i, sdE, sdS)
		}
	}
	// The NLML surfaces must agree too (same hypers, saturated budget).
	if e, s := exact.NLML(), sparse.NLML(); math.Abs(e-s) > 1e-2*(1+math.Abs(e)) {
		t.Errorf("NLML exact %g sparse %g", e, s)
	}
}

// TestSparseApproximatesExact: with m < n the sparse posterior mean should
// still track the exact GP over the data region.
func TestSparseApproximatesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	xs, ys, xt, yt := transferSet(rng, 120, 90, 3)

	exact := New(RBF, 3, true)
	sparse := NewSparse(RBF, 3, true, 48, 17)
	for _, m := range []Model{exact, sparse} {
		if err := m.SetSource(xs, ys); err != nil {
			t.Fatal(err)
		}
		if err := m.SetTarget(xt, yt); err != nil {
			t.Fatal(err)
		}
		if err := m.Rebuild(); err != nil {
			t.Fatal(err)
		}
	}
	var num, den float64
	for i := 0; i < 80; i++ {
		xq := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		muE, _ := exact.Predict(xq)
		muS, _ := sparse.Predict(xq)
		d := muE - muS
		num += d * d
		den += muE * muE
	}
	if rel := math.Sqrt(num / den); rel > 0.05 {
		t.Errorf("relative mean error %.3f, want < 0.05", rel)
	}
}

// TestSparseAddTargetIncrementalMatchesRebuild: once the budget is saturated
// the Sherman–Morrison fast path must produce the same pool posterior as a
// from-scratch accumulation with the same inducing set and standardisation.
func TestSparseAddTargetIncrementalMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs, ys, xt, yt := transferSet(rng, 80, 60, 3)
	pool := make([][]float64, 40)
	for i := range pool {
		pool[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}

	inc := NewSparse(RBF, 3, true, 32, 5)
	if err := inc.SetSource(xs, ys); err != nil {
		t.Fatal(err)
	}
	if err := inc.SetTarget(xt, yt); err != nil {
		t.Fatal(err)
	}
	if err := inc.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := inc.AttachPool(pool); err != nil {
		t.Fatal(err)
	}
	// Reference model gets the same data pre-appended, then copies inc's
	// standardisation and inducing state by rebuilding with identical inputs.
	added := make([][]float64, 6)
	addY := make([]float64, 6)
	for i := range added {
		added[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		addY[i] = math.Sin(3*added[i][0]) + 0.4
		if err := inc.AddTarget(added[i], addY[i]); err != nil {
			t.Fatal(err)
		}
	}
	// inc standardisation constants are frozen at the last Rebuild; replay
	// the same sequence through a fresh model whose saturation point matches,
	// then compare against an explicit final Rebuild of a third model only
	// for the mean (standardisation drifts are expected to be tiny here).
	ref := NewSparse(RBF, 3, true, 32, 5)
	if err := ref.SetSource(xs, ys); err != nil {
		t.Fatal(err)
	}
	if err := ref.SetTarget(append(append([][]float64{}, xt...), added...), append(append([]float64{}, yt...), addY...)); err != nil {
		t.Fatal(err)
	}
	if err := ref.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := ref.AttachPool(pool); err != nil {
		t.Fatal(err)
	}
	for p := range pool {
		muI, sdI := inc.PredictPool(p)
		muR, sdR := ref.PredictPool(p)
		// Incremental updates keep the inducing set and standardisation of
		// the last rebuild, so agreement is approximate, not bitwise.
		if math.Abs(muI-muR) > 0.05*(1+math.Abs(muR)) {
			t.Errorf("pool %d: mean incremental %g rebuild %g", p, muI, muR)
		}
		if math.Abs(sdI-sdR) > 0.1*(1+sdR) {
			t.Errorf("pool %d: sd incremental %g rebuild %g", p, muI, sdR)
			_ = sdI
		}
	}
}

// TestSparseAddTargetGrowsInducingSetWhileUnsaturated: below the budget every
// add rebuilds, so the new point becomes a candidate inducing point and the
// approximation stays exact.
func TestSparseAddTargetGrowsInducingSetWhileUnsaturated(t *testing.T) {
	s := NewSparse(RBF, 2, true, 16, 3)
	if err := s.SetTarget([][]float64{{0.1, 0.2}, {0.8, 0.4}}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 6; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		if err := s.AddTarget(x, rng.Float64()); err != nil {
			t.Fatal(err)
		}
		if got, want := s.NInducing(), s.NTarget(); got != want {
			t.Fatalf("after add %d: NInducing = %d, want %d (unsaturated adds rebuild)", i, got, want)
		}
		// Unsaturated DTC is exact: training points must be interpolated
		// tightly relative to prior uncertainty.
		mu, _ := s.Predict(x)
		if math.IsNaN(mu) {
			t.Fatalf("NaN prediction after add %d", i)
		}
	}
}

// TestSparseDeterministic: identical construction and data must give
// bit-identical predictions, for any worker count.
func TestSparseDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	xs, ys, xt, yt := transferSet(rng, 50, 40, 3)
	pool := make([][]float64, 25)
	for i := range pool {
		pool[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	build := func(workers int) []float64 {
		s := NewSparse(RBF, 3, true, 24, 21)
		s.SetWorkers(workers)
		if err := s.SetSource(xs, ys); err != nil {
			t.Fatal(err)
		}
		if err := s.SetTarget(xt, yt); err != nil {
			t.Fatal(err)
		}
		if err := s.Fit(FitOptions{MaxEvals: 60}); err != nil {
			t.Fatal(err)
		}
		if err := s.AttachPool(pool); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 0, 2*len(pool))
		for p := range pool {
			mu, sd := s.PredictPool(p)
			out = append(out, mu, sd)
		}
		return out
	}
	a := build(1)
	for _, w := range []int{2, 7} {
		b := build(w)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("workers=%d: prediction %d differs bitwise: %v vs %v", w, i, a[i], b[i])
			}
		}
	}
}

// TestSparseSeedChangesSelection: different selection seeds start the
// farthest-point walk elsewhere, which must show up in the inducing indices.
func TestSparseSeedChangesSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xt := make([][]float64, 60)
	yt := make([]float64, 60)
	for i := range xt {
		xt[i] = []float64{rng.Float64(), rng.Float64()}
		yt[i] = rng.Float64()
	}
	idx := func(seed uint64) []int {
		s := NewSparse(RBF, 2, true, 12, seed)
		if err := s.SetTarget(xt, yt); err != nil {
			t.Fatal(err)
		}
		if err := s.Rebuild(); err != nil {
			t.Fatal(err)
		}
		return s.InducingIdx()
	}
	a, b := idx(1), idx(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 1 and 2 selected identical inducing sets (expected different walks)")
	}
}

// TestSparseFitImprovesNLML: Fit must not end on worse hyper-parameters than
// it started with.
func TestSparseFitImprovesNLML(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	xs, ys, xt, yt := transferSet(rng, 60, 50, 3)
	s := NewSparse(RBF, 3, true, 32, 13)
	if err := s.SetSource(xs, ys); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTarget(xt, yt); err != nil {
		t.Fatal(err)
	}
	before := s.NLML()
	if err := s.Fit(FitOptions{MaxEvals: 150}); err != nil {
		t.Fatal(err)
	}
	after := s.NLML()
	if after > before+1e-6 {
		t.Errorf("Fit worsened NLML: before %g after %g", before, after)
	}
	// Fitted model should regress the target function decently.
	var mse float64
	const nq = 40
	for i := 0; i < nq; i++ {
		xq := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		want := 0.4
		for k, v := range xq {
			want += math.Sin(3*v+float64(k)) + 0.3*v*v
		}
		mu, _ := s.Predict(xq)
		d := mu - want
		mse += d * d
	}
	mse /= nq
	if mse > 0.05 {
		t.Errorf("post-fit MSE %g, want < 0.05", mse)
	}
}

// TestSparseRhoCarriedOver: with a strongly correlated source the fitted ρ
// must be meaningfully positive and shared across the cross blocks, improving
// predictions versus ignoring the source entirely.
func TestSparseRhoCarriedOver(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	xs, ys, xt, yt := transferSet(rng, 100, 12, 2)
	s := NewSparse(RBF, 2, true, 48, 19)
	if err := s.SetSource(xs, ys); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTarget(xt, yt); err != nil {
		t.Fatal(err)
	}
	if err := s.Fit(FitOptions{MaxEvals: 200}); err != nil {
		t.Fatal(err)
	}
	if rho := s.Rho(); rho < 0.2 {
		t.Errorf("fitted rho = %g, want clearly positive for a correlated source", rho)
	}
	if math.Abs(s.Rho()-TransferFactor(s.a, s.b)) > 1e-12 {
		t.Error("Rho() disagrees with TransferFactor(a, b)")
	}
}

// TestSparseSpeedup is the wall-clock acceptance sanity check: at n≈1000 a
// sparse:64 refit must be several times faster than the exact solver. The
// formal ≥5× bar is enforced on the recorded gpbench numbers; this test uses
// a lenient 2.5× so CI machines with noisy clocks do not flake.
func TestSparseSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	rng := rand.New(rand.NewSource(15))
	xs, ys, xt, yt := transferSet(rng, 500, 500, 8)
	run := func(m Model) time.Duration {
		if err := m.SetSource(xs, ys); err != nil {
			t.Fatal(err)
		}
		if err := m.SetTarget(xt, yt); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if err := m.Fit(FitOptions{MaxEvals: 40}); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	exact := run(New(RBF, 8, true))
	sparse := run(NewSparse(RBF, 8, true, 64, 23))
	t.Logf("exact fit %v, sparse:64 fit %v (%.1fx)", exact, sparse, float64(exact)/float64(sparse))
	if float64(exact) < 2.5*float64(sparse) {
		t.Errorf("sparse fit %v not >= 2.5x faster than exact %v", sparse, exact)
	}
}

// --- SelectInducing (satellite: direct unit tests) ---

func TestSelectInducingDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	x := make([][]float64, 40)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	lens := []float64{0.5, 1.0, 2.0}
	a, err := SelectInducing(x, lens, 10, 77)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SelectInducing(x, lens, 10, 77)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("selection not deterministic: %v vs %v", a, b)
		}
	}
	if a[0] != 77%40 {
		t.Errorf("walk started at %d, want seed %% n = %d", a[0], 77%40)
	}
	seen := map[int]bool{}
	for _, i := range a {
		if seen[i] {
			t.Fatalf("duplicate index %d in %v", i, a)
		}
		seen[i] = true
	}
}

// TestSelectInducingFarthestPoint verifies the greedy max-min property on a
// hand-built 1-D set: from the start, each pick is the point farthest from
// everything already selected.
func TestSelectInducingFarthestPoint(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}, {3}, {10}}
	idx, err := SelectInducing(x, []float64{1}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Start at 0 (seed 0), farthest is 10 (index 4), then the point farthest
	// from {0, 10} is 3 (index 3, min-dist 9) over 2 (min-dist 4).
	want := []int{0, 4, 3}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("selection order %v, want %v", idx, want)
		}
	}
}

// TestSelectInducingTiesPickLowestIndex: equidistant candidates resolve to
// the lowest index, keeping selection platform-independent.
func TestSelectInducingTiesPickLowestIndex(t *testing.T) {
	x := [][]float64{{0}, {1}, {-1}, {1}}
	idx, err := SelectInducing(x, []float64{1}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if idx[1] != 1 {
		t.Errorf("tie broke to index %d, want lowest index 1 among {1, 2, 3}", idx[1])
	}
}

func TestSelectInducingARDMetric(t *testing.T) {
	// With a tiny lengthscale on dim 1, separation along dim 1 dominates:
	// the second pick must be the dim-1 outlier, not the dim-0 outlier.
	x := [][]float64{{0, 0}, {5, 0}, {0, 1}}
	idx, err := SelectInducing(x, []float64{10, 0.1}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if idx[1] != 2 {
		t.Errorf("ARD metric ignored: picked %d, want 2", idx[1])
	}
}

func TestSelectInducingErrors(t *testing.T) {
	x := [][]float64{{0, 0}, {1, 1}}
	if _, err := SelectInducing(nil, []float64{1}, 1, 0); err == nil {
		t.Error("want error on empty point set")
	}
	if _, err := SelectInducing(x, []float64{1}, 0, 0); err == nil {
		t.Error("want error on m = 0")
	}
	if _, err := SelectInducing(x, []float64{1}, 3, 0); err == nil {
		t.Error("want error on m > n")
	}
	if _, err := SelectInducing(x, []float64{1, 2, 3}, 1, 0); err == nil {
		t.Error("want error on lengthscale count mismatch")
	}
}

// --- Spec / ParseSpec ---

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
		ok   bool
	}{
		{"", Spec{}, true},
		{"exact", Spec{}, true},
		{"sparse", Spec{Sparse: true, M: DefaultSparseM}, true},
		{"sparse:16", Spec{Sparse: true, M: 16}, true},
		{"sparse:1", Spec{Sparse: true, M: 1}, true},
		{"sparse:0", Spec{}, false},
		{"sparse:-3", Spec{}, false},
		{"sparse:x", Spec{}, false},
		{"dense", Spec{}, false},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseSpec(%q): err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestSpecString(t *testing.T) {
	if got := (Spec{}).String(); got != "exact" {
		t.Errorf("exact spec renders %q", got)
	}
	if got := (Spec{Sparse: true}).String(); got != "sparse:64" {
		t.Errorf("default sparse spec renders %q", got)
	}
	if got := (Spec{Sparse: true, M: 12}).String(); got != "sparse:12" {
		t.Errorf("sparse:12 spec renders %q", got)
	}
}

// FuzzParseSpec: ParseSpec, behind the -gp flag and a served job's gp
// field, never panics, and an accepted spec renders (String) to text that
// parses back to the same Spec.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseSpec(in)
		if err != nil {
			return
		}
		if spec.Sparse != (spec.M >= 1) || spec.Seed != 0 {
			t.Fatalf("ParseSpec(%q) = %+v", in, spec)
		}
		again, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q) = %+v, but its String %q fails: %v", in, spec, spec.String(), err)
		}
		if again != spec {
			t.Fatalf("ParseSpec(%q) = %+v, but its String %q parses to %+v", in, spec, spec.String(), again)
		}
	})
}

func TestSpecNew(t *testing.T) {
	if _, ok := (Spec{}).New(RBF, 3, true).(*GP); !ok {
		t.Error("exact spec did not build *GP")
	}
	m, ok := (Spec{Sparse: true, M: 7, Seed: 3}).New(RBF, 3, true).(*SparseGP)
	if !ok {
		t.Fatal("sparse spec did not build *SparseGP")
	}
	if m.m != 7 || m.seed != 3 {
		t.Errorf("sparse spec budget/seed = %d/%d, want 7/3", m.m, m.seed)
	}
}

// --- subsampled (satellite: direct unit tests for the exact GP's Fit helper) ---

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
