package gp

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"ppatuner/internal/mat"
)

// pairMajorSqd is the ARD squared-difference tensor in the pair-major
// layout the fit workspace used for every kernel before the RBF kernels:
// sqd[p*d+k] = (x_i[k]-x_j[k])² for packed pair p = (i,j), j ≤ i.
func pairMajorSqd(g *GP) []float64 {
	n := g.N()
	sqd := make([]float64, 0, mat.PackedLen(n)*g.dim)
	for i := 0; i < n; i++ {
		xi, _ := g.trainX(i)
		for j := 0; j <= i; j++ {
			xj, _ := g.trainX(j)
			for k := range xi {
				dk := xi[k] - xj[k]
				sqd = append(sqd, dk*dk)
			}
		}
	}
	return sqd
}

// fillGramPairMajor is fitWS.fillGram as it was before the RBF kernels: a
// pair-major tensor sqd (pairMajorSqd) and one Cov.EvalR2 per pair. It is
// the reference the dim-major fill must match bit for bit.
func fillGramPairMajor(w *fitWS, g *GP, sqd []float64) {
	gm := w.gram
	if len(g.cov.Len) > 1 {
		d := g.dim
		inv2 := make([]float64, d)
		for k, l := range g.cov.Len {
			inv2[k] = 1 / (l * l)
		}
		for p := range gm {
			row := sqd[p*d : p*d+d : p*d+d]
			var r2 float64
			for k := 0; k < d; k++ {
				r2 += float64(row[k] * inv2[k])
			}
			gm[p] = g.cov.EvalR2(r2)
		}
	} else {
		inv2 := 1 / (g.cov.Len[0] * g.cov.Len[0])
		for p, s := range w.dist {
			gm[p] = g.cov.EvalR2(s * inv2)
		}
	}
	if g.hasSource {
		if rho := TransferFactor(g.a, g.b); rho != 1 {
			for i := w.ns; i < w.n; i++ {
				off := mat.PackedLen(i)
				seg := gm[off : off+w.ns]
				for k := range seg {
					seg[k] *= rho
				}
			}
		}
	}
	for i := 0; i < w.n; i++ {
		di := mat.PackedLen(i) + i
		if i < w.ns {
			gm[di] += g.noiseS + 1e-8
		} else {
			gm[di] += g.noiseT + 1e-8
		}
	}
}

// pairMajorNLML returns an NLML evaluation for fit that fills the Gram
// through fillGramPairMajor and otherwise runs fitWS.nlml's steps.
func pairMajorNLML() func(*fitWS, *GP) float64 {
	var sqd []float64
	var owner *fitWS
	return func(w *fitWS, g *GP) float64 {
		if w != owner && len(g.cov.Len) > 1 {
			sqd, owner = pairMajorSqd(g), w
		}
		fillGramPairMajor(w, g, sqd)
		if err := w.chol.FactorizePacked(w.gram, w.n, 1e-8, 6); err != nil {
			return math.Inf(1)
		}
		w.chol.SolveInto(w.alpha, w.y)
		return 0.5*mat.Dot(w.y, w.alpha) + 0.5*w.chol.LogDet() + 0.5*float64(w.n)*log2pi
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// kernelCases are the covariance set-ups the equivalence tests cover: RBF
// ARD at the paper's 12 and 9 knobs, and isotropic RBF (the TCAD'19 and
// MLCAD'19 surrogates).
var kernelCases = []struct {
	name string
	dim  int
	ard  bool
}{
	{"rbf-ard-12", 12, true},
	{"rbf-ard-9", 9, true},
	{"rbf-iso-3", 3, false},
}

// newEquivGP builds a transfer GP over a fixed synthetic data set.
func newEquivGP(t *testing.T, dim int, ard bool, seed int64) *GP {
	t.Helper()
	xs, ys, xt, yt := transferSet(rand.New(rand.NewSource(seed)), 36, 21, dim)
	g := New(RBF, dim, ard)
	if err := g.SetSource(xs, ys); err != nil {
		t.Fatal(err)
	}
	if err := g.SetTarget(xt, yt); err != nil {
		t.Fatal(err)
	}
	g.standardise()
	return g
}

// TestFillGramMatchesPairMajor: the dim-major RBF fill (simd.RBFARD and
// simd.RBFFromR2) must reproduce the pair-major scalar fill bit for bit,
// Gram and NLML, including lengthscales at the fit's limits 0.02 and 8,
// where many pairs leave the vector kernels' exponent range.
func TestFillGramMatchesPairMajor(t *testing.T) {
	for _, tc := range kernelCases {
		t.Run(tc.name, func(t *testing.T) {
			g := newEquivGP(t, tc.dim, tc.ard, 21)
			w := newFitWS(g)
			ref := newFitWS(g)
			refNLML := pairMajorNLML()
			rng := rand.New(rand.NewSource(22))
			for trial := 0; trial < 12; trial++ {
				g.cov.Var = math.Exp(2 * rng.NormFloat64())
				for k := range g.cov.Len {
					g.cov.Len[k] = [...]float64{0.02, 8, 0.02 + 8*rng.Float64(), 0.2 + rng.Float64()}[(trial+k)%4]
				}
				g.a, g.b = math.Exp(rng.NormFloat64()), math.Exp(rng.NormFloat64())
				g.noiseT, g.noiseS = 1e-4+rng.Float64()*1e-2, 1e-4+rng.Float64()*1e-2
				w.fillGram(g)
				fillGramPairMajor(ref, g, pairMajorSqd(g))
				for p := range w.gram {
					if !sameBits(w.gram[p], ref.gram[p]) {
						t.Fatalf("trial %d: Gram entry %d = %v, pair-major %v", trial, p, w.gram[p], ref.gram[p])
					}
				}
				if got, want := w.nlml(g), refNLML(ref, g); !sameBits(got, want) {
					t.Fatalf("trial %d: NLML %v, pair-major %v", trial, got, want)
				}
			}
		})
	}
}

// TestFitMatchesPairMajor: a whole Fit — every Nelder–Mead step, on the
// full data and on a stride subsample — must land on bitwise-equal
// hyper-parameters whether the NLML comes from the workspace or from the
// pair-major reference fill.
func TestFitMatchesPairMajor(t *testing.T) {
	for _, tc := range kernelCases {
		for _, sub := range []int{0, 40} {
			got := newEquivGP(t, tc.dim, tc.ard, 23)
			want := newEquivGP(t, tc.dim, tc.ard, 23)
			opts := FitOptions{MaxEvals: 90, Subsample: sub}
			if err := got.Fit(opts); err != nil {
				t.Fatal(err)
			}
			if err := want.fit(opts, pairMajorNLML()); err != nil {
				t.Fatal(err)
			}
			hg := append(got.cov.hyper(), got.noiseT, got.noiseS, got.a, got.b)
			hw := append(want.cov.hyper(), want.noiseT, want.noiseS, want.a, want.b)
			for i := range hg {
				if !sameBits(hg[i], hw[i]) {
					t.Fatalf("%s subsample %d: hyper-parameter %d = %v, pair-major fit %v", tc.name, sub, i, hg[i], hw[i])
				}
			}
			if g, w := got.NLML(), want.NLML(); !sameBits(g, w) {
				t.Fatalf("%s subsample %d: fitted NLML %v, pair-major fit %v", tc.name, sub, g, w)
			}
		}
	}
}

// fillCovPerEntry is sparseFitWS.fillCov computed entry by entry from the
// training inputs and the inducing indices idx (ascending): each entry is
// Cov.EvalR2 of r² = Σ_k float64(d_k²·(1/ℓ_k²)) (ARD) or (Σ_k d_k²)·(1/ℓ²)
// (isotropic), every square and product rounded by float64(), times ρ when
// the pair crosses tasks, plus the jitter on K_uu's diagonal. It returns
// packed K_uu and row-major K_fu.
func fillCovPerEntry(s *SparseGP, idx []int) (kuu, kfu []float64) {
	n := s.N()
	x := make([][]float64, n)
	for i := range x {
		x[i], _ = s.trainX(i)
	}
	rho := TransferFactor(s.a, s.b)
	k := func(i, j int) float64 {
		var r2 float64
		if len(s.cov.Len) > 1 {
			for d, l := range s.cov.Len {
				dk := x[i][d] - x[j][d]
				r2 += float64(float64(dk*dk) * (1 / (l * l)))
			}
		} else {
			var raw float64
			for d := range x[i] {
				dk := x[i][d] - x[j][d]
				raw += float64(dk * dk)
			}
			r2 = raw * (1 / (s.cov.Len[0] * s.cov.Len[0]))
		}
		v := s.cov.EvalR2(r2)
		if (i < len(s.xs)) != (j < len(s.xs)) {
			v *= rho
		}
		return v
	}
	for a, i := range idx {
		for _, j := range idx[:a] {
			kuu = append(kuu, k(i, j))
		}
		kuu = append(kuu, k(i, i)+1e-8)
	}
	for i := 0; i < n; i++ {
		for _, j := range idx {
			kfu = append(kfu, k(i, j))
		}
	}
	return kuu, kfu
}

// TestSparseFillCovMatchesPerEntry: the sparse fit workspace's K_uu and
// K_fu fills (one dim-major cache, simd.RBFARD and simd.RBFFromR2) must
// equal the per-entry reference bit for bit, ARD and isotropic, with and
// without a source task, including lengthscales at the fit's limits 0.02
// and 8.
func TestSparseFillCovMatchesPerEntry(t *testing.T) {
	for _, tc := range kernelCases {
		for _, withSource := range []bool{true, false} {
			rng := rand.New(rand.NewSource(27))
			xs, ys, xt, yt := transferSet(rng, 36, 21, tc.dim)
			s := NewSparse(RBF, tc.dim, tc.ard, 16, 5)
			if withSource {
				if err := s.SetSource(xs, ys); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.SetTarget(xt, yt); err != nil {
				t.Fatal(err)
			}
			s.standardise()
			w, err := newSparseFitWS(s)
			if err != nil {
				t.Fatal(err)
			}
			all := make([][]float64, s.N())
			for i := range all {
				all[i], _ = s.trainX(i)
			}
			idx, err := SelectInducing(all, s.cov.Len, w.m, s.seed)
			if err != nil {
				t.Fatal(err)
			}
			sort.Ints(idx)
			for trial := 0; trial < 12; trial++ {
				s.cov.Var = math.Exp(2 * rng.NormFloat64())
				for k := range s.cov.Len {
					s.cov.Len[k] = [...]float64{0.02, 8, 0.02 + 8*rng.Float64(), 0.2 + rng.Float64()}[(trial+k)%4]
				}
				s.a, s.b = math.Exp(rng.NormFloat64()), math.Exp(rng.NormFloat64())
				w.fillCov(s)
				kuu, kfu := fillCovPerEntry(s, idx)
				if len(kuu) != len(w.kuu) || len(kfu) != len(w.kfu) {
					t.Fatalf("%s source=%v: workspace holds %d K_uu and %d K_fu entries, reference %d and %d",
						tc.name, withSource, len(w.kuu), len(w.kfu), len(kuu), len(kfu))
				}
				for p := range kuu {
					if !sameBits(w.kuu[p], kuu[p]) {
						t.Fatalf("%s source=%v trial %d: K_uu entry %d = %v, per-entry %v", tc.name, withSource, trial, p, w.kuu[p], kuu[p])
					}
				}
				for p := range kfu {
					if !sameBits(w.kfu[p], kfu[p]) {
						t.Fatalf("%s source=%v trial %d: K_fu entry %d = %v, per-entry %v", tc.name, withSource, trial, p, w.kfu[p], kfu[p])
					}
				}
			}
		}
	}
}

// TestKvecIntoMatchesEval: the batched kernel column (all r² first, one
// transform, then ρ on the source block) must equal ρ·Cov.Eval and
// Cov.Eval per training point bit for bit, near and far from the data.
func TestKvecIntoMatchesEval(t *testing.T) {
	for _, tc := range kernelCases {
		g := newEquivGP(t, tc.dim, tc.ard, 24)
		rng := rand.New(rand.NewSource(25))
		g.a, g.b = 0.7, 1.3
		rho := g.Rho()
		dst := make([]float64, g.N())
		for trial := 0; trial < 20; trial++ {
			for k := range g.cov.Len {
				g.cov.Len[k] = [...]float64{0.02, 8, 0.05 + rng.Float64()}[(trial+k)%3]
			}
			g.cov.Var = 0.1 + 3*rng.Float64()
			x := make([]float64, tc.dim)
			for k := range x {
				x[k] = 3*rng.Float64() - 1
			}
			g.kvecInto(x, dst, rho)
			for i := range dst {
				xi, src := g.trainX(i)
				want := g.cov.Eval(x, xi)
				if src {
					want = rho * want
				}
				if !sameBits(dst[i], want) {
					t.Fatalf("%s trial %d point %d: kvecInto %v, Cov.Eval %v", tc.name, trial, i, dst[i], want)
				}
			}
		}
	}
}

// TestPredictPool4MatchesPredictPool: on exact and sparse models, after
// AttachPool, after incremental adds and after a refit, PredictPool4 must
// equal four PredictPool calls bit for bit for pool sizes covering every
// remainder mod 4, with repeated and out-of-order indices.
func TestPredictPool4MatchesPredictPool(t *testing.T) {
	for _, spec := range []Spec{{}, {Sparse: true, M: 16, Seed: 3}} {
		for _, m := range []int{1, 4, 5, 203} {
			rng := rand.New(rand.NewSource(26))
			xs, ys, xt, yt := transferSet(rng, 30, 12, 9)
			pool := make([][]float64, m)
			for i := range pool {
				pool[i] = make([]float64, 9)
				for k := range pool[i] {
					pool[i][k] = rng.Float64()
				}
			}
			g := spec.New(RBF, 9, true)
			g.SetWorkers(3)
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
			check := func(stage string) {
				for s := 0; s < m; s++ {
					p := [4]int{s, (s + 3) % m, (s + 1) % m, s}
					mu, sd := g.PredictPool4(p)
					for c, pc := range p {
						wm, ws := g.PredictPool(pc)
						if !sameBits(mu[c], wm) || !sameBits(sd[c], ws) {
							t.Fatalf("%s pool %d %s, candidates %v slot %d: PredictPool4 (%v, %v), PredictPool (%v, %v)",
								spec, m, stage, p, c, mu[c], sd[c], wm, ws)
						}
					}
				}
			}
			check("after AttachPool")
			for i := 0; i < 5; i++ {
				x := make([]float64, 9)
				for k := range x {
					x[k] = rng.Float64()
				}
				if err := g.AddTarget(x, rng.NormFloat64()); err != nil {
					t.Fatal(err)
				}
			}
			check("after AddTarget")
			if err := g.Fit(FitOptions{MaxEvals: 40}); err != nil {
				t.Fatal(err)
			}
			check("after refit")
		}
	}
}
