package gp

import (
	"math"
	"math/rand"
	"testing"

	"ppatuner/internal/mat"
	"ppatuner/internal/simd"
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
// pair-major tensor sqd (pairMajorSqd), the RBF transform one Cov.EvalR2
// per pair, the Matérn transform through the same simd kernels as today.
// It is the reference the dim-major fill must match bit for bit.
func fillGramPairMajor(w *fitWS, g *GP, sqd []float64) {
	np := mat.PackedLen(w.n)
	gm := w.gram
	vr := g.cov.Var
	if w.ard {
		inv2 := make([]float64, w.d)
		for k, l := range g.cov.Len {
			inv2[k] = 1 / (l * l)
		}
		d := w.d
		switch g.cov.Kind {
		case Matern52:
			simd.Matern52ARD(gm[:np], sqd, inv2, vr)
		default:
			for p := 0; p < np; p++ {
				row := sqd[p*d : p*d+d : p*d+d]
				var r2 float64
				for k := 0; k < d; k++ {
					r2 += float64(row[k] * inv2[k])
				}
				gm[p] = g.cov.EvalR2(r2)
			}
		}
	} else {
		inv2 := 1 / (g.cov.Len[0] * g.cov.Len[0])
		switch g.cov.Kind {
		case Matern52:
			for p, s := range w.r2raw {
				gm[p] = s * inv2
			}
			simd.Matern52FromR2(gm[:np], vr)
		default:
			for p, s := range w.r2raw {
				gm[p] = g.cov.EvalR2(s * inv2)
			}
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
		if w != owner && w.ard {
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
// ARD at the paper's 12 and 9 knobs, isotropic RBF (the TCAD'19 and
// MLCAD'19 surrogates), and the unchanged Matérn ARD and isotropic paths.
var kernelCases = []struct {
	name string
	kind CovKind
	dim  int
	ard  bool
}{
	{"rbf-ard-12", RBF, 12, true},
	{"rbf-ard-9", RBF, 9, true},
	{"rbf-iso-3", RBF, 3, false},
	{"matern-ard-8", Matern52, 8, true},
	{"matern-iso-3", Matern52, 3, false},
}

// newEquivGP builds a transfer GP over a fixed synthetic data set.
func newEquivGP(t *testing.T, kind CovKind, dim int, ard bool, seed int64) *GP {
	t.Helper()
	xs, ys, xt, yt := transferSet(rand.New(rand.NewSource(seed)), 36, 21, dim)
	g := New(kind, dim, ard)
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
			g := newEquivGP(t, tc.kind, tc.dim, tc.ard, 21)
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
			got := newEquivGP(t, tc.kind, tc.dim, tc.ard, 23)
			want := newEquivGP(t, tc.kind, tc.dim, tc.ard, 23)
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

// TestKvecIntoMatchesEval: the batched kernel column (all r² first, one
// transform, then ρ on the source block) must equal ρ·Cov.Eval and
// Cov.Eval per training point bit for bit, near and far from the data.
func TestKvecIntoMatchesEval(t *testing.T) {
	for _, tc := range kernelCases {
		g := newEquivGP(t, tc.kind, tc.dim, tc.ard, 24)
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
