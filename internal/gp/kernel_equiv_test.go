package gp

import (
	"math"
	"math/rand"
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
// pair-major tensor sqd (pairMajorSqd) and one Cov.EvalR2 per pair, into
// gm. It is the reference the dim-major fill must match bit for bit.
func fillGramPairMajor(w *fitWS, g *GP, sqd, gm []float64) {
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

// pairMajorNLML returns an NLML evaluation for fit that fills a separate
// Gram buffer through fillGramPairMajor and factorises a copy of it with
// FactorizePacked, as fitWS.nlml did before it filled the factor's storage
// in place, and otherwise runs fitWS.nlml's steps.
func pairMajorNLML() func(*fitWS, *GP) float64 {
	var sqd, gram []float64
	var owner *fitWS
	return func(w *fitWS, g *GP) float64 {
		if w != owner {
			owner, gram = w, make([]float64, mat.PackedLen(w.n))
			if len(g.cov.Len) > 1 {
				sqd = pairMajorSqd(g)
			}
		}
		fillGramPairMajor(w, g, sqd, gram)
		if err := w.chol.FactorizePacked(gram, w.n, 1e-8, 6); err != nil {
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
			gram, refGram := make([]float64, mat.PackedLen(w.n)), make([]float64, mat.PackedLen(w.n))
			refNLML := pairMajorNLML()
			rng := rand.New(rand.NewSource(22))
			for trial := 0; trial < 12; trial++ {
				g.cov.Var = math.Exp(2 * rng.NormFloat64())
				for k := range g.cov.Len {
					g.cov.Len[k] = [...]float64{0.02, 8, 0.02 + 8*rng.Float64(), 0.2 + rng.Float64()}[(trial+k)%4]
				}
				g.a, g.b = math.Exp(rng.NormFloat64()), math.Exp(rng.NormFloat64())
				g.noiseT, g.noiseS = 1e-4+rng.Float64()*1e-2, 1e-4+rng.Float64()*1e-2
				w.fillGram(g, gram)
				fillGramPairMajor(ref, g, pairMajorSqd(g), refGram)
				for p := range gram {
					if !sameBits(gram[p], refGram[p]) {
						t.Fatalf("trial %d: Gram entry %d = %v, pair-major %v", trial, p, gram[p], refGram[p])
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

// TestPredictPool4MatchesPredictPool: after AttachPool, after incremental
// adds and after a refit, PredictPool4 must equal four PredictPool calls bit
// for bit for pool sizes covering every remainder mod 4, with repeated and
// out-of-order indices.
func TestPredictPool4MatchesPredictPool(t *testing.T) {
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
		g := New(RBF, 9, true)
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
						t.Fatalf("pool %d %s, candidates %v slot %d: PredictPool4 (%v, %v), PredictPool (%v, %v)",
							m, stage, p, c, mu[c], sd[c], wm, ws)
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

// TestNLMLRefillsBeforeJitterRetry drives fitWS.nlml through its jitter
// ladder: the target noise is set just below the point where the Gram
// stops being positive definite, so the first attempts fail part-way
// through the in-place factorisation and a later one succeeds. Each retry
// must start from a freshly filled Gram, so the NLML must equal, bit for
// bit, that of a separate Gram copy taken through FactorizePacked's
// ladder, as nlml ran before it filled the factor in place.
func TestNLMLRefillsBeforeJitterRetry(t *testing.T) {
	g := newEquivGP(t, 9, true, 31)
	w := newFitWS(g)
	gram := make([]float64, mat.PackedLen(w.n))
	var ch mat.Cholesky
	pd := func(noise float64, attempts int) bool {
		g.noiseT = noise
		w.fillGram(g, gram)
		return ch.FactorizePacked(gram, w.n, 1e-8, attempts) == nil
	}
	// Bisect for the target noise at which the Gram stops being positive
	// definite without jitter.
	lo, hi := 0.0, -2*g.cov.Var
	if !pd(lo, 0) || pd(hi, 0) {
		t.Fatal("bisection bounds do not bracket the loss of definiteness")
	}
	for k := 0; k < 60; k++ {
		if mid := (lo + hi) / 2; pd(mid, 0) {
			lo = mid
		} else {
			hi = mid
		}
	}
	noise := hi - 1e-5
	if pd(noise, 2) || !pd(noise, 6) {
		t.Fatalf("target noise %v: want the first three attempts to fail and a later one to succeed", noise)
	}
	g.noiseT = noise
	want := pairMajorNLML()(newFitWS(g), g)
	if math.IsInf(want, 0) {
		t.Fatal("reference NLML is infinite")
	}
	if got := w.nlml(g); !sameBits(got, want) {
		t.Fatalf("NLML %v, separate Gram %v", got, want)
	}
}

// TestNLMLAllocatesNothing backs fitWS.nlml's //ppalint:noalloc across
// the packages it calls: once the factor's storage has its size, an
// evaluation, the in-place factorisation and both solves included,
// allocates nothing.
func TestNLMLAllocatesNothing(t *testing.T) {
	g := newEquivGP(t, 12, true, 33)
	w := newFitWS(g)
	if allocs := testing.AllocsPerRun(20, func() { w.nlml(g) }); allocs != 0 {
		t.Fatalf("fitWS.nlml allocates %v times per call", allocs)
	}
}

// BenchmarkNLML times one likelihood evaluation of the transfer GP's fit
// at the campaigns' first-fit shapes: table 3's, 130 source and 10 target
// points at d = 9, and table 2's, 112 source and 28 target points (its
// 140-point subsample) at d = 12.
func BenchmarkNLML(b *testing.B) {
	for _, tc := range []struct {
		name        string
		ns, nt, dim int
	}{{"table3", 130, 10, 9}, {"table2", 112, 28, 12}} {
		b.Run(tc.name, func(b *testing.B) {
			xs, ys, xt, yt := transferSet(rand.New(rand.NewSource(41)), tc.ns, tc.nt, tc.dim)
			g := New(RBF, tc.dim, true)
			if err := g.SetSource(xs, ys); err != nil {
				b.Fatal(err)
			}
			if err := g.SetTarget(xt, yt); err != nil {
				b.Fatal(err)
			}
			g.standardise()
			for k := range g.cov.Len {
				g.cov.Len[k] = 0.4 + 0.05*float64(k)
			}
			g.noiseT, g.noiseS, g.a, g.b = 1e-2, 1e-2, 0.3, 1.2
			w := newFitWS(g)
			if math.IsInf(w.nlml(g), 0) {
				b.Fatal("NLML is infinite")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.nlml(g)
			}
		})
	}
}
