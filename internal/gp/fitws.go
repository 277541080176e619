package gp

import (
	"math"

	"ppatuner/internal/mat"
)

// fitWS is the scratch space behind the Nelder–Mead NLML loop in Fit. The
// training inputs are fixed for the duration of a Fit call, so everything
// about them that the hyper-parameters cannot change is computed once here:
// the pairwise squared differences (Cov.cachePair) and the standardised
// outputs. Each NLML evaluation is then only a vectorised transform of the
// cached distances, written straight into the factor's packed storage, and
// one factorisation in place, with the Cholesky and solve buffers reused
// across all evaluations — the hot loop allocates nothing.
type fitWS struct {
	n, ns int
	// dist caches every packed pair p = (i,j), j ≤ i, of the training set:
	// dim-major squared differences dist[k*np+p] with ARD lengthscales, one
	// contiguous run of pairs per dimension for simd.RBFARD, or the raw
	// squared distance dist[p] when isotropic.
	dist  []float64
	y     []float64 // outputs standardised per task, training order
	inv2  []float64 // per-dimension 1/ℓ² for the current hyper-parameters
	alpha []float64
	chol  mat.Cholesky
}

const log2pi = 1.8378770664093453 // log(2π)

// newFitWS caches the hyper-parameter-independent parts of g's training set.
// The outputs are standardised with g's current per-task constants, so call
// standardise first.
func newFitWS(g *GP) *fitWS {
	n := g.N()
	w := &fitWS{n: n, ns: len(g.xs)}
	np := mat.PackedLen(n)
	w.dist = make([]float64, np*len(g.cov.Len))
	p := 0
	for i := 0; i < n; i++ {
		xi, _ := g.trainX(i)
		for j := 0; j <= i; j++ {
			xj, _ := g.trainX(j)
			g.cov.cachePair(w.dist, np, p, xi, xj)
			p++
		}
	}
	w.y = g.yStdInto(nil)
	w.inv2 = make([]float64, g.dim)
	w.alpha = make([]float64, n)
	return w
}

// fillGram writes the packed noisy Gram matrix K̃ + Λ for g's current
// hyper-parameters into gm (PackedLen(n) entries) from the cached
// distances. It matches (*GP).gram entry for entry up to the ulp-level
// difference of accumulating Σ d²·(1/ℓ²) instead of Σ (d/ℓ)².
//
//ppalint:noalloc
func (w *fitWS) fillGram(g *GP, gm []float64) {
	gm = gm[:mat.PackedLen(w.n)]
	g.cov.fromDist(gm, w.dist, w.inv2)
	// Scale the cross-task block (target rows × source columns) by ρ. The
	// block is contiguous per row in packed layout, and hoisting ρ here keeps
	// TransferFactor's math.Pow out of the per-pair loop entirely.
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
	// Heteroscedastic task noise plus the fixed numerical jitter on the
	// diagonal (the kernel's own diagonal value is exactly Var).
	for i := 0; i < w.n; i++ {
		di := mat.PackedLen(i) + i
		if i < w.ns {
			gm[di] += g.noiseS + 1e-8
		} else {
			gm[di] += g.noiseT + 1e-8
		}
	}
}

// nlml evaluates the negative log marginal likelihood of the cached data
// under g's current hyper-parameters, reusing all workspace buffers. The
// Gram is filled straight into the factor's storage and factorised in
// place, through FactorizePacked's jitter ladder (1e-8, six steps); a
// failed attempt leaves the storage half factored, so each retry refills
// it first. It returns +Inf when the Gram matrix is not positive definite
// even with jitter.
//
//ppalint:noalloc
func (w *fitWS) nlml(g *GP) float64 {
	for attempt := -1; attempt < 6; attempt++ {
		w.fillGram(g, w.chol.Packed(w.n))
		if w.chol.FactorizeInPlace(w.n, 1e-8, attempt) {
			w.chol.SolveInto(w.alpha, w.y)
			return 0.5*mat.Dot(w.y, w.alpha) + 0.5*w.chol.LogDet() + 0.5*float64(w.n)*log2pi
		}
	}
	return math.Inf(1)
}
