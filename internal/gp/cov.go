// Package gp implements the Gaussian-process machinery of the paper: the
// RBF covariance function, exact GP regression with marginal-
// likelihood hyper-parameter fitting, and the transfer Gaussian process of
// Section 3.1 whose kernel couples a source task and a target task through
// the Gamma-integrated dissimilarity factor of Eq. (7).
//
// The package is built for pool-based active learning: posteriors support
// appending one training point at a time (incremental Cholesky) and keep the
// per-candidate solve vectors cached, so a PAL iteration over a pool of M
// candidates costs O(N·M) instead of O(M·N²).
package gp

import (
	"fmt"
	"math"

	"ppatuner/internal/simd"
)

// CovKind names a covariance family. RBF is the only one: the transfer
// kernel of Eq. (5)–(7) scales it by the cross-task factor ρ.
type CovKind int

// RBF is the squared-exponential kernel exp(-r²/2).
const RBF CovKind = 0

// Cov is the RBF covariance with signal variance Var and per-dimension
// lengthscales Len (ARD). A single-element Len is applied isotropically to
// all dimensions.
type Cov struct {
	Var float64
	Len []float64
}

// NewCov returns a Cov with unit variance and unit lengthscales. kind must
// be RBF.
func NewCov(kind CovKind, dim int, ard bool) *Cov {
	if kind != RBF {
		panic(fmt.Sprintf("gp: unknown covariance kind %d", int(kind)))
	}
	n := 1
	if ard {
		n = dim
	}
	l := make([]float64, n)
	for i := range l {
		l[i] = 1
	}
	return &Cov{Var: 1, Len: l}
}

// Clone deep-copies the covariance.
func (c *Cov) Clone() *Cov {
	return &Cov{Var: c.Var, Len: append([]float64(nil), c.Len...)}
}

// r2 returns the squared scaled distance Σ ((x_i-y_i)/ℓ_i)². The explicit
// float64 conversions round each square before it is added, so no build
// fuses the sum into FMAs and every build computes the same distances.
func (c *Cov) r2(x, y []float64) float64 {
	var s float64
	if len(c.Len) == 1 {
		inv := 1 / c.Len[0]
		for i := range x {
			d := (x[i] - y[i]) * inv
			s += float64(d * d)
		}
		return s
	}
	for i := range x {
		d := (x[i] - y[i]) / c.Len[i]
		s += float64(d * d)
	}
	return s
}

// Eval returns k(x, y).
func (c *Cov) Eval(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("gp: Eval dim mismatch %d vs %d", len(x), len(y)))
	}
	return c.EvalR2(c.r2(x, y))
}

// EvalR2 returns the kernel value for a precomputed squared scaled distance
// r² = Σ ((x_i-y_i)/ℓ_i)². It is the scalar-transform half of Eval.
func (c *Cov) EvalR2(r2 float64) float64 { return c.Var * math.Exp(-0.5*r2) }

// fromR2 overwrites each squared scaled distance in v with its kernel
// value, bit for bit EvalR2's, in one simd.RBFFromR2 call.
func (c *Cov) fromR2(v []float64) { simd.RBFFromR2(v, c.Var) }

// cachePair stores the hyper-parameter-independent half of the kernel
// value of the pair (x, y), pair p of np, in dist: with ARD lengthscales
// the per-dimension squared differences (x_k-y_k)² at the dim-major slots
// dist[k·np+p], otherwise the squared distance Σ_k (x_k-y_k)² at dist[p],
// each square rounded before it is added. fromDist turns such a cache into
// kernel values for any hyper-parameters.
func (c *Cov) cachePair(dist []float64, np, p int, x, y []float64) {
	if len(c.Len) > 1 {
		for k := range x {
			dk := x[k] - y[k]
			dist[k*np+p] = dk * dk
		}
		return
	}
	var s float64
	for k := range x {
		dk := x[k] - y[k]
		s += float64(dk * dk)
	}
	dist[p] = s
}

// fromDist fills dst with the kernel values of the len(dst) pairs cached in
// dist by cachePair, under c's current hyper-parameters. inv2, at least
// len(c.Len) long, receives the per-dimension 1/ℓ² (ARD only). Each value
// equals EvalR2 of the pair's r² = Σ_k float64(d_k²·(1/ℓ_k²)) (ARD) or
// r² = (Σ_k d_k²)·(1/ℓ²) (isotropic), bit for bit.
//
//ppalint:noalloc
func (c *Cov) fromDist(dst, dist, inv2 []float64) {
	if len(c.Len) > 1 {
		inv2 = inv2[:len(c.Len)]
		for k, l := range c.Len {
			inv2[k] = 1 / (l * l)
		}
		simd.RBFARD(dst, dist, inv2, c.Var)
		return
	}
	s := 1 / (c.Len[0] * c.Len[0])
	for p := range dst {
		dst[p] = dist[p] * s
	}
	simd.RBFFromR2(dst, c.Var)
}

// hyper packs the covariance hyper-parameters as log-values for unconstrained
// optimisation: [log Var, log Len...].
func (c *Cov) hyper() []float64 {
	h := make([]float64, 0, 1+len(c.Len))
	h = append(h, math.Log(c.Var))
	for _, l := range c.Len {
		h = append(h, math.Log(l))
	}
	return h
}

// setHyper unpacks hyper(); the inverse of hyper.
func (c *Cov) setHyper(h []float64) {
	if len(h) != 1+len(c.Len) {
		panic(fmt.Sprintf("gp: setHyper got %d values, want %d", len(h), 1+len(c.Len)))
	}
	c.Var = math.Exp(h[0])
	for i := range c.Len {
		c.Len[i] = math.Exp(h[1+i])
	}
}

// TransferFactor returns the cross-task correlation coefficient of Eq. (7):
// E[2e^{-φ} - 1] with φ ~ Γ(shape b, scale a), i.e. 2(1/(1+a))^b − 1.
// It lies in (-1, 1]: a→0 or b→0 gives 1 (identical tasks); large a·b gives
// values approaching −1 (anti-correlated tasks).
func TransferFactor(a, b float64) float64 {
	if a < 0 || b < 0 {
		panic(fmt.Sprintf("gp: TransferFactor(a=%g, b=%g) requires non-negative Gamma parameters", a, b))
	}
	return 2*math.Pow(1/(1+a), b) - 1
}
