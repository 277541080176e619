// Package gp implements the Gaussian-process machinery of the paper:
// stationary covariance functions, exact GP regression with marginal-
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

// CovKind selects the stationary covariance family.
type CovKind int

const (
	// RBF is the squared-exponential kernel exp(-r²/2).
	RBF CovKind = iota
	// Matern52 is the Matérn ν=5/2 kernel.
	Matern52
)

func (k CovKind) String() string {
	switch k {
	case RBF:
		return "rbf"
	case Matern52:
		return "matern52"
	default:
		return fmt.Sprintf("CovKind(%d)", int(k))
	}
}

// Cov is a stationary covariance function with signal variance Var and
// per-dimension lengthscales Len (ARD). A single-element Len is applied
// isotropically to all dimensions.
type Cov struct {
	Kind CovKind
	Var  float64
	Len  []float64
}

// NewCov returns a Cov with unit variance and unit lengthscales.
func NewCov(kind CovKind, dim int, ard bool) *Cov {
	n := 1
	if ard {
		n = dim
	}
	l := make([]float64, n)
	for i := range l {
		l[i] = 1
	}
	return &Cov{Kind: kind, Var: 1, Len: l}
}

// Clone deep-copies the covariance.
func (c *Cov) Clone() *Cov {
	return &Cov{Kind: c.Kind, Var: c.Var, Len: append([]float64(nil), c.Len...)}
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
// r² = Σ ((x_i-y_i)/ℓ_i)². It is the scalar-transform half of Eval used by
// the fit workspace, which caches pairwise distances across NLML evaluations.
func (c *Cov) EvalR2(r2 float64) float64 {
	switch c.Kind {
	case RBF:
		return c.Var * math.Exp(-0.5*r2)
	case Matern52:
		s5r := math.Sqrt(5) * math.Sqrt(r2)
		return c.Var * (1 + s5r + 5.0/3.0*r2) * math.Exp(-s5r)
	default:
		panic("gp: unknown covariance kind")
	}
}

// fromR2 overwrites each squared scaled distance in v with its kernel
// value, bit for bit EvalR2's. The RBF kernel transforms the whole slice
// in one simd.RBFFromR2 call.
func (c *Cov) fromR2(v []float64) {
	if c.Kind == RBF {
		simd.RBFFromR2(v, c.Var)
		return
	}
	for i, r2 := range v {
		v[i] = c.EvalR2(r2)
	}
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
