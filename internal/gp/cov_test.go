package gp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCovAtZeroDistance(t *testing.T) {
	c := NewCov(RBF, 3, false)
	c.Var = 2.5
	x := []float64{0.1, 0.5, 0.9}
	if got := c.Eval(x, x); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("k(x,x) = %g, want Var = 2.5", got)
	}
}

func TestCovSymmetryAndDecay(t *testing.T) {
	c := NewCov(RBF, 2, false)
	a, b := []float64{0, 0}, []float64{0.3, 0.4}
	far := []float64{3, 4}
	if c.Eval(a, b) != c.Eval(b, a) {
		t.Error("asymmetric")
	}
	if !(c.Eval(a, b) > c.Eval(a, far)) {
		t.Error("does not decay with distance")
	}
	if c.Eval(a, far) <= 0 {
		t.Error("non-positive covariance")
	}
}

func TestCovARDLengthscales(t *testing.T) {
	c := NewCov(RBF, 2, true)
	c.Len = []float64{0.1, 10}
	// A move along dim 0 (short lengthscale) decorrelates much faster than
	// the same move along dim 1.
	x := []float64{0, 0}
	d0 := c.Eval(x, []float64{0.5, 0})
	d1 := c.Eval(x, []float64{0, 0.5})
	if !(d0 < d1) {
		t.Errorf("ARD: k along short dim %g !< k along long dim %g", d0, d1)
	}
}

func TestCovIsotropicSingleLength(t *testing.T) {
	c := NewCov(RBF, 3, false)
	if len(c.Len) != 1 {
		t.Fatalf("isotropic cov has %d lengthscales, want 1", len(c.Len))
	}
	c.Len[0] = 2
	a, b := []float64{0, 0, 0}, []float64{1, 1, 1}
	want := math.Exp(-0.5 * 3 / 4)
	if got := c.Eval(a, b); math.Abs(got-want) > 1e-12 {
		t.Errorf("isotropic eval = %g, want %g", got, want)
	}
}

func TestCovDimMismatchPanics(t *testing.T) {
	c := NewCov(RBF, 2, false)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dim mismatch")
		}
	}()
	c.Eval([]float64{1}, []float64{1, 2})
}

// TestNewCovRejectsUnknownKind: RBF is the only covariance family, and any
// other CovKind fails at construction instead of at the first evaluation.
func TestNewCovRejectsUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCov accepted CovKind(1)")
		}
	}()
	NewCov(CovKind(1), 2, true)
}

func TestCovHyperRoundTrip(t *testing.T) {
	c := NewCov(RBF, 4, true)
	c.Var = 3.7
	c.Len = []float64{0.2, 1.5, 2.5, 0.9}
	h := c.hyper()
	d := NewCov(RBF, 4, true)
	d.setHyper(h)
	if math.Abs(d.Var-c.Var) > 1e-12 {
		t.Errorf("Var round trip: %g vs %g", d.Var, c.Var)
	}
	for i := range c.Len {
		if math.Abs(d.Len[i]-c.Len[i]) > 1e-12 {
			t.Errorf("Len[%d] round trip: %g vs %g", i, d.Len[i], c.Len[i])
		}
	}
}

func TestCovClone(t *testing.T) {
	c := NewCov(RBF, 2, true)
	d := c.Clone()
	d.Len[0] = 42
	if c.Len[0] == 42 {
		t.Error("Clone shares lengthscale storage")
	}
}

// TestTransferFactorMatchesGammaIntegral verifies Eq. (7) against numerical
// integration of Eq. (6): E[2e^{-φ} − 1] with φ ~ Γ(shape b, scale a).
func TestTransferFactorMatchesGammaIntegral(t *testing.T) {
	cases := []struct{ a, b float64 }{
		// b >= 1 keeps the Gamma density bounded at 0 so the plain
		// trapezoid rule below converges.
		{0.1, 1}, {0.5, 2}, {1, 1}, {2, 1.5}, {0.05, 3},
	}
	for _, c := range cases {
		// Numerically integrate the Gamma expectation by fine trapezoid.
		gammaB := math.Gamma(c.b)
		const steps = 400000
		upper := c.a * (c.b + 40) * 3 // generous tail cutoff
		h := upper / steps
		var integral float64
		for i := 1; i < steps; i++ {
			phi := float64(i) * h
			dens := math.Pow(phi, c.b-1) * math.Exp(-phi/c.a) / (math.Pow(c.a, c.b) * gammaB)
			integral += (2*math.Exp(-phi) - 1) * dens * h
		}
		got := TransferFactor(c.a, c.b)
		if math.Abs(got-integral) > 2e-3 {
			t.Errorf("TransferFactor(%g, %g) = %g, numeric integral = %g", c.a, c.b, got, integral)
		}
	}
}

func TestTransferFactorLimits(t *testing.T) {
	if got := TransferFactor(0, 5); got != 1 {
		t.Errorf("identical tasks (a=0): rho = %g, want 1", got)
	}
	if got := TransferFactor(1e6, 5); got < -1 || got > -0.99 {
		t.Errorf("very dissimilar tasks: rho = %g, want ~-1", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative Gamma parameter accepted")
		}
	}()
	TransferFactor(-1, 1)
}

// Property: rho is monotone decreasing in a (more dissimilarity, less
// correlation) and always in (-1, 1].
func TestQuickTransferFactorMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := 0.1 + 3*rng.Float64()
		a1 := 5 * rng.Float64()
		a2 := a1 + 0.1 + rng.Float64()
		r1, r2 := TransferFactor(a1, b), TransferFactor(a2, b)
		return r1 > r2 && r1 <= 1 && r2 > -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + 2*(x[1]+1)*(x[1]+1)
	}
	x, v := NelderMead(f, []float64{0, 0}, 1, 400)
	if math.Abs(x[0]-3) > 1e-3 || math.Abs(x[1]+1) > 1e-3 {
		t.Errorf("minimiser = %v, want [3 -1]", x)
	}
	if v > 1e-5 {
		t.Errorf("min value = %g, want ~0", v)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	x, v := NelderMead(f, []float64{-1.2, 1}, 0.5, 2000)
	if v > 1e-4 {
		t.Errorf("Rosenbrock min = %g at %v, want ~0 at [1 1]", v, x)
	}
}

func TestNelderMeadNaNTreatedAsInf(t *testing.T) {
	f := func(x []float64) float64 {
		if x[0] < 0 {
			return math.NaN()
		}
		return (x[0] - 2) * (x[0] - 2)
	}
	x, _ := NelderMead(f, []float64{1}, 0.5, 200)
	if math.Abs(x[0]-2) > 1e-3 {
		t.Errorf("minimiser = %v, want [2]", x)
	}
}

func TestNelderMeadEmpty(t *testing.T) {
	x, v := NelderMead(func(x []float64) float64 { return 7 }, nil, 1, 10)
	if x != nil || v != 7 {
		t.Errorf("empty problem: (%v, %g)", x, v)
	}
}
