package simd

import (
	"math"
	"math/rand"
	"testing"
)

// rbfR2 draws the r² operands of the RBF bit-identity tests. Mode 0 keeps
// every value inside the vector kernels' range, mode 1 spreads values over
// [0, 3000] so blocks mix in-range, all-zero and math.Exp lanes, and the
// other modes mix in the edge cases: ±0, subnormals, values straddling 1416
// (x = −708) and 1492 (x = −746), the upper bound 709 (r² = −1418), +Inf,
// NaN and 1e300.
func rbfR2(rng *rand.Rand, mode int) float64 {
	switch mode {
	case 0:
		return rng.Float64() * 60
	case 1:
		return rng.Float64() * 3000
	}
	if rng.Intn(3) > 0 {
		return rng.Float64() * 30
	}
	edges := [...]float64{
		0, math.Copysign(0, -1),
		math.Float64frombits(1 + rng.Uint64()&(1<<52-1)), // subnormal
		1416, math.Nextafter(1416, 0), math.Nextafter(1416, 2000),
		1492, math.Nextafter(1492, 0), math.Nextafter(1492, 2000),
		-1418, math.Nextafter(-1418, -2000), -1e300,
		math.Inf(1), math.NaN(), 1e300,
	}
	return edges[rng.Intn(len(edges))]
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestRBFFromR2Bitwise pins RBFFromR2 to vr·math.Exp(−r²/2) bit for bit at
// every length 0–70 (every block count and tail) and over a long dense
// sweep of the exponent range.
func TestRBFFromR2Bitwise(t *testing.T) { testRBFFromR2Bitwise(t) }

func testRBFFromR2Bitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	check := func(v []float64, vr float64, what string) {
		t.Helper()
		got := append([]float64(nil), v...)
		RBFFromR2(got, vr)
		for i, r2 := range v {
			if want := vr * math.Exp(-0.5*r2); !sameBits(got[i], want) {
				t.Fatalf("%s: n=%d i=%d r2=%v vr=%v: RBFFromR2 %v (%#x), want %v (%#x)",
					what, len(v), i, r2, vr, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
			}
		}
	}
	for n := 0; n <= 70; n++ {
		for mode := 0; mode < 4; mode++ {
			v := make([]float64, n)
			for i := range v {
				v[i] = rbfR2(rng, mode)
			}
			check(v, 0.05+3*rng.Float64(), "lengths")
		}
	}
	// Dense sweep: r² uniform over the in-range exponents, then log-uniform
	// from 1e-300 to 1e3 so tiny and subnormal arguments are covered too.
	v := make([]float64, 1<<14)
	for i := range v {
		v[i] = rng.Float64() * 1416
	}
	check(v, 1.7, "uniform")
	for i := range v {
		v[i] = math.Pow(10, 303*rng.Float64()-300)
	}
	check(v, 0.3, "log-uniform")
}

// TestRBFARDBitwise pins RBFARD to its scalar definition — r² summed from
// zero in dimension order with a rounded product per dimension, then
// vr·math.Exp(−r²/2) — at the paper's dimensions 12 and 9, the gpbench
// dimension 8 and d = 1, with lengthscales at the fit's limits 0.02 and 8
// and in between.
func TestRBFARDBitwise(t *testing.T) { testRBFARDBitwise(t) }

func testRBFARDBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, d := range []int{1, 8, 9, 12} {
		for n := 0; n <= 70; n++ {
			inv2 := make([]float64, d)
			for k := range inv2 {
				l := [...]float64{0.02, 8, 0.02 + 8*rng.Float64(), 0.3 + rng.Float64()}[rng.Intn(4)]
				inv2[k] = 1 / (l * l)
			}
			sqd := make([]float64, n*d+rng.Intn(3))
			for i := range sqd {
				switch rng.Intn(8) {
				case 0:
					sqd[i] = 0
				case 1:
					sqd[i] = math.Float64frombits(1 + rng.Uint64()&(1<<52-1))
				default:
					dk := rng.Float64()
					sqd[i] = dk * dk
				}
			}
			vr := 0.05 + 3*rng.Float64()
			dst := make([]float64, n)
			RBFARD(dst, sqd, inv2, vr)
			for p := range dst {
				var r2 float64
				for k, c := range inv2 {
					r2 += float64(sqd[k*n+p] * c)
				}
				if want := vr * math.Exp(-0.5*r2); !sameBits(dst[p], want) {
					t.Fatalf("d=%d n=%d p=%d r2=%v: RBFARD %v (%#x), want %v (%#x)",
						d, n, p, r2, dst[p], math.Float64bits(dst[p]), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestRBFARDShortPanics: a squared-difference tensor shorter than
// len(dst)·len(inv2) is a caller bug on every path.
func TestRBFARDShortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RBFARD with a short sqd did not panic")
		}
	}()
	RBFARD(make([]float64, 8), make([]float64, 8*3-1), []float64{1, 1, 1}, 1)
}

// TestDotSelf4Bitwise pins DotSelf4 to four DotUnroll(v, v) calls bit for
// bit at every length 0–70.
func TestDotSelf4Bitwise(t *testing.T) { testDotSelf4Bitwise(t) }

func testDotSelf4Bitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for n := 0; n <= 70; n++ {
		for trial := 0; trial < 8; trial++ {
			var vs [4][]float64
			for c := range vs {
				vs[c] = make([]float64, n)
				for k := range vs[c] {
					vs[c][k] = wildFloat(rng)
				}
			}
			var got [4]float64
			got[0], got[1], got[2], got[3] = DotSelf4(vs[0], vs[1], vs[2], vs[3])
			for c := range vs {
				if want := DotUnroll(vs[c], vs[c]); !sameBits(got[c], want) {
					t.Fatalf("n=%d trial=%d vec=%d: DotSelf4 %v (%#x), DotUnroll %v (%#x)",
						n, trial, c, got[c], math.Float64bits(got[c]), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestDotSelf4LengthMismatchPanics: four squared norms of different
// lengths are not what the batched variance needs, so DotSelf4 refuses
// them on every path.
func TestDotSelf4LengthMismatchPanics(t *testing.T) {
	v := make([]float64, 9)
	defer func() {
		if recover() == nil {
			t.Fatal("DotSelf4 with unequal lengths did not panic")
		}
	}()
	DotSelf4(v, v, v[:8], v)
}

// TestRBFKernelsNoAlloc backs the //ppalint:noalloc annotations of
// RBFFromR2, RBFARD and DotSelf4, including blocks that fall back to
// math.Exp.
func TestRBFKernelsNoAlloc(t *testing.T) {
	const n, d = 67, 9
	v := make([]float64, n)
	dst := make([]float64, n)
	sqd := make([]float64, n*d)
	inv2 := make([]float64, d)
	for i := range v {
		v[i] = float64(i) * 30 // blocks past r² = 1416 take math.Exp
	}
	for i := range sqd {
		sqd[i] = float64(i%7) / 7
	}
	for k := range inv2 {
		inv2[k] = float64(k + 1)
	}
	var sink float64
	if allocs := testing.AllocsPerRun(100, func() {
		RBFFromR2(v, 1.1)
		RBFARD(dst, sqd, inv2, 1.1)
		r0, r1, r2, r3 := DotSelf4(v, dst, v, dst)
		sink += r0 + r1 + r2 + r3
	}); allocs != 0 {
		t.Fatalf("RBF kernels allocate %v times per call", allocs)
	}
	_ = sink
}

// BenchmarkRBFARD times one ARD Gram fill of the RBF transfer GP's NLML:
// 140 points (the fit subsample), 12 dimensions, against the scalar loop
// it replaces.
func BenchmarkRBFARD(b *testing.B) {
	const d, pts = 12, 140
	n := pts * (pts + 1) / 2
	rng := rand.New(rand.NewSource(16))
	sqd := make([]float64, n*d)
	for i := range sqd {
		dk := rng.Float64()
		sqd[i] = dk * dk
	}
	inv2 := make([]float64, d)
	for k := range inv2 {
		l := 0.3 + rng.Float64()
		inv2[k] = 1 / (l * l)
	}
	dst := make([]float64, n)
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			RBFARD(dst, sqd, inv2, 1.3)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rbfARDScalar(dst, sqd, inv2, 1.3, 0, n)
		}
	})
}
