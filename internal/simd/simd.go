// Package simd hosts the hand-vectorised kernels behind the GP hot path:
// the fused multi-dot product that drives the packed Cholesky factorisation
// and the Matérn-5/2 distance→covariance transform that drives the cached
// Gram fill. On amd64 with AVX2+FMA (checked once at startup) both run in
// assembly; everywhere else they fall back to portable Go with unrolled
// scalar loops. The fallbacks compute the same quantities with the same
// operation order per element, but SIMD results may differ from scalar ones
// in the last few ulps (FMA contraction, vectorised exp) — callers get
// deterministic results within one process, not across architectures.
//
// DotUnroll4 is the exception: its four results equal four DotUnroll calls
// bit for bit on every path, so the exact GP's pool cache can batch its
// forward substitutions without moving a single table or front. It stays
// at 4 lanes with a separate multiply and add: FMA would drop the product's
// rounding, and an 8-lane AVX-512 accumulator would change which products
// share a partial sum.
package simd

import "math"

// Enabled reports whether the assembly kernels are in use (for diagnostics
// and tests).
func Enabled() bool { return useAsm }

// Enabled512 reports whether the AVX-512 kernel variants are in use. AVX-512
// implies Enabled(); on hardware without AVX-512 the AVX2 kernels serve the
// same calls.
func Enabled512() bool { return useAVX512 }

// DotUnroll is a four-accumulator scalar dot product. Splitting the sum
// across independent accumulators breaks the add-latency chain so the CPU
// keeps several multiply-adds in flight even without SIMD. The explicit
// float64 conversions round each product before it is added; the Go spec
// forbids fusing such an operation into an FMA, so every build runs the
// mul-then-add sequence that DotUnroll4's assembly reproduces.
func DotUnroll(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	k := 0
	for ; k+4 <= len(a); k += 4 {
		s0 += float64(a[k] * b[k])
		s1 += float64(a[k+1] * b[k+1])
		s2 += float64(a[k+2] * b[k+2])
		s3 += float64(a[k+3] * b[k+3])
	}
	var s float64
	for ; k < len(a); k++ {
		s += float64(a[k] * b[k])
	}
	return s + s0 + s1 + s2 + s3
}

// DotUnroll4 returns DotUnroll(a, b0) … DotUnroll(a, b3), bit for bit, in
// one pass that shares the a loads across the four columns. Each b_c must
// be at least as long as a. On amd64 with AVX2 the stride-4 lane sums of
// all four columns run in assembly, one YMM register per column; the tail
// and the final s + s0 + s1 + s2 + s3 are finished here in DotUnroll's
// order.
//
//ppalint:noalloc
func DotUnroll4(a, b0, b1, b2, b3 []float64) (r0, r1, r2, r3 float64) {
	n := len(a)
	if len(b0) < n || len(b1) < n || len(b2) < n || len(b3) < n {
		panic("simd: DotUnroll4 column shorter than a")
	}
	if !useAsm || n < 4 {
		return DotUnroll(a, b0), DotUnroll(a, b1), DotUnroll(a, b2), DotUnroll(a, b3)
	}
	q := n &^ 3
	var l [16]float64
	dotUnroll4Asm(&a[0], &b0[0], &b1[0], &b2[0], &b3[0], q, &l)
	var t0, t1, t2, t3 float64
	for k := q; k < n; k++ {
		ak := a[k]
		t0 += float64(ak * b0[k])
		t1 += float64(ak * b1[k])
		t2 += float64(ak * b2[k])
		t3 += float64(ak * b3[k])
	}
	return t0 + l[0] + l[1] + l[2] + l[3], t1 + l[4] + l[5] + l[6] + l[7],
		t2 + l[8] + l[9] + l[10] + l[11], t3 + l[12] + l[13] + l[14] + l[15]
}

// Dot4 computes the four dot products p[:n]·q0[:n] … p[:n]·q3[:n] in one
// pass. Sharing the p loads across four columns is what lifts a triangular
// factorisation's inner loop from load-bound scalar speed to SIMD speed.
func Dot4(p, q0, q1, q2, q3 []float64, n int) (s0, s1, s2, s3 float64) {
	if useAsm && n >= 8 {
		return dot4Asm(&p[0], &q0[0], &q1[0], &q2[0], &q3[0], n)
	}
	return DotUnroll(p[:n], q0[:n]), DotUnroll(p[:n], q1[:n]),
		DotUnroll(p[:n], q2[:n]), DotUnroll(p[:n], q3[:n])
}

const (
	sqrt5   = 2.23606797749979   // math.Sqrt(5)
	fiveThd = 5.0 / 3.0          // Matérn-5/2 polynomial coefficient
	expLo   = -708.3964185322641 // below this e^x underflows to 0
)

// Matern52FromR2 transforms scaled squared distances into Matérn-5/2
// covariances in place:
//
//	v[i] = vr · (1 + s + 5/3·v[i]) · e^{−s},   s = √5·√v[i]
//
// matching gp.Cov.EvalR2 for the Matérn kernel to within a few ulps. This is
// the scalar-transform half of every cached-Gram NLML evaluation, so on
// amd64 it runs 4-wide in assembly, including a polynomial e^x.
func Matern52FromR2(v []float64, vr float64) {
	i := 0
	if useAsm && len(v) >= 4 {
		quads := len(v) &^ 3
		matern52Asm(&v[0], quads, vr)
		i = quads
	}
	for ; i < len(v); i++ {
		s := sqrt5 * math.Sqrt(v[i])
		v[i] = vr * (1 + s + fiveThd*v[i]) * math.Exp(-s)
	}
}

// Matern52ARD fuses the two passes of the ARD Gram fill — per-dimension
// distance accumulation and the Matérn-5/2 transform — into one kernel:
//
//	dst[p] = vr · (1 + s + 5/3·r²) · e^{−s},
//	r²     = Σ_k sqd[p·d+k] · inv2[k],   s = √5·√r²,   d = len(inv2)
//
// where sqd is the pair-major squared-difference tensor and inv2 the
// per-dimension 1/ℓ². The paper's 8-knob tuning space gets dedicated asm
// fast paths (AVX-512 when the hardware has it, else AVX2+FMA); other
// dimensions and non-amd64 builds take the portable loop. Like the rest of
// the package, asm and portable results agree to within a few ulps, not
// bit-for-bit.
func Matern52ARD(dst, sqd, inv2 []float64, vr float64) {
	d := len(inv2)
	n := len(dst)
	if len(sqd) < n*d {
		panic("simd: Matern52ARD sqd shorter than len(dst)*len(inv2)")
	}
	i := 0
	if d == 8 {
		if useAVX512 && n >= 8 {
			e := n &^ 7
			matern52ARD8x512(&dst[0], &sqd[0], &inv2[0], e, vr)
			i = e
		} else if useAsm && n >= 4 {
			q := n &^ 3
			matern52ARD8Asm(&dst[0], &sqd[0], &inv2[0], q, vr)
			i = q
		}
		// Scalar tail (and the full portable path off amd64), unrolled with
		// named locals so the compiler drops the bounds checks.
		c0, c1, c2, c3 := inv2[0], inv2[1], inv2[2], inv2[3]
		c4, c5, c6, c7 := inv2[4], inv2[5], inv2[6], inv2[7]
		for ; i < n; i++ {
			row := sqd[i*8 : i*8+8 : i*8+8]
			r2 := row[0]*c0 + row[1]*c1 + row[2]*c2 + row[3]*c3 +
				row[4]*c4 + row[5]*c5 + row[6]*c6 + row[7]*c7
			s := sqrt5 * math.Sqrt(r2)
			dst[i] = vr * (1 + s + fiveThd*r2) * math.Exp(-s)
		}
		return
	}
	for ; i < n; i++ {
		row := sqd[i*d : i*d+d : i*d+d]
		var r2 float64
		for k := 0; k < d; k++ {
			r2 += row[k] * inv2[k]
		}
		s := sqrt5 * math.Sqrt(r2)
		dst[i] = vr * (1 + s + fiveThd*r2) * math.Exp(-s)
	}
}

// Axpy accumulates dst[i] += a·x[i] over len(dst) elements. It is the
// building block of the sparse-GP rank-1 updates (packed outer-product
// accumulation), so on amd64 it runs as an AVX2+FMA loop.
func Axpy(dst, x []float64, a float64) {
	n := len(dst)
	if len(x) < n {
		panic("simd: Axpy x shorter than dst")
	}
	i := 0
	if useAsm && n >= 4 {
		q := n &^ 3
		axpyAsm(&dst[0], &x[0], q, a)
		i = q
	}
	for ; i < n; i++ {
		dst[i] += a * x[i]
	}
}
