// Package simd hosts the hand-vectorised kernels behind the GP hot path:
// the fused multi-dot product that drives the packed Cholesky factorisation,
// the RBF distance→covariance transforms that drive the cached Gram fill and
// the kernel columns, and the batched dot products of the pool posterior.
// On amd64 with AVX2+FMA (checked once at startup) they run in assembly;
// everywhere else they fall back to portable Go with unrolled scalar loops.
// Dot4 computes the same quantities as its fallback with the same
// operation order per element, but may differ from it in the last few
// ulps (FMA contraction) — callers get deterministic results within one
// process, not across architectures.
//
// The other kernels equal their scalar definitions bit for bit on every
// path, so the GP batches with them without moving a single table or front:
//
//   - DotUnroll4 and DotSelf4 return four DotUnroll results. They stay at 4
//     lanes with a separate multiply and add: FMA would drop the product's
//     rounding, and an 8-lane AVX-512 accumulator would change which
//     products share a partial sum.
//   - RBFFromR2 and RBFARD return vr·math.Exp(−r²/2). Their exp is
//     math.Exp's own amd64 FMA path run lane by lane, so FMA is allowed
//     here: it is the rounding math.Exp itself performs, and the kernels run
//     only where math.Exp takes that path. They may run 8 lanes wide on
//     AVX-512 because every operation, the ARD r² sum included, is
//     lane-wise: there are no cross-lane sums, so no lane's result depends
//     on which other values share its register.
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

// DotSelf4 returns DotUnroll(v0, v0) … DotUnroll(v3, v3), bit for bit, in
// one pass over the four vectors, which must have equal lengths. It is the
// variance half of a four-candidate pool prediction. On amd64 with AVX2 the
// stride-4 lane sums run in assembly as in DotUnroll4; the tail and the
// final s + s0 + s1 + s2 + s3 are finished here in DotUnroll's order.
//
//ppalint:noalloc
func DotSelf4(v0, v1, v2, v3 []float64) (r0, r1, r2, r3 float64) {
	n := len(v0)
	if len(v1) != n || len(v2) != n || len(v3) != n {
		panic("simd: DotSelf4 vectors differ in length")
	}
	if !useAsm || n < 4 {
		return DotUnroll(v0, v0), DotUnroll(v1, v1), DotUnroll(v2, v2), DotUnroll(v3, v3)
	}
	q := n &^ 3
	var l [16]float64
	dotSelf4Asm(&v0[0], &v1[0], &v2[0], &v3[0], q, &l)
	var t0, t1, t2, t3 float64
	for k := q; k < n; k++ {
		t0 += float64(v0[k] * v0[k])
		t1 += float64(v1[k] * v1[k])
		t2 += float64(v2[k] * v2[k])
		t3 += float64(v3[k] * v3[k])
	}
	return t0 + l[0] + l[1] + l[2] + l[3], t1 + l[4] + l[5] + l[6] + l[7],
		t2 + l[8] + l[9] + l[10] + l[11], t3 + l[12] + l[13] + l[14] + l[15]
}

// RBFFromR2 transforms scaled squared distances into RBF covariances in
// place,
//
//	v[i] = vr · math.Exp(−v[i]/2),
//
// bit for bit on every path (gp.Cov.EvalR2). It runs as RBFARD over one
// dimension with 1/ℓ² = 1, in place: r² = 0 + v[i]·1 is v[i] exactly,
// except that −0 becomes +0, and e^{±0} is the same 1.
//
//ppalint:noalloc
func RBFFromR2(v []float64, vr float64) { RBFARD(v, v, unitInv2[:], vr) }

// unitInv2 is RBFFromR2's single dimension.
var unitInv2 = [1]float64{1}

// RBFARD fills dst with ARD RBF covariances from dim-major squared
// differences,
//
//	dst[p] = vr · math.Exp(−r²/2),   r² = Σ_k sqd[k·n+p] · inv2[k],   n = len(dst),
//
// where inv2 holds the per-dimension 1/ℓ². r² starts at zero and adds one
// rounded product per dimension, in dimension order, and the result equals
// that scalar loop followed by vr·math.Exp(−r²/2) bit for bit on every
// path. On amd64, where math.Exp takes its FMA path, blocks of 4 (AVX2) or
// 8 (AVX-512) pairs run in assembly: the r² sums lane-wise, then math.Exp's
// own steps. A block with a pair whose exponent −r²/2 lies outside
// [−708, 709] (and above −746, where math.Exp is exactly 0), or is NaN,
// goes to math.Exp, as does the tail. Each block is read before it is
// written, so with one dimension dst may be sqd itself.
//
//ppalint:noalloc
func RBFARD(dst, sqd, inv2 []float64, vr float64) {
	n, d := len(dst), len(inv2)
	if len(sqd) < n*d {
		panic("simd: RBFARD sqd shorter than len(dst)*len(inv2)")
	}
	i := 0
	if useExp && d > 0 {
		if useAVX512 {
			for e := n &^ 7; i < e; {
				i += rbfARDx512(&dst[i], &sqd[i], &inv2[0], d, n, e-i, vr)
				if i < e {
					rbfARDScalar(dst, sqd, inv2, vr, i, i+8)
					i += 8
				}
			}
		}
		for e := n &^ 3; i < e; {
			i += rbfARDAsm(&dst[i], &sqd[i], &inv2[0], d, n, e-i, vr)
			if i < e {
				rbfARDScalar(dst, sqd, inv2, vr, i, i+4)
				i += 4
			}
		}
	}
	rbfARDScalar(dst, sqd, inv2, vr, i, n)
}

// rbfARDScalar is RBFARD's definition for pairs lo..hi-1. The explicit
// float64 conversion rounds each product before it is added, so no build
// fuses it into an FMA.
func rbfARDScalar(dst, sqd, inv2 []float64, vr float64, lo, hi int) {
	n := len(dst)
	for p := lo; p < hi; p++ {
		var r2 float64
		for k, c := range inv2 {
			r2 += float64(sqd[k*n+p] * c)
		}
		dst[p] = vr * math.Exp(-0.5*r2)
	}
}

// Dot4 computes the four dot products p[:n]·q0[:n] … p[:n]·q3[:n] in one
// pass. Sharing the p loads across four columns is what lifts a triangular
// factorisation's inner loop from load-bound scalar speed to SIMD speed.
// Every operand must hold at least n elements.
func Dot4(p, q0, q1, q2, q3 []float64, n int) (s0, s1, s2, s3 float64) {
	if len(p) < n || len(q0) < n || len(q1) < n || len(q2) < n || len(q3) < n {
		panic("simd: Dot4 operand shorter than n")
	}
	if useAsm && n >= 8 {
		return dot4Asm(&p[0], &q0[0], &q1[0], &q2[0], &q3[0], n)
	}
	return DotUnroll(p[:n], q0[:n]), DotUnroll(p[:n], q1[:n]),
		DotUnroll(p[:n], q2[:n]), DotUnroll(p[:n], q3[:n])
}
