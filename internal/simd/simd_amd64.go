//go:build amd64

package simd

import "math"

// dot4Asm is the AVX2+FMA kernel in simd_amd64.s. It computes four dot
// products of p against q0..q3 over n elements, reading exactly n entries
// from each pointer.
func dot4Asm(p, q0, q1, q2, q3 *float64, n int) (s0, s1, s2, s3 float64)

// dotUnroll4Asm is the AVX2 kernel in simd_amd64.s behind DotUnroll4. For
// n a multiple of 4 it writes DotUnroll's four stride-4 lane sums s0..s3 of
// a·b_c into lanes[4c:4c+4], each lane a VMULPD then VADDPD per step (never
// FMA), so the sums are the scalar loop's to the bit.
//
//go:noescape
func dotUnroll4Asm(a, b0, b1, b2, b3 *float64, n int, lanes *[16]float64)

// matern52Asm transforms n (a multiple of 4) scaled squared distances in
// place into Matérn-5/2 covariances; see Matern52FromR2. It reads its
// constants from maternTab.
func matern52Asm(v *float64, n int, vr float64)

// matern52ARD8Asm is the fused AVX2+FMA distance+covariance kernel for the
// d=8 ARD case: it consumes n (a multiple of 4) rows of 8 squared
// differences each, scales them by inv2, and writes the Matérn-5/2 value per
// row into dst. See Matern52ARD.
func matern52ARD8Asm(dst, sqd, inv2 *float64, n int, vr float64)

// matern52ARD8x512 is matern52ARD8Asm widened to AVX-512: one ZMM register
// holds a full 8-dimension row, eight rows are reduced per iteration, and
// the Matérn/exp pipeline runs 8-wide. n must be a multiple of 8.
func matern52ARD8x512(dst, sqd, inv2 *float64, n int, vr float64)

// axpyAsm accumulates dst[i] += a*x[i] for i < n (n a multiple of 4).
func axpyAsm(dst, x *float64, n int, a float64)

// cpuid executes the CPUID instruction with the given leaf/subleaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (requires OSXSAVE).
func xgetbv() (eax, edx uint32)

// useAsm reports whether the hardware and OS support the AVX2+FMA kernels:
// FMA and OSXSAVE in CPUID leaf 1, XMM+YMM state enabled in XCR0, and AVX2
// in leaf 7. The Go amd64 baseline (GOAMD64=v1) guarantees none of these, so
// the check runs once at startup.
var useAsm = func() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const fma, osxsave = 1 << 12, 1 << 27
	if c1&fma == 0 || c1&osxsave == 0 {
		return false
	}
	if lo, _ := xgetbv(); lo&0x6 != 0x6 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	return b7&(1<<5) != 0
}()

// useAVX512 gates the 512-bit kernel variants: on top of the AVX2+FMA
// requirements it needs AVX512F in CPUID leaf 7 and opmask+ZMM state enabled
// in XCR0 (bits 5–7). Every 512-bit instruction the kernels use is in the F
// foundation set, so no DQ/BW/VL checks are needed.
var useAVX512 = useAsm && func() bool {
	_, b7, _, _ := cpuid(7, 0)
	if b7&(1<<16) == 0 {
		return false
	}
	lo, _ := xgetbv()
	return lo&0xe6 == 0xe6
}()

// maternTab holds the constants for matern52Asm as 32-byte blocks (each
// value replicated into all four lanes). Block k lives at byte offset k·32:
//
//	0 √5 · 1 one · 2 5/3 · 3 exp clamp · 4 log2(e) · 5 ln2 hi · 6 ln2 lo ·
//	7 exponent bias 1023 as raw int64 · 8…19 Taylor 1/11! … 1/0! (Horner
//	order, highest degree first)
var maternTab [80]float64

func init() {
	vals := [20]float64{
		sqrt5, 1, fiveThd, expLo,
		1.4426950408889634,      // log2(e)
		6.93147180369123816e-1,  // ln2 high bits
		1.90821492927058770e-10, // ln2 low bits
		math.Float64frombits(1023),
		1.0 / 39916800, 1.0 / 3628800, 1.0 / 362880, 1.0 / 40320,
		1.0 / 5040, 1.0 / 720, 1.0 / 120, 1.0 / 24, 1.0 / 6, 0.5, 1, 1,
	}
	for k, v := range vals {
		for lane := 0; lane < 4; lane++ {
			maternTab[k*4+lane] = v
		}
	}
}
