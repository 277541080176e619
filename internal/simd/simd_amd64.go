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

// rbfARDAsm and rbfARDx512 are the 4- and 8-lane RBFARD kernels in
// simd_amd64.s: per pair p < n (a multiple of the lane count) they sum
// r² = Σ_k sqd[k·stride+p]·inv2[k] over d ≥ 1 dimensions and write
// dst[p] = vr·math.Exp(−r²/2), bit for bit, block by block until a block
// holds a pair that needs math.Exp itself. They return the number of pairs
// finished.
//
//go:noescape
func rbfARDAsm(dst, sqd, inv2 *float64, d, stride, n int, vr float64) int

//go:noescape
func rbfARDx512(dst, sqd, inv2 *float64, d, stride, n int, vr float64) int

// dotSelf4Asm writes DotUnroll(v_c, v_c)'s four stride-4 lane sums into
// lanes[4c:4c+4] for n (a multiple of 4) elements of each v_c; see
// dotUnroll4Asm.
//
//go:noescape
func dotSelf4Asm(v0, v1, v2, v3 *float64, n int, lanes *[16]float64)

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

// useExp gates the RBF exp kernels. They replay math.Exp's amd64 FMA path
// lane by lane, so they may run only where math.Exp takes that path: math
// selects it when CPUID reports AVX and FMA and the OS saves the YMM state
// (its useFMA). useAsm has checked FMA and the YMM state; AVX is leaf 1
// ECX bit 28. GODEBUG=cpu.fma=off or cpu.avx=off switches math.Exp to its
// non-FMA path without changing CPUID, so the gate also runs the kernel on
// expProbe, whose results differ between the two paths, and keeps it only
// if every lane matches math.Exp. It is set in init, once expTab is filled.
var useExp bool

// expProbe holds r² values for which math.Exp(−r²/2) differs between
// math's FMA and non-FMA paths.
var expProbe = [4]float64{2.9310185733681578, 9.477602891945564, 8.553103464769398, 0.13285547727582236}

func expProbeMatches() bool {
	v := expProbe
	if rbfARDAsm(&v[0], &v[0], &unitInv2[0], 1, len(v), len(v), 1) != len(v) {
		return false
	}
	for i, r2 := range expProbe {
		if math.Float64bits(v[i]) != math.Float64bits(math.Exp(-0.5*r2)) {
			return false
		}
	}
	return true
}

// expTab holds the RBF exp kernels' constants as 32-byte blocks (each
// value in all four lanes), in the order of the EXP_* offsets in
// simd_amd64.s: −1/2, the range bounds −708 and 709, the all-zero bound
// −746, then math.Exp's own constants (log2(e), ln2 in two parts, 1/16,
// the Horner coefficients 1/8! … 1/3!, 1/2, 1, 2) and the exponent bias
// 1023 as a raw int64.
var expTab [72]float64

func init() {
	vals := [18]float64{
		-0.5, -708, 709, -746,
		1.4426950408889634073599246810018920,                  // log2(e)
		0.69314718055966295651160180568695068359375,           // ln2, upper part
		0.28235290563031577122588448175013436025525412068e-12, // ln2, lower part
		0.0625,
		2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
		8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1,
		0.5, 1, 2,
		math.Float64frombits(1023),
	}
	for k, v := range vals {
		for lane := 0; lane < 4; lane++ {
			expTab[k*4+lane] = v
		}
	}
	_, _, c1, _ := cpuid(1, 0)
	useExp = useAsm && c1&(1<<28) != 0 && expProbeMatches()
}
