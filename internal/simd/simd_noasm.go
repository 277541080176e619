//go:build !amd64

package simd

// useAsm is false off amd64; every kernel takes the portable path.
const useAsm = false

// useAVX512 is false off amd64.
const useAVX512 = false

// useExp is false off amd64.
const useExp = false

// The stubs below are never called when useAsm is false.

func dot4Asm(p, q0, q1, q2, q3 *float64, n int) (s0, s1, s2, s3 float64) {
	panic("simd: dot4Asm called without assembly support")
}

func dotUnroll4Asm(a, b0, b1, b2, b3 *float64, n int, lanes *[16]float64) {
	panic("simd: dotUnroll4Asm called without assembly support")
}

func rbfARDAsm(dst, sqd, inv2 *float64, d, stride, n int, vr float64) int {
	panic("simd: rbfARDAsm called without assembly support")
}

func rbfARDx512(dst, sqd, inv2 *float64, d, stride, n int, vr float64) int {
	panic("simd: rbfARDx512 called without assembly support")
}

func dotSelf4Asm(v0, v1, v2, v3 *float64, n int, lanes *[16]float64) {
	panic("simd: dotSelf4Asm called without assembly support")
}
