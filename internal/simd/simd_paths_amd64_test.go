//go:build amd64

package simd

import (
	"math"
	"math/rand"
	"testing"
)

// TestKernelsAcrossPaths re-runs the kernel equivalence tables with each
// dispatch path forced in turn — portable, AVX2, and (when the host has it)
// AVX-512 — so a single amd64 machine exercises every code path the package
// ships, not just the one its CPU would pick. The detection globals are
// mutated and restored; the package's tests run sequentially, so nothing
// else observes the intermediate states.
func TestKernelsAcrossPaths(t *testing.T) {
	saveAsm, save512, saveExp := useAsm, useAVX512, useExp
	defer func() { useAsm, useAVX512, useExp = saveAsm, save512, saveExp }()

	run := func(name string, asm, avx512 bool) {
		t.Run(name, func(t *testing.T) {
			useAsm, useAVX512, useExp = asm, avx512, asm && saveExp
			testDot4EdgeLengths(t)
			testDotUnroll4Bitwise(t)
			testDotUnrollLanes4Bitwise(t)
			testDot4x4SolveMatchesReference(t)
			testSubScaledBitwise(t)
			testDotSelf4Bitwise(t)
			testRBFFromR2Bitwise(t)
			testRBFARDBitwise(t)
		})
	}
	run("portable", false, false)
	if saveAsm {
		run("avx2", true, false)
	}
	if save512 {
		run("avx512", true, true)
	}
}

// TestDetectionConsistent pins the invariants the dispatchers rely on:
// AVX-512 support implies the AVX2+FMA baseline, and so do the exp kernels.
func TestDetectionConsistent(t *testing.T) {
	if useAVX512 && !useAsm {
		t.Fatal("useAVX512 set without useAsm: dispatchers assume AVX-512 implies AVX2+FMA")
	}
	if useExp && !useAsm {
		t.Fatal("useExp set without useAsm: the exp kernels need AVX2+FMA")
	}
	t.Logf("kernel paths: avx2=%v avx512=%v exp=%v", useAsm, useAVX512, useExp)
}

// expPath is math.Exp's amd64 assembly (math/exp_amd64.s) for x in
// [−708, 709], with its FMA branch (fused) or its plain SSE2 branch, built
// from the constants in expTab.
func expPath(x float64, fused bool) float64 {
	c := func(block int) float64 { return expTab[4*block] }
	log2e, ln2u, ln2l := c(4), c(5), c(6)
	k := math.RoundToEven(float64(log2e * x))
	mulAdd := func(a, b, s float64) float64 {
		if fused {
			return math.FMA(a, b, s)
		}
		return float64(a*b) + s
	}
	r := mulAdd(-k, ln2u, x)
	r = mulAdd(-k, ln2l, r)
	r *= 0.0625
	p := c(8)
	for b := 9; b <= 15; b++ {
		p = mulAdd(p, r, c(b)) // 1/7! … 1/3!, 1/2, 1
	}
	r *= p
	for i := 0; i < 3; i++ {
		r *= r + 2
	}
	r = mulAdd(r, r+2, 1)
	return r * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

// TestExpProbeSeparatesPaths checks the premise of the useExp gate: every
// expProbe value gives a different math.Exp on the FMA and the non-FMA
// path, so a math.Exp running without FMA fails the probe. Where math.Exp
// does take its FMA path on an AVX2 host, the gate must have passed (a
// broken AVX2 kernel fails the probe and would otherwise only switch the
// exp kernels off), and math.Exp must equal the FMA path on a sweep.
func TestExpProbeSeparatesPaths(t *testing.T) {
	mathFMA := true
	for _, r2 := range expProbe {
		x := -0.5 * r2
		f, s := expPath(x, true), expPath(x, false)
		if sameBits(f, s) {
			t.Fatalf("probe r2=%v: both paths give %v", r2, f)
		}
		mathFMA = mathFMA && sameBits(math.Exp(x), f)
	}
	if mathFMA && useAsm && !useExp {
		t.Fatal("math.Exp takes its FMA path on an AVX2 host, but the exp kernels failed their probe")
	}
	if !useExp {
		t.Skip("math.Exp does not take its FMA path here")
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 1<<16; i++ {
		x := rng.Float64()*1417 - 708
		if got, want := expPath(x, true), math.Exp(x); !sameBits(got, want) {
			t.Fatalf("x=%v: FMA path %v, math.Exp %v", x, got, want)
		}
	}
}
