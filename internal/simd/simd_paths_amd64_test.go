//go:build amd64

package simd

import "testing"

// TestKernelsAcrossPaths re-runs the kernel equivalence tables with each
// dispatch path forced in turn — portable, AVX2, and (when the host has it)
// AVX-512 — so a single amd64 machine exercises every code path the package
// ships, not just the one its CPU would pick. The detection globals are
// mutated and restored; the package's tests run sequentially, so nothing
// else observes the intermediate states.
func TestKernelsAcrossPaths(t *testing.T) {
	saveAsm, save512 := useAsm, useAVX512
	defer func() { useAsm, useAVX512 = saveAsm, save512 }()

	run := func(name string, asm, avx512 bool) {
		t.Run(name, func(t *testing.T) {
			useAsm, useAVX512 = asm, avx512
			testDot4EdgeLengths(t)
			testDotUnroll4Bitwise(t)
			testMatern52FromR2EdgeLengths(t)
			testMatern52ARDMatchesScalar(t)
			testAxpyEdgeLengths(t)
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

// TestDetectionConsistent pins the invariant the dispatchers rely on:
// AVX-512 support implies the AVX2+FMA baseline.
func TestDetectionConsistent(t *testing.T) {
	if useAVX512 && !useAsm {
		t.Fatal("useAVX512 set without useAsm: dispatchers assume AVX-512 implies AVX2+FMA")
	}
	t.Logf("kernel paths: avx2=%v avx512=%v", useAsm, useAVX512)
}
