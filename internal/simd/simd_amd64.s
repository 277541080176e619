//go:build amd64

#include "textflag.h"

// func dot4Asm(p, q0, q1, q2, q3 *float64, n int) (s0, s1, s2, s3 float64)
//
// Four simultaneous dot products sharing the p loads. Eight YMM
// accumulators (two per column, k unrolled by 8) keep enough FMAs in
// flight to cover the FMA latency; the loop is load-bound at ~10 vector
// loads per 32 multiply-adds.
TEXT ·dot4Asm(SB), NOSPLIT, $0-80
	MOVQ p+0(FP), SI
	MOVQ q0+8(FP), R8
	MOVQ q1+16(FP), R9
	MOVQ q2+24(FP), R10
	MOVQ q3+32(FP), R11
	MOVQ n+40(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   quad

loop8:
	VMOVUPD (SI), Y8
	VMOVUPD 32(SI), Y9
	VFMADD231PD (R8), Y8, Y0
	VFMADD231PD 32(R8), Y9, Y4
	VFMADD231PD (R9), Y8, Y1
	VFMADD231PD 32(R9), Y9, Y5
	VFMADD231PD (R10), Y8, Y2
	VFMADD231PD 32(R10), Y9, Y6
	VFMADD231PD (R11), Y8, Y3
	VFMADD231PD 32(R11), Y9, Y7
	ADDQ $64, SI
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, R11
	DECQ DX
	JNZ  loop8

quad:
	TESTQ $4, CX
	JZ    merge
	VMOVUPD (SI), Y8
	VFMADD231PD (R8), Y8, Y0
	VFMADD231PD (R9), Y8, Y1
	VFMADD231PD (R10), Y8, Y2
	VFMADD231PD (R11), Y8, Y3
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11

merge:
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3

	// The tail accumulates in X10..X13, NOT the low lanes of Y0..Y3: VEX
	// scalar ops zero bits 128..255 of their destination, which would wipe
	// the vector partial sums before the horizontal reduce.
	VXORPD X10, X10, X10
	VXORPD X11, X11, X11
	VXORPD X12, X12, X12
	VXORPD X13, X13, X13
	ANDQ $3, CX
	JZ   reduce

tail:
	VMOVSD (SI), X8
	VMOVSD (R8), X9
	VFMADD231SD X9, X8, X10
	VMOVSD (R9), X9
	VFMADD231SD X9, X8, X11
	VMOVSD (R10), X9
	VFMADD231SD X9, X8, X12
	VMOVSD (R11), X9
	VFMADD231SD X9, X8, X13
	ADDQ $8, SI
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	DECQ CX
	JNZ  tail

reduce:
	VEXTRACTF128 $1, Y0, X8
	VADDPD       X8, X0, X0
	VHADDPD      X0, X0, X0
	VADDSD       X10, X0, X0
	VMOVSD       X0, s0+48(FP)
	VEXTRACTF128 $1, Y1, X8
	VADDPD       X8, X1, X1
	VHADDPD      X1, X1, X1
	VADDSD       X11, X1, X1
	VMOVSD       X1, s1+56(FP)
	VEXTRACTF128 $1, Y2, X8
	VADDPD       X8, X2, X2
	VHADDPD      X2, X2, X2
	VADDSD       X12, X2, X2
	VMOVSD       X2, s2+64(FP)
	VEXTRACTF128 $1, Y3, X8
	VADDPD       X8, X3, X3
	VHADDPD      X3, X3, X3
	VADDSD       X13, X3, X3
	VMOVSD       X3, s3+72(FP)
	VZEROUPPER
	RET

// func dotUnroll4Asm(a, b0, b1, b2, b3 *float64, n int, lanes *[16]float64)
//
// DotUnroll's four stride-4 lane sums for four columns at once, n a
// multiple of 4. Column c keeps its lanes s0..s3 in Y(c) and each step adds
// the rounded products a[k:k+4]·b_c[k:k+4] with a separate VMULPD and
// VADDPD: the exact per-lane operation sequence of the scalar loop, so the
// sums match it bit for bit. FMA (one rounding instead of two) or 8-wide
// accumulators (a different association) would not, which is why this
// kernel has neither. k is unrolled by 8 to amortise the pointer bumps;
// the four add chains set the pace.
TEXT ·dotUnroll4Asm(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), SI
	MOVQ b0+8(FP), R8
	MOVQ b1+16(FP), R9
	MOVQ b2+24(FP), R10
	MOVQ b3+32(FP), R11
	MOVQ n+40(FP), CX
	MOVQ lanes+48(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   du4quad

du4loop8:
	VMOVUPD (SI), Y8
	VMOVUPD 32(SI), Y9
	VMULPD  (R8), Y8, Y4
	VMULPD  (R9), Y8, Y5
	VMULPD  (R10), Y8, Y6
	VMULPD  (R11), Y8, Y7
	VADDPD  Y0, Y4, Y0
	VADDPD  Y1, Y5, Y1
	VADDPD  Y2, Y6, Y2
	VADDPD  Y3, Y7, Y3
	VMULPD  32(R8), Y9, Y4
	VMULPD  32(R9), Y9, Y5
	VMULPD  32(R10), Y9, Y6
	VMULPD  32(R11), Y9, Y7
	VADDPD  Y0, Y4, Y0
	VADDPD  Y1, Y5, Y1
	VADDPD  Y2, Y6, Y2
	VADDPD  Y3, Y7, Y3
	ADDQ $64, SI
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, R11
	DECQ DX
	JNZ  du4loop8

du4quad:
	TESTQ $4, CX
	JZ    du4store
	VMOVUPD (SI), Y8
	VMULPD  (R8), Y8, Y4
	VMULPD  (R9), Y8, Y5
	VMULPD  (R10), Y8, Y6
	VMULPD  (R11), Y8, Y7
	VADDPD  Y0, Y4, Y0
	VADDPD  Y1, Y5, Y1
	VADDPD  Y2, Y6, Y2
	VADDPD  Y3, Y7, Y3

du4store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// ·expTab holds the RBF kernels' constants as 32-byte blocks (each value in
// all four lanes; the AVX-512 kernel broadcasts lane 0 of a block). See its
// comment in simd_amd64.go.
#define EXP_MHALF 0
#define EXP_LO 32
#define EXP_HI 64
#define EXP_ZERO 96
#define EXP_LOG2E 128
#define EXP_LN2U 160
#define EXP_LN2L 192
#define EXP_SIXTEENTH 224
#define EXP_C8 256
#define EXP_C7 288
#define EXP_C6 320
#define EXP_C5 352
#define EXP_C4 384
#define EXP_C3 416
#define EXP_HALF 448
#define EXP_ONE 480
#define EXP_TWO 512
#define EXP_BIAS 544

// func rbfARDAsm(dst, sqd, inv2 *float64, d, stride, n int, vr float64) int
//
// dst[p] = vr·e^x, x = −r²/2, r² = Σ_k sqd[k·stride+p]·inv2[k], for p < n
// (a multiple of 4), four pairs per block. r² is summed from 0 in
// dimension order with a separate VMULPD and VADDPD per dimension, the
// scalar loop's rounding. e^x is math.Exp's amd64 FMA path
// (math/exp_amd64.s, the avxfma branch) run lane by lane: the same
// constants, k = round(x·log2e) by VCVTPD2DQ under the MXCSR rounding mode,
// the fused two-step ln2 reduction, r/16, the FMA Horner polynomial, four
// squarings r·(r+2) with a fused final +1, and the product with 2^k built
// in the exponent bits. Every step is one IEEE operation per lane, so a
// lane equals math.Exp to the bit wherever math.Exp takes the same branch:
// for x in [−708, 709] that is always its normal-exponent return. Lanes
// with x ≤ −746 become vr·0, as math.Exp is +0 for every such x (−Inf
// included). At a block with any other lane (x in (−746, −708), x > 709,
// NaN) the kernel stops and returns the number of pairs it finished, so
// the caller can hand that block to math.Exp. d ≥ 1.
TEXT ·rbfARDAsm(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ sqd+8(FP), SI
	MOVQ inv2+16(FP), R8
	MOVQ d+24(FP), R9
	MOVQ stride+32(FP), R10
	SHLQ $3, R10
	MOVQ n+40(FP), CX
	VBROADCASTSD vr+48(FP), Y15
	LEAQ ·expTab(SB), DX
	VMOVUPD EXP_MHALF(DX), Y14
	VMOVUPD EXP_LO(DX), Y13
	VMOVUPD EXP_HI(DX), Y12
	VMOVUPD EXP_ZERO(DX), Y11
	XORQ AX, AX

ardloop4:
	CMPQ AX, CX
	JGE  arddone4
	VXORPD Y0, Y0, Y0
	LEAQ (SI)(AX*8), R11
	XORQ R12, R12

ardk4:
	VBROADCASTSD (R8)(R12*8), Y1
	VMULPD       (R11), Y1, Y1
	VADDPD       Y1, Y0, Y0      // r² += sqd·inv2[k]
	ADDQ R10, R11
	INCQ R12
	CMPQ R12, R9
	JLT  ardk4

	VMULPD    Y14, Y0, Y0        // x = −r²/2
	VCMPPD    $0x1d, Y13, Y0, Y5 // x ≥ −708 (false for NaN)
	VCMPPD    $0x12, Y12, Y0, Y6 // x ≤ 709
	VANDPD    Y6, Y5, Y5         // Y5: lanes math.Exp's normal return covers
	VCMPPD    $0x12, Y11, Y0, Y6 // x ≤ −746: e^x is +0
	VORPD     Y5, Y6, Y6
	VMOVMSKPD Y6, BX
	CMPL      BX, $0xf
	JNE       arddone4           // a lane needs math.Exp

	VMULPD       EXP_LOG2E(DX), Y0, Y1
	VCVTPD2DQY   Y1, X2          // k
	VCVTDQ2PD    X2, Y1
	VFNMADD231PD EXP_LN2U(DX), Y1, Y0 // x − k·ln2u
	VFNMADD231PD EXP_LN2L(DX), Y1, Y0 // − k·ln2l
	VMULPD       EXP_SIXTEENTH(DX), Y0, Y0
	VMOVUPD      EXP_C8(DX), Y3  // Horner from 1/8!
	VFMADD213PD  EXP_C7(DX), Y0, Y3
	VFMADD213PD  EXP_C6(DX), Y0, Y3
	VFMADD213PD  EXP_C5(DX), Y0, Y3
	VFMADD213PD  EXP_C4(DX), Y0, Y3
	VFMADD213PD  EXP_C3(DX), Y0, Y3
	VFMADD213PD  EXP_HALF(DX), Y0, Y3
	VFMADD213PD  EXP_ONE(DX), Y0, Y3
	VMULPD       Y3, Y0, Y0
	VADDPD       EXP_TWO(DX), Y0, Y3 // four squarings r·(r+2)
	VMULPD       Y3, Y0, Y0
	VADDPD       EXP_TWO(DX), Y0, Y3
	VMULPD       Y3, Y0, Y0
	VADDPD       EXP_TWO(DX), Y0, Y3
	VMULPD       Y3, Y0, Y0
	VADDPD       EXP_TWO(DX), Y0, Y3
	VFMADD213PD  EXP_ONE(DX), Y3, Y0 // the last one + 1, fused
	VPMOVSXDQ    X2, Y4
	VPADDQ       EXP_BIAS(DX), Y4, Y4
	VPSLLQ       $52, Y4, Y4     // 2^k
	VMULPD       Y4, Y0, Y0
	VANDPD       Y5, Y0, Y0      // +0 in the x ≤ −746 lanes
	VMULPD       Y15, Y0, Y0     // · vr
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  ardloop4

arddone4:
	MOVQ AX, ret+56(FP)
	VZEROUPPER
	RET

// func rbfARDx512(dst, sqd, inv2 *float64, d, stride, n int, vr float64) int
//
// rbfARDAsm eight pairs per block, with the range masks in K registers; n
// is a multiple of 8. Only AVX512F instructions are used, matching the
// useAVX512 gate: a merge-masked move into a zeroed register replaces
// VANDPD, which needs DQ on ZMM.
TEXT ·rbfARDx512(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ sqd+8(FP), SI
	MOVQ inv2+16(FP), R8
	MOVQ d+24(FP), R9
	MOVQ stride+32(FP), R10
	SHLQ $3, R10
	MOVQ n+40(FP), CX
	VBROADCASTSD vr+48(FP), Z15
	LEAQ ·expTab(SB), DX
	VBROADCASTSD EXP_MHALF(DX), Z14
	VBROADCASTSD EXP_LO(DX), Z13
	VBROADCASTSD EXP_HI(DX), Z12
	VBROADCASTSD EXP_ZERO(DX), Z11
	XORQ AX, AX

ardloop8:
	CMPQ AX, CX
	JGE  arddone8
	VPXORQ Z0, Z0, Z0
	LEAQ (SI)(AX*8), R11
	XORQ R12, R12

ardk8:
	VMOVUPD     (R11), Z1
	VMULPD.BCST (R8)(R12*8), Z1, Z1
	VADDPD      Z1, Z0, Z0       // r² += sqd·inv2[k]
	ADDQ R10, R11
	INCQ R12
	CMPQ R12, R9
	JLT  ardk8

	VMULPD Z14, Z0, Z0            // x = −r²/2
	VCMPPD $0x1d, Z13, Z0, K1     // x ≥ −708 (false for NaN)
	VCMPPD $0x12, Z12, Z0, K1, K1 // and x ≤ 709
	VCMPPD $0x12, Z11, Z0, K2     // x ≤ −746: e^x is +0
	KORW   K1, K2, K2
	KMOVW  K2, BX
	CMPL   BX, $0xff
	JNE    arddone8               // a lane needs math.Exp

	VMULPD.BCST       EXP_LOG2E(DX), Z0, Z1
	VCVTPD2DQ         Z1, Y2      // k
	VCVTDQ2PD         Y2, Z1
	VFNMADD231PD.BCST EXP_LN2U(DX), Z1, Z0 // x − k·ln2u
	VFNMADD231PD.BCST EXP_LN2L(DX), Z1, Z0 // − k·ln2l
	VMULPD.BCST       EXP_SIXTEENTH(DX), Z0, Z0
	VBROADCASTSD      EXP_C8(DX), Z3 // Horner from 1/8!
	VFMADD213PD.BCST  EXP_C7(DX), Z0, Z3
	VFMADD213PD.BCST  EXP_C6(DX), Z0, Z3
	VFMADD213PD.BCST  EXP_C5(DX), Z0, Z3
	VFMADD213PD.BCST  EXP_C4(DX), Z0, Z3
	VFMADD213PD.BCST  EXP_C3(DX), Z0, Z3
	VFMADD213PD.BCST  EXP_HALF(DX), Z0, Z3
	VFMADD213PD.BCST  EXP_ONE(DX), Z0, Z3
	VMULPD            Z3, Z0, Z0
	VADDPD.BCST       EXP_TWO(DX), Z0, Z3 // four squarings r·(r+2)
	VMULPD            Z3, Z0, Z0
	VADDPD.BCST       EXP_TWO(DX), Z0, Z3
	VMULPD            Z3, Z0, Z0
	VADDPD.BCST       EXP_TWO(DX), Z0, Z3
	VMULPD            Z3, Z0, Z0
	VADDPD.BCST       EXP_TWO(DX), Z0, Z3
	VFMADD213PD.BCST  EXP_ONE(DX), Z3, Z0 // the last one + 1, fused
	VPMOVSXDQ         Y2, Z4
	VPADDQ.BCST       EXP_BIAS(DX), Z4, Z4
	VPSLLQ            $52, Z4, Z4 // 2^k
	VMULPD            Z4, Z0, Z0
	VPXORQ            Z6, Z6, Z6
	VMOVAPD           Z0, K1, Z6  // +0 in the x ≤ −746 lanes
	VMULPD            Z15, Z6, Z0 // · vr
	VMOVUPD Z0, (DI)(AX*8)
	ADDQ $8, AX
	JMP  ardloop8

arddone8:
	MOVQ AX, ret+56(FP)
	VZEROUPPER
	RET

// func dotSelf4Asm(v0, v1, v2, v3 *float64, n int, lanes *[16]float64)
//
// DotUnroll(v_c, v_c)'s four stride-4 lane sums for four vectors at once,
// n a multiple of 4: the dotUnroll4Asm scheme (one YMM per vector, a
// separate VMULPD then VADDPD per step, never FMA) with each vector
// multiplied by itself.
TEXT ·dotSelf4Asm(SB), NOSPLIT, $0-48
	MOVQ v0+0(FP), R8
	MOVQ v1+8(FP), R9
	MOVQ v2+16(FP), R10
	MOVQ v3+24(FP), R11
	MOVQ n+32(FP), CX
	MOVQ lanes+40(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	SHRQ $2, CX
	JZ   ds4store

ds4loop:
	VMOVUPD (R8), Y4
	VMOVUPD (R9), Y5
	VMOVUPD (R10), Y6
	VMOVUPD (R11), Y7
	VMULPD  Y4, Y4, Y4
	VMULPD  Y5, Y5, Y5
	VMULPD  Y6, Y6, Y6
	VMULPD  Y7, Y7, Y7
	VADDPD  Y0, Y4, Y0
	VADDPD  Y1, Y5, Y1
	VADDPD  Y2, Y6, Y2
	VADDPD  Y3, Y7, Y3
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	DECQ CX
	JNZ  ds4loop

ds4store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// D4X4SUM finishes one (row, column) sum of dot4x4x512 the way dot4Asm
// finishes a column: the odd accumulator (high half of ZACC) is added to
// the even one (low half), the upper pair to the lower, the two lanes to
// each other, then the scalar tail XTAIL, and the result is stored at
// OFF(R13). The operands keep dot4Asm's order. dot4Asm's VEX instructions
// cannot address X16–X31, and VHADDPD has no EVEX form, so each step is an
// AVX512F equivalent on the low lanes: VEXTRACTF64X4 plus a 512-bit VADDPD
// for the merge, VEXTRACTF32X4 plus VADDPD for VEXTRACTF128 plus VADDPD,
// and VUNPCKHPD plus VADDSD for VHADDPD.
#define D4X4SUM(ZACC, XACC, XTAIL, OFF) \
	VEXTRACTF64X4 $1, ZACC, Y16; \
	VADDPD        Z16, ZACC, ZACC; \
	VEXTRACTF32X4 $1, ZACC, X16; \
	VADDPD        Z16, ZACC, ZACC; \
	VUNPCKHPD     ZACC, ZACC, Z16; \
	VADDSD        X16, XACC, XACC; \
	VADDSD        XTAIL, XACC, XACC; \
	VMOVSD        XACC, OFF(R13)

// func dot4x4x512(p0, p1, p2, p3, q0, q1, q2, q3 *float64, n int, out *[16]float64)
//
// dot4Asm for four rows p0..p3 at once: out[4r+c] = p_r·q_c over n
// elements. Z(4r+c) accumulates pair (r, c): its low half is dot4Asm's
// even accumulator Y(c) for row r and its high half the odd one Y(c+4),
// so one 512-bit FMA per pair and 8-element step does what dot4Asm's two
// 256-bit FMAs do, with the same operands per lane. Each operand is loaded
// once per step for all four pairs that use it. The 4-element step is
// merge-masked (K1 = 0x0f) to the low half, dot4Asm's even accumulators;
// its masked loads read only those four elements. The scalar tail runs in
// two passes of eight accumulators, rows 0–1 then rows 2–3, each a
// VFMADD231SD from zero in index order as in dot4Asm. Only AVX512F
// instructions are used, matching the useAVX512 gate.
TEXT ·dot4x4x512(SB), NOSPLIT, $0-80
	MOVQ p0+0(FP), SI
	MOVQ p1+8(FP), DI
	MOVQ p2+16(FP), BX
	MOVQ p3+24(FP), R12
	MOVQ q0+32(FP), R8
	MOVQ q1+40(FP), R9
	MOVQ q2+48(FP), R10
	MOVQ q3+56(FP), R11
	MOVQ n+64(FP), CX
	MOVQ out+72(FP), R13
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	XORQ AX, AX
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   d4x4quad

d4x4loop8:
	VMOVUPD (R8)(AX*1), Z16
	VMOVUPD (R9)(AX*1), Z17
	VMOVUPD (R10)(AX*1), Z18
	VMOVUPD (R11)(AX*1), Z19
	VMOVUPD (SI)(AX*1), Z20
	VMOVUPD (DI)(AX*1), Z21
	VMOVUPD (BX)(AX*1), Z22
	VMOVUPD (R12)(AX*1), Z23
	VFMADD231PD Z16, Z20, Z0
	VFMADD231PD Z17, Z20, Z1
	VFMADD231PD Z18, Z20, Z2
	VFMADD231PD Z19, Z20, Z3
	VFMADD231PD Z16, Z21, Z4
	VFMADD231PD Z17, Z21, Z5
	VFMADD231PD Z18, Z21, Z6
	VFMADD231PD Z19, Z21, Z7
	VFMADD231PD Z16, Z22, Z8
	VFMADD231PD Z17, Z22, Z9
	VFMADD231PD Z18, Z22, Z10
	VFMADD231PD Z19, Z22, Z11
	VFMADD231PD Z16, Z23, Z12
	VFMADD231PD Z17, Z23, Z13
	VFMADD231PD Z18, Z23, Z14
	VFMADD231PD Z19, Z23, Z15
	ADDQ $64, AX
	DECQ DX
	JNZ  d4x4loop8

d4x4quad:
	TESTQ $4, CX
	JZ    d4x4tails
	MOVQ  $0x0f, DX
	KMOVW DX, K1
	VMOVUPD.Z (R8)(AX*1), K1, Z16
	VMOVUPD.Z (R9)(AX*1), K1, Z17
	VMOVUPD.Z (R10)(AX*1), K1, Z18
	VMOVUPD.Z (R11)(AX*1), K1, Z19
	VMOVUPD.Z (SI)(AX*1), K1, Z20
	VMOVUPD.Z (DI)(AX*1), K1, Z21
	VMOVUPD.Z (BX)(AX*1), K1, Z22
	VMOVUPD.Z (R12)(AX*1), K1, Z23
	VFMADD231PD Z16, Z20, K1, Z0
	VFMADD231PD Z17, Z20, K1, Z1
	VFMADD231PD Z18, Z20, K1, Z2
	VFMADD231PD Z19, Z20, K1, Z3
	VFMADD231PD Z16, Z21, K1, Z4
	VFMADD231PD Z17, Z21, K1, Z5
	VFMADD231PD Z18, Z21, K1, Z6
	VFMADD231PD Z19, Z21, K1, Z7
	VFMADD231PD Z16, Z22, K1, Z8
	VFMADD231PD Z17, Z22, K1, Z9
	VFMADD231PD Z18, Z22, K1, Z10
	VFMADD231PD Z19, Z22, K1, Z11
	VFMADD231PD Z16, Z23, K1, Z12
	VFMADD231PD Z17, Z23, K1, Z13
	VFMADD231PD Z18, Z23, K1, Z14
	VFMADD231PD Z19, Z23, K1, Z15

d4x4tails:
	// AX = 8·(n &^ 3) is the tail's byte offset, CX its length.
	MOVQ CX, AX
	ANDQ $-4, AX
	SHLQ $3, AX
	ANDQ $3, CX
	VPXORQ Z24, Z24, Z24
	VPXORQ Z25, Z25, Z25
	VPXORQ Z26, Z26, Z26
	VPXORQ Z27, Z27, Z27
	VPXORQ Z28, Z28, Z28
	VPXORQ Z29, Z29, Z29
	VPXORQ Z30, Z30, Z30
	VPXORQ Z31, Z31, Z31
	MOVQ CX, DX
	TESTQ DX, DX
	JZ    d4x4sumA

d4x4tailA:
	VMOVSD (SI)(AX*1), X16
	VMOVSD (DI)(AX*1), X17
	VFMADD231SD (R8)(AX*1), X16, X24
	VFMADD231SD (R9)(AX*1), X16, X25
	VFMADD231SD (R10)(AX*1), X16, X26
	VFMADD231SD (R11)(AX*1), X16, X27
	VFMADD231SD (R8)(AX*1), X17, X28
	VFMADD231SD (R9)(AX*1), X17, X29
	VFMADD231SD (R10)(AX*1), X17, X30
	VFMADD231SD (R11)(AX*1), X17, X31
	ADDQ $8, AX
	DECQ DX
	JNZ  d4x4tailA

d4x4sumA:
	D4X4SUM(Z0, X0, X24, 0)
	D4X4SUM(Z1, X1, X25, 8)
	D4X4SUM(Z2, X2, X26, 16)
	D4X4SUM(Z3, X3, X27, 24)
	D4X4SUM(Z4, X4, X28, 32)
	D4X4SUM(Z5, X5, X29, 40)
	D4X4SUM(Z6, X6, X30, 48)
	D4X4SUM(Z7, X7, X31, 56)
	VPXORQ Z24, Z24, Z24
	VPXORQ Z25, Z25, Z25
	VPXORQ Z26, Z26, Z26
	VPXORQ Z27, Z27, Z27
	VPXORQ Z28, Z28, Z28
	VPXORQ Z29, Z29, Z29
	VPXORQ Z30, Z30, Z30
	VPXORQ Z31, Z31, Z31
	MOVQ n+64(FP), AX
	ANDQ $-4, AX
	SHLQ $3, AX
	TESTQ CX, CX
	JZ    d4x4sumB

d4x4tailB:
	VMOVSD (BX)(AX*1), X16
	VMOVSD (R12)(AX*1), X17
	VFMADD231SD (R8)(AX*1), X16, X24
	VFMADD231SD (R9)(AX*1), X16, X25
	VFMADD231SD (R10)(AX*1), X16, X26
	VFMADD231SD (R11)(AX*1), X16, X27
	VFMADD231SD (R8)(AX*1), X17, X28
	VFMADD231SD (R9)(AX*1), X17, X29
	VFMADD231SD (R10)(AX*1), X17, X30
	VFMADD231SD (R11)(AX*1), X17, X31
	ADDQ $8, AX
	DECQ CX
	JNZ  d4x4tailB

d4x4sumB:
	D4X4SUM(Z8, X8, X24, 64)
	D4X4SUM(Z9, X9, X25, 72)
	D4X4SUM(Z10, X10, X26, 80)
	D4X4SUM(Z11, X11, X27, 88)
	D4X4SUM(Z12, X12, X28, 96)
	D4X4SUM(Z13, X13, X29, 104)
	D4X4SUM(Z14, X14, X30, 112)
	D4X4SUM(Z15, X15, X31, 120)
	VZEROUPPER
	RET
