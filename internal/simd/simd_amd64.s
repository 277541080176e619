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

// RBFRANGE8 turns the r² sums in ZX into x = −r²/2 and classifies the
// lanes: KIN gets those math.Exp's normal return covers, x in [−708, 709]
// (false for NaN), and KOK those plus the x ≤ −746 lanes, where e^x is +0.
#define RBFRANGE8(ZX, KIN, KOK) \
	VMULPD Z14, ZX, ZX; \
	VCMPPD $0x1d, Z13, ZX, KIN; \
	VCMPPD $0x12, Z12, ZX, KIN, KIN; \
	VCMPPD $0x12, Z11, ZX, KOK; \
	KORW   KIN, KOK, KOK

// RBFEXP8 replaces x in ZX by vr·e^x, rbfARDAsm's steps eight lanes wide
// (see there), with +0 in the lanes outside KIN; ZK, YK (ZK's low half),
// ZP, ZE and ZM are scratch.
#define RBFEXP8(ZX, ZK, YK, ZP, ZE, ZM, KIN) \
	VMULPD.BCST       EXP_LOG2E(DX), ZX, ZK; \
	VCVTPD2DQ         ZK, YK; \
	VCVTDQ2PD         YK, ZK; \
	VFNMADD231PD.BCST EXP_LN2U(DX), ZK, ZX; \
	VFNMADD231PD.BCST EXP_LN2L(DX), ZK, ZX; \
	VMULPD.BCST       EXP_SIXTEENTH(DX), ZX, ZX; \
	VBROADCASTSD      EXP_C8(DX), ZP; \
	VFMADD213PD.BCST  EXP_C7(DX), ZX, ZP; \
	VFMADD213PD.BCST  EXP_C6(DX), ZX, ZP; \
	VFMADD213PD.BCST  EXP_C5(DX), ZX, ZP; \
	VFMADD213PD.BCST  EXP_C4(DX), ZX, ZP; \
	VFMADD213PD.BCST  EXP_C3(DX), ZX, ZP; \
	VFMADD213PD.BCST  EXP_HALF(DX), ZX, ZP; \
	VFMADD213PD.BCST  EXP_ONE(DX), ZX, ZP; \
	VMULPD            ZP, ZX, ZX; \
	VADDPD.BCST       EXP_TWO(DX), ZX, ZP; \
	VMULPD            ZP, ZX, ZX; \
	VADDPD.BCST       EXP_TWO(DX), ZX, ZP; \
	VMULPD            ZP, ZX, ZX; \
	VADDPD.BCST       EXP_TWO(DX), ZX, ZP; \
	VMULPD            ZP, ZX, ZX; \
	VADDPD.BCST       EXP_TWO(DX), ZX, ZP; \
	VFMADD213PD.BCST  EXP_ONE(DX), ZP, ZX; \
	VPMOVSXDQ         YK, ZE; \
	VPADDQ.BCST       EXP_BIAS(DX), ZE, ZE; \
	VPSLLQ            $52, ZE, ZE; \
	VMULPD            ZE, ZX, ZX; \
	VPXORQ            ZM, ZM, ZM; \
	VMOVAPD           ZX, KIN, ZM; \
	VMULPD            Z15, ZM, ZX

// func rbfARDx512(dst, sqd, inv2 *float64, d, stride, n int, vr float64) int
//
// rbfARDAsm eight pairs per block, with the range masks in K registers; n
// is a multiple of 8. Two blocks run side by side while both fit, so their
// r² chains (one add per dimension) and exp steps overlap; a pair of
// blocks with a lane that needs math.Exp goes back to one block at a time,
// which stops at that block. Every lane takes the same operations either
// way. Only AVX512F instructions are used, matching the useAVX512 gate: a
// merge-masked move into a zeroed register replaces VANDPD, which needs DQ
// on ZMM.
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

ardloop16:
	LEAQ 16(AX), R13
	CMPQ R13, CX
	JGT  ardloop8
	VPXORQ Z0, Z0, Z0
	VPXORQ Z16, Z16, Z16
	LEAQ (SI)(AX*8), R11
	XORQ R12, R12

ardk16:
	VBROADCASTSD (R8)(R12*8), Z5
	VMULPD       (R11), Z5, Z1
	VMULPD       64(R11), Z5, Z17
	VADDPD       Z1, Z0, Z0      // r² += sqd·inv2[k]
	VADDPD       Z17, Z16, Z16
	ADDQ R10, R11
	INCQ R12
	CMPQ R12, R9
	JLT  ardk16

	RBFRANGE8(Z0, K1, K2)
	RBFRANGE8(Z16, K3, K4)
	KANDW K2, K4, K4
	KMOVW K4, BX
	CMPL  BX, $0xff
	JNE   ardloop8               // a lane needs math.Exp
	RBFEXP8(Z0, Z1, Y2, Z3, Z4, Z6, K1)
	RBFEXP8(Z16, Z17, Y18, Z19, Z20, Z21, K3)
	VMOVUPD Z0, (DI)(AX*8)
	VMOVUPD Z16, 64(DI)(AX*8)
	ADDQ $16, AX
	JMP  ardloop16

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

	RBFRANGE8(Z0, K1, K2)
	KMOVW K2, BX
	CMPL  BX, $0xff
	JNE   arddone8               // a lane needs math.Exp
	RBFEXP8(Z0, Z1, Y2, Z3, Z4, Z6, K1)
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


// D4X4ROWS loads element OFF(AX) of the rows p0..p3 into elements 0–3 of
// ZD (EVEX, so Z16–Z31 may be used), zeroing the rest; XT is scratch.
#define D4X4ROWS(OFF, ZD, XD, XT) \
	VMOVSD       OFF(SI)(AX*1), XD; \
	VMOVHPD      OFF(DI)(AX*1), XD, XD; \
	VMOVSD       OFF(BX)(AX*1), XT; \
	VMOVHPD      OFF(R12)(AX*1), XT, XT; \
	VINSERTF32X4 $1, XT, ZD, ZD

// D4X4ROWSY is D4X4ROWS into the YMM register YD (VEX, Y0–Y15 only).
#define D4X4ROWSY(OFF, YD, XD, XT) \
	VMOVSD      OFF(SI)(AX*1), XD; \
	VMOVHPD     OFF(DI)(AX*1), XD, XD; \
	VMOVSD      OFF(BX)(AX*1), XT; \
	VMOVHPD     OFF(R12)(AX*1), XT, XT; \
	VINSERTF128 $1, XT, YD, YD

// D4X4LANES sets YS, already +0, to n = 4's DotUnroll sums of the rows
// p0..p3, whose elements k = 0..3 are in Y4..Y7 as rows-as-lanes
// vectors, against the column at QC: each lane +0 + p[k]·q[k] (Y15 is
// +0), added to YS in k order.
#define D4X4LANES(QC, YS) \
	VBROADCASTSD (QC), Y8; \
	VMULPD       Y8, Y4, Y8; \
	VADDPD       Y15, Y8, Y8; \
	VADDPD       Y8, YS, YS; \
	VBROADCASTSD 8(QC), Y8; \
	VMULPD       Y8, Y5, Y8; \
	VADDPD       Y15, Y8, Y8; \
	VADDPD       Y8, YS, YS; \
	VBROADCASTSD 16(QC), Y8; \
	VMULPD       Y8, Y6, Y8; \
	VADDPD       Y15, Y8, Y8; \
	VADDPD       Y8, YS, YS; \
	VBROADCASTSD 24(QC), Y8; \
	VMULPD       Y8, Y7, Y8; \
	VADDPD       Y15, Y8, Y8; \
	VADDPD       Y8, YS, YS

// D4X4STORE stores the four elements of YS to element OFF(AX) of the rows
// p0..p3; XT is scratch.
#define D4X4STORE(OFF, YS, XS, XT) \
	VMOVSD       XS, OFF(SI)(AX*1); \
	VMOVHPD      XS, OFF(DI)(AX*1); \
	VEXTRACTF128 $1, YS, XT; \
	VMOVSD       XT, OFF(BX)(AX*1); \
	VMOVHPD      XT, OFF(R12)(AX*1)

// D4X4COL finishes column c's four sums, rows 0–3 in the accumulators
// ZR0..ZR3, into elements 0–3 of ZOUT (the rest zero), the way dot4Asm
// finishes a column: per row, the odd accumulator (high half) is added to
// the even one (low half), the upper pair of what is left to the lower
// pair, the two remaining lanes to each other, and then the scalar tail,
// element r of ZTAIL. Each step is one 512-bit add over two or four rows,
// with dot4Asm's operand order (the lower part first): VSHUFF64X2 and
// VUNPCKHPD line the operands up, and VCOMPRESSPD under K2 = 0x55 packs
// the rows' sums, left in elements 0, 2, 4 and 6, into elements 0–3.
#define D4X4COL(ZR0, ZR1, ZR2, ZR3, ZTAIL, ZOUT) \
	VSHUFF64X2    $0x44, ZR1, ZR0, Z16; \
	VSHUFF64X2    $0xee, ZR1, ZR0, Z17; \
	VADDPD        Z17, Z16, Z16; \
	VSHUFF64X2    $0x44, ZR3, ZR2, Z17; \
	VSHUFF64X2    $0xee, ZR3, ZR2, Z18; \
	VADDPD        Z18, Z17, Z17; \
	VSHUFF64X2    $0x88, Z17, Z16, Z18; \
	VSHUFF64X2    $0xdd, Z17, Z16, Z19; \
	VADDPD        Z19, Z18, Z18; \
	VUNPCKHPD     Z18, Z18, Z19; \
	VADDPD        Z19, Z18, Z18; \
	VCOMPRESSPD.Z Z18, K2, ZOUT; \
	VADDPD        ZTAIL, ZOUT, ZOUT

// func dot4x4Solve512(p, q *[4][]float64, n int)
//
// One 4×4 block of the Cholesky recurrence for four rows: the sixteen dot
// products p_r·q_c over n elements, each Dot4's sum bit for bit, then the
// block's triangular solve, which overwrites p_r[n:n+4]. p_r and q_c are
// the data pointers of the slices p[r] and q[c].
//
// For n ≥ 8 the sums are dot4Asm's. Z(4r+c) accumulates pair (r, c): its
// low half is dot4Asm's even accumulator Y(c) for row r and its high half
// the odd one Y(c+4), so one 512-bit FMA per pair and 8-element step does
// what dot4Asm's two 256-bit FMAs do, with the same operands per lane.
// Each operand is loaded once per step for all four pairs that use it. The
// 4-element step is merge-masked (K1 = 0x0f) to the low half, dot4Asm's
// even accumulators; its masked loads read only those four elements. The
// scalar tail runs with the rows as lanes: one FMA from zero per element,
// in index order, as in dot4Asm. D4X4COL then finishes each column's four
// sums. For n = 0 and 4 the sums are DotUnroll's, as Dot4 takes them below
// 8 elements (see d4ssmall).
//
// The solve keeps the rows as lanes too: one vector per column, element r
// for row r. It is the Go coupling, operation for operation: per column
// one VDIVPD by the broadcast diagonal entry q_c[n+c], and every product
// and sum a separate VMULPD, VADDPD or VSUBPD, in the association of the
// Go expressions. Only AVX512F instructions are used, matching the
// useAVX512 gate.
TEXT ·dot4x4Solve512(SB), NOSPLIT, $0-24
	MOVQ p+0(FP), AX
	MOVQ 0(AX), SI
	MOVQ 24(AX), DI
	MOVQ 48(AX), BX
	MOVQ 72(AX), R12
	MOVQ q+8(FP), AX
	MOVQ 0(AX), R8
	MOVQ 24(AX), R9
	MOVQ 48(AX), R10
	MOVQ 72(AX), R11
	MOVQ n+16(FP), CX
	CMPQ CX, $8
	JLT  d4ssmall
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

d4sloop8:
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
	JNZ  d4sloop8

d4squad:
	TESTQ $4, CX
	JZ    d4stails
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

d4stails:
	// AX = 8·(n &^ 3) is the tail's byte offset, DX its length. Column
	// c's tails accumulate in Z(24+c), row r in element r.
	MOVQ CX, AX
	ANDQ $-4, AX
	SHLQ $3, AX
	MOVQ CX, DX
	ANDQ $3, DX
	VPXORQ Z24, Z24, Z24
	VPXORQ Z25, Z25, Z25
	VPXORQ Z26, Z26, Z26
	VPXORQ Z27, Z27, Z27
	TESTQ DX, DX
	JZ    d4sreduce

d4stail:
	D4X4ROWS(0, Z20, X20, X21)
	VFMADD231PD.BCST (R8)(AX*1), Z20, Z24
	VFMADD231PD.BCST (R9)(AX*1), Z20, Z25
	VFMADD231PD.BCST (R10)(AX*1), Z20, Z26
	VFMADD231PD.BCST (R11)(AX*1), Z20, Z27
	ADDQ $8, AX
	DECQ DX
	JNZ  d4stail

d4sreduce:
	// AX = 8n now: the block's first column. s_c lands in Y(c), each
	// column's sums written after its accumulators are read.
	MOVQ  $0x55, DX
	KMOVW DX, K2
	D4X4COL(Z0, Z4, Z8, Z12, Z24, Z0)
	D4X4COL(Z1, Z5, Z9, Z13, Z25, Z1)
	D4X4COL(Z2, Z6, Z10, Z14, Z26, Z2)
	D4X4COL(Z3, Z7, Z11, Z15, Z27, Z3)
	JMP d4ssolve

d4ssmall:
	// n is 0 or 4. Each sum is DotUnroll's: (((t + l0) + l1) + l2) + l3,
	// its stride-4 lanes l_k = +0 + p[k]·q_c[k] for n = 4 and +0 for n = 0,
	// and its tail t = +0.
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ CX, AX
	SHLQ $3, AX
	TESTQ CX, CX
	JZ    d4ssolve
	XORQ AX, AX
	VXORPD Y15, Y15, Y15
	D4X4ROWSY(0, Y4, X4, X8)
	D4X4ROWSY(8, Y5, X5, X8)
	D4X4ROWSY(16, Y6, X6, X8)
	D4X4ROWSY(24, Y7, X7, X8)
	D4X4LANES(R8, Y0)
	D4X4LANES(R9, Y1)
	D4X4LANES(R10, Y2)
	D4X4LANES(R11, Y3)
	MOVQ $32, AX

d4ssolve:
	// The solve runs on YMM registers, whose divides are about twice as
	// fast as ZMM ones. a_c = p_r[n+c] lands in Y(4+c), the diagonal
	// entries q_c[n+c] in Y(12+c); v_c overwrites a_c.
	D4X4ROWSY(0, Y4, X4, X8)
	D4X4ROWSY(8, Y5, X5, X9)
	D4X4ROWSY(16, Y6, X6, X10)
	D4X4ROWSY(24, Y7, X7, X11)
	VBROADCASTSD (R8)(AX*1), Y12
	VBROADCASTSD 8(R9)(AX*1), Y13
	VBROADCASTSD 16(R10)(AX*1), Y14
	VBROADCASTSD 24(R11)(AX*1), Y15
	VSUBPD       Y0, Y4, Y4
	VDIVPD       Y12, Y4, Y4        // v0 = (a0 − s0) / q0[n]
	VBROADCASTSD (R9)(AX*1), Y8
	VMULPD       Y8, Y4, Y8
	VADDPD       Y8, Y1, Y1         // s1 += v0·q1[n]
	VSUBPD       Y1, Y5, Y5
	VDIVPD       Y13, Y5, Y5        // v1 = (a1 − s1) / q1[n+1]
	VBROADCASTSD (R10)(AX*1), Y8
	VMULPD       Y8, Y4, Y8
	VBROADCASTSD 8(R10)(AX*1), Y9
	VMULPD       Y9, Y5, Y9
	VADDPD       Y9, Y8, Y8
	VADDPD       Y8, Y2, Y2         // s2 += v0·q2[n] + v1·q2[n+1]
	VSUBPD       Y2, Y6, Y6
	VDIVPD       Y14, Y6, Y6        // v2 = (a2 − s2) / q2[n+2]
	VBROADCASTSD (R11)(AX*1), Y8
	VMULPD       Y8, Y4, Y8
	VBROADCASTSD 8(R11)(AX*1), Y9
	VMULPD       Y9, Y5, Y9
	VADDPD       Y9, Y8, Y8
	VBROADCASTSD 16(R11)(AX*1), Y9
	VMULPD       Y9, Y6, Y9
	VADDPD       Y9, Y8, Y8
	VADDPD       Y8, Y3, Y3         // s3 += v0·q3[n] + v1·q3[n+1] + v2·q3[n+2]
	VSUBPD       Y3, Y7, Y7
	VDIVPD       Y15, Y7, Y7        // v3 = (a3 − s3) / q3[n+3]
	D4X4STORE(0, Y4, X4, X8)
	D4X4STORE(8, Y5, X5, X9)
	D4X4STORE(16, Y6, X6, X10)
	D4X4STORE(24, Y7, X7, X11)
	VZEROUPPER
	RET

// func subScaledAsm(x, y *float64, n int, a float64)
//
// x[k] −= y[k]·a for k < n, a multiple of 4, four elements per step: a
// VMULPD then a VSUBPD per lane (never FMA), the scalar loop's two
// roundings, so each element is the scalar loop's to the bit.
TEXT ·subScaledAsm(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), DI
	MOVQ y+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD a+24(FP), Y15
	XORQ AX, AX
	SHRQ $2, CX
	JZ   ssdone4

ssloop4:
	VMULPD  (SI)(AX*8), Y15, Y0
	VMOVUPD (DI)(AX*8), Y1
	VSUBPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	DECQ CX
	JNZ  ssloop4

ssdone4:
	VZEROUPPER
	RET

// func subScaled512(x, y *float64, n int, a float64)
//
// subScaledAsm eight elements per step, for any n ≥ 1: the last 1–8
// elements run under a mask (K1), whose loads and stores touch only those
// elements.
TEXT ·subScaled512(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), DI
	MOVQ y+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD a+24(FP), Z15
	XORQ AX, AX
	DECQ CX
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   sslast8

ssloop8:
	VMULPD  (SI)(AX*8), Z15, Z0
	VMOVUPD (DI)(AX*8), Z1
	VSUBPD  Z0, Z1, Z1
	VMOVUPD Z1, (DI)(AX*8)
	ADDQ $8, AX
	DECQ DX
	JNZ  ssloop8

sslast8:
	// (n−1)&7 + 1 elements are left.
	ANDQ  $7, CX
	INCQ  CX
	MOVQ  $1, DX
	SHLQ  CX, DX
	DECQ  DX
	KMOVW DX, K1
	VMOVUPD.Z (SI)(AX*8), K1, Z2
	VMULPD    Z2, Z15, Z0
	VMOVUPD.Z (DI)(AX*8), K1, Z1
	VSUBPD    Z0, Z1, Z1
	VMOVUPD   Z1, K1, (DI)(AX*8)
	VZEROUPPER
	RET
