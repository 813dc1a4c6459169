#include "textflag.h"

// The AVX2+FMA activation kernels behind activation_amd64.go. Each runs
// whole groups of four lanes, each lane on its own input, and stops before
// the first group that holds a lane it does not cover, returning how many
// elements it set. Only VEX-encoded instructions run here, and every path
// ends with VZEROUPPER before returning to SSE code.

// exp's constants, as text from $GOROOT/src/math/exp_amd64.s.
#define LOG2E 1.4426950408889634073599246810018920 // 1/LN2
#define LN2U 0.69314718055966295651160180568695068359375 // upper half LN2
#define LN2L 0.28235290563031577122588448175013436025525412068e-12 // lower half LN2

// QUAD defines name<>(SB) as four float64 lanes of the constant v.
#define QUAD(name, v) DATA name<>+0(SB)/8, v; DATA name<>+8(SB)/8, v; DATA name<>+16(SB)/8, v; DATA name<>+24(SB)/8, v; GLOBL name<>(SB), RODATA|NOPTR, $32

QUAD(log2e, $LOG2E)
QUAD(ln2u, $LN2U)
QUAD(ln2l, $LN2L)
QUAD(sixteenth, $0.0625)
QUAD(half, $0.5)
QUAD(one, $1.0)
QUAD(two, $2.0)
QUAD(taylor3, $1.6666666666666666667e-1)
QUAD(taylor4, $4.1666666666666666667e-2)
QUAD(taylor5, $8.3333333333333333333e-3)
QUAD(taylor6, $1.3888888888888888889e-3)
QUAD(taylor7, $1.9841269841269841270e-4)
QUAD(taylor8, $2.4801587301587301587e-5)

// tanh's constants, as text from $GOROOT/src/math/tanh.go; halfMaxlog is
// the bits of 0.5*MAXLOG.
QUAD(tanhP0, $-9.64399179425052238628e-1)
QUAD(tanhP1, $-9.92877231001918586564e1)
QUAD(tanhP2, $-1.61468768441708447952e3)
QUAD(tanhQ0, $1.12811678491632931402e2)
QUAD(tanhQ1, $2.23548839060100448583e3)
QUAD(tanhQ2, $4.84406305325125486048e3)
QUAD(tanhSplit, $0.625)
QUAD(halfMaxlog, $0x404601e678fc457b)
QUAD(expCap, $100.0)

QUAD(expLimit, $708.0)
QUAD(absMask, $0x7fffffffffffffff)
QUAD(signBit, $0x8000000000000000)

// The exponent bias, as four int32 lanes.
DATA bias<>+0(SB)/4, $0x3ff
DATA bias<>+4(SB)/4, $0x3ff
DATA bias<>+8(SB)/4, $0x3ff
DATA bias<>+12(SB)/4, $0x3ff
GLOBL bias<>(SB), RODATA|NOPTR, $16

// EXP sets every lane of the YMM register x to its exponential, by the
// FMA path of math.archExp in packed form. Every lane must hold a value in
// [-708, 708], where the scalar code takes neither its overflow nor its
// denormal branch. n, nb and p are YMM scratch; ni is the XMM half of nb.
#define EXP(x, n, ni, nb, p) \
	VMULPD       log2e<>(SB), x, n; \
	VCVTPD2DQY   n, ni; \
	VCVTDQ2PD    ni, n; \
	VFNMADD231PD ln2u<>(SB), n, x; \
	VFNMADD231PD ln2l<>(SB), n, x; \
	VMULPD       sixteenth<>(SB), x, x; \
	VMOVUPD      taylor8<>(SB), p; \
	VFMADD213PD  taylor7<>(SB), x, p; \
	VFMADD213PD  taylor6<>(SB), x, p; \
	VFMADD213PD  taylor5<>(SB), x, p; \
	VFMADD213PD  taylor4<>(SB), x, p; \
	VFMADD213PD  taylor3<>(SB), x, p; \
	VFMADD213PD  half<>(SB), x, p; \
	VFMADD213PD  one<>(SB), x, p; \
	VMULPD       p, x, x; \
	VADDPD       two<>(SB), x, p; \
	VMULPD       p, x, x; \
	VADDPD       two<>(SB), x, p; \
	VMULPD       p, x, x; \
	VADDPD       two<>(SB), x, p; \
	VMULPD       p, x, x; \
	VADDPD       two<>(SB), x, p; \
	VFMADD213PD  one<>(SB), p, x; \
	VPADDD       bias<>(SB), ni, ni; \
	VPMOVZXDQ    ni, nb; \
	VPSLLQ       $52, nb, nb; \
	VMULPD       nb, x, x

// func exp4(dst, x []float64) int
TEXT ·exp4(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	ANDQ $-4, CX               // elements in whole groups
	XORQ AX, AX                // elements set

exp_group:
	CMPQ AX, CX
	JAE  exp_done
	VMOVUPD (SI)(AX*8), Y0
	VANDPD  absMask<>(SB), Y0, Y4
	VCMPPD  $0x16, expLimit<>(SB), Y4, Y4 // NLE_UQ: |x| > 708 or NaN
	VMOVMSKPD Y4, BX
	TESTL BX, BX
	JNZ  exp_done
	EXP(Y0, Y1, X2, Y2, Y3)
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  exp_group

exp_done:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func sigmoid4(dst, x []float64) int
//
// e = exp(x XOR sign) where x >= 0, else exp(x): the scalar's exp(-x) and
// exp(x), with ±0 exact. The result is (x >= 0 ? 1 : e) / (1 + e).
TEXT ·sigmoid4(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	ANDQ $-4, CX
	XORQ AX, AX
	VXORPD Y7, Y7, Y7

sig_group:
	CMPQ AX, CX
	JAE  sig_done
	VMOVUPD (SI)(AX*8), Y5
	VANDPD  absMask<>(SB), Y5, Y4
	VCMPPD  $0x16, expLimit<>(SB), Y4, Y4 // NLE_UQ: |x| > 708 or NaN
	VMOVMSKPD Y4, BX
	TESTL BX, BX
	JNZ  sig_done
	VCMPPD  $0x1d, Y7, Y5, Y6             // GE_OQ: x >= 0
	VANDPD  signBit<>(SB), Y6, Y0
	VXORPD  Y5, Y0, Y0
	EXP(Y0, Y1, X2, Y2, Y3)
	VADDPD  one<>(SB), Y0, Y4
	VBLENDVPD Y6, one<>(SB), Y0, Y0
	VDIVPD  Y4, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  sig_group

sig_done:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func tanh4(dst, x []float64) int
//
// Both branches of math.tanh, then three blends. With z = |x| and
// s = x·x, the rational branch is x + x·s·P(s)/Q(s), one VMULPD and one
// VADDPD per step in tanh.go's order; the exponential branch is
// 1 − 2/(exp(min(2z, 100)) + 1) with x's sign, the cap keeping exp in
// range for lanes the next blend sets to ±1. The exponential branch is
// taken where z >= 0.625, ±1 where z > 0.5·MAXLOG, and x itself where
// x == 0.
TEXT ·tanh4(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	ANDQ $-4, CX
	XORQ AX, AX
	VXORPD Y5, Y5, Y5

tanh_group:
	CMPQ AX, CX
	JAE  tanh_done
	VMOVUPD (SI)(AX*8), Y6
	VCMPPD  $0x03, Y6, Y6, Y4             // UNORD_Q: NaN
	VMOVMSKPD Y4, BX
	TESTL BX, BX
	JNZ  tanh_done
	VANDPD  absMask<>(SB), Y6, Y7         // z
	VANDPD  signBit<>(SB), Y6, Y14        // x's sign

	VMULPD  Y6, Y6, Y8                    // s
	VMULPD  tanhP0<>(SB), Y8, Y9
	VADDPD  tanhP1<>(SB), Y9, Y9
	VMULPD  Y8, Y9, Y9
	VADDPD  tanhP2<>(SB), Y9, Y9          // P(s)
	VADDPD  tanhQ0<>(SB), Y8, Y10
	VMULPD  Y8, Y10, Y10
	VADDPD  tanhQ1<>(SB), Y10, Y10
	VMULPD  Y8, Y10, Y10
	VADDPD  tanhQ2<>(SB), Y10, Y10        // Q(s)
	VMULPD  Y8, Y6, Y11
	VMULPD  Y9, Y11, Y11
	VDIVPD  Y10, Y11, Y11
	VADDPD  Y11, Y6, Y11                  // the rational branch

	VMULPD  two<>(SB), Y7, Y0
	VMINPD  expCap<>(SB), Y0, Y0
	EXP(Y0, Y1, X2, Y2, Y3)
	VADDPD  one<>(SB), Y0, Y0
	VMOVUPD two<>(SB), Y12
	VDIVPD  Y0, Y12, Y12
	VMOVUPD one<>(SB), Y13
	VSUBPD  Y12, Y13, Y12
	VXORPD  Y14, Y12, Y12                 // the exponential branch

	VCMPPD  $0x1d, tanhSplit<>(SB), Y7, Y8 // GE_OQ: z >= 0.625
	VBLENDVPD Y8, Y12, Y11, Y0
	VCMPPD  $0x1e, halfMaxlog<>(SB), Y7, Y8 // GT_OQ: z > 0.5·MAXLOG
	VXORPD  one<>(SB), Y14, Y12           // ±1
	VBLENDVPD Y8, Y12, Y0, Y0
	VCMPPD  $0x00, Y5, Y6, Y8             // EQ_OQ: x == 0
	VBLENDVPD Y8, Y6, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  tanh_group

tanh_done:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET
