#include "textflag.h"

// The AVX kernels behind kernel_amd64.go. Every YMM accumulator holds four
// different outputs; each starts from +0 (VXORPD) and takes one VMULPD
// then one VADDPD per term, in the order the Go loop adds the terms. Only
// VEX-encoded vector instructions run here, and every path ends with
// VZEROUPPER before returning to SSE code. An exact-zero test reads the
// value's bits into a general register (x == ±0 exactly when x<<1 == 0),
// so no scalar SSE instruction runs inside a kernel.

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

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// func mulVec4(dst, a, x []float64, stride int)
//
// Four rows at a time: for each block of four columns, multiply each row's
// block by x's block, transpose the four products in registers so that
// vector c holds column c of the four rows, and add the four columns to
// the accumulator in column order.
TEXT ·mulVec4(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), R9
	SHLQ $3, R9                // bytes of x the kernel reads
	MOVQ stride+72(FP), R8
	SHLQ $3, R8                // bytes per row of a
	LEAQ (R8)(R8*2), BX        // three rows
	SHRQ $2, CX                // groups of four rows
	JZ   mv_done

mv_group:
	VXORPD Y0, Y0, Y0
	LEAQ (SI)(R8*1), R10
	LEAQ (SI)(R8*2), R11
	LEAQ (SI)(BX*1), R12
	XORQ AX, AX
	CMPQ AX, R9
	JAE  mv_store

mv_cols:
	VMOVUPD (DX)(AX*1), Y5
	VMULPD  (SI)(AX*1), Y5, Y1
	VMULPD  (R10)(AX*1), Y5, Y2
	VMULPD  (R11)(AX*1), Y5, Y3
	VMULPD  (R12)(AX*1), Y5, Y4
	VUNPCKLPD  Y2, Y1, Y6      // p0[0] p1[0] p0[2] p1[2]
	VUNPCKHPD  Y2, Y1, Y7      // p0[1] p1[1] p0[3] p1[3]
	VUNPCKLPD  Y4, Y3, Y8      // p2[0] p3[0] p2[2] p3[2]
	VUNPCKHPD  Y4, Y3, Y9      // p2[1] p3[1] p2[3] p3[3]
	VPERM2F128 $0x20, Y8, Y6, Y1 // column 0
	VPERM2F128 $0x20, Y9, Y7, Y2 // column 1
	VPERM2F128 $0x31, Y8, Y6, Y3 // column 2
	VPERM2F128 $0x31, Y9, Y7, Y4 // column 3
	VADDPD Y1, Y0, Y0
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y0, Y0
	VADDPD Y4, Y0, Y0
	ADDQ $32, AX
	CMPQ AX, R9
	JB   mv_cols

mv_store:
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	LEAQ (SI)(R8*4), SI
	DECQ CX
	JNZ  mv_group

mv_done:
	VZEROUPPER
	RET

// func tmulVec4(dst, a, x []float64, stride int)
//
// Sixteen columns at a time (four accumulators), then four at a time;
// inside a block the rows run in increasing order.
TEXT ·tmulVec4(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX     // columns left
	MOVQ a_base+24(FP), SI     // a + the block's first column
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), R9      // rows
	MOVQ stride+72(FP), R8
	SHLQ $3, R8

tm_wide:
	CMPQ CX, $16
	JB   tm_narrow
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, R10
	XORQ BX, BX
	TESTQ R9, R9
	JZ   tm_wide_store

tm_wide_row:
	MOVQ (DX)(BX*8), AX
	SHLQ $1, AX
	JZ   tm_wide_next
	VBROADCASTSD (DX)(BX*8), Y4
	VMULPD (R10), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD 32(R10), Y4, Y6
	VADDPD Y6, Y1, Y1
	VMULPD 64(R10), Y4, Y7
	VADDPD Y7, Y2, Y2
	VMULPD 96(R10), Y4, Y8
	VADDPD Y8, Y3, Y3

tm_wide_next:
	ADDQ R8, R10
	INCQ BX
	CMPQ BX, R9
	JB   tm_wide_row

tm_wide_store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $16, CX
	JMP  tm_wide

tm_narrow:
	CMPQ CX, $4
	JB   tm_done
	VXORPD Y0, Y0, Y0
	MOVQ SI, R10
	XORQ BX, BX
	TESTQ R9, R9
	JZ   tm_narrow_store

tm_narrow_row:
	MOVQ (DX)(BX*8), AX
	SHLQ $1, AX
	JZ   tm_narrow_next
	VBROADCASTSD (DX)(BX*8), Y4
	VMULPD (R10), Y4, Y5
	VADDPD Y5, Y0, Y0

tm_narrow_next:
	ADDQ R8, R10
	INCQ BX
	CMPQ BX, R9
	JB   tm_narrow_row

tm_narrow_store:
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $4, CX
	JMP  tm_narrow

tm_done:
	VZEROUPPER
	RET

// func addOuter4(m, a, b []float64, stride int)
//
// Sixteen columns at a time, with b's block held in four registers, then
// four at a time; a row whose a value is exactly zero is left as it is.
TEXT ·addOuter4(SB), NOSPLIT, $0-80
	MOVQ m_base+0(FP), DI      // m + the block's first column
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), R9      // rows
	MOVQ b_base+48(FP), DX     // b + the block's first column
	MOVQ b_len+56(FP), CX      // columns left
	MOVQ stride+72(FP), R8
	SHLQ $3, R8
	TESTQ R9, R9
	JZ   ao_done

ao_wide:
	CMPQ CX, $16
	JB   ao_narrow
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD 64(DX), Y2
	VMOVUPD 96(DX), Y3
	MOVQ DI, R10
	XORQ BX, BX

ao_wide_row:
	MOVQ (SI)(BX*8), AX
	SHLQ $1, AX
	JZ   ao_wide_next
	VBROADCASTSD (SI)(BX*8), Y4
	VMULPD Y0, Y4, Y5
	VMULPD Y1, Y4, Y6
	VMULPD Y2, Y4, Y7
	VMULPD Y3, Y4, Y8
	VADDPD (R10), Y5, Y5
	VADDPD 32(R10), Y6, Y6
	VADDPD 64(R10), Y7, Y7
	VADDPD 96(R10), Y8, Y8
	VMOVUPD Y5, (R10)
	VMOVUPD Y6, 32(R10)
	VMOVUPD Y7, 64(R10)
	VMOVUPD Y8, 96(R10)

ao_wide_next:
	ADDQ R8, R10
	INCQ BX
	CMPQ BX, R9
	JB   ao_wide_row
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $16, CX
	JMP  ao_wide

ao_narrow:
	CMPQ CX, $4
	JB   ao_done
	VMOVUPD (DX), Y0
	MOVQ DI, R10
	XORQ BX, BX

ao_narrow_row:
	MOVQ (SI)(BX*8), AX
	SHLQ $1, AX
	JZ   ao_narrow_next
	VBROADCASTSD (SI)(BX*8), Y4
	VMULPD Y0, Y4, Y5
	VADDPD (R10), Y5, Y5
	VMOVUPD Y5, (R10)

ao_narrow_next:
	ADDQ R8, R10
	INCQ BX
	CMPQ BX, R9
	JB   ao_narrow_row
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $4, CX
	JMP  ao_narrow

ao_done:
	VZEROUPPER
	RET

// func mulStrided4(out, a, b []float64, rows, k, n, ars, aks int)
//
// Row by row; sixteen columns at a time (four accumulators), then four at
// a time. The terms of an output run over kk in increasing order: a's
// element broadcast, times b's row kk.
TEXT ·mulStrided4(SB), NOSPLIT, $0-112
	MOVQ out_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ rows+72(FP), CX
	MOVQ n+88(FP), R8
	SHLQ $3, R8                // bytes per row of b and of out
	MOVQ ars+96(FP), R11
	SHLQ $3, R11
	MOVQ aks+104(FP), R12
	SHLQ $3, R12
	MOVQ R8, R13
	ANDQ $-32, R13             // bytes of the vector columns
	TESTQ CX, CX
	JZ   ms_done

ms_row:
	XORQ AX, AX                // column offset, bytes

ms_wide:
	LEAQ 128(AX), R10
	CMPQ R10, R13
	JA   ms_narrow
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, BX
	LEAQ (DX)(AX*1), R10
	MOVQ k+80(FP), R9
	TESTQ R9, R9
	JZ   ms_wide_store

ms_wide_k:
	VBROADCASTSD (BX), Y4
	VMULPD (R10), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD 32(R10), Y4, Y6
	VADDPD Y6, Y1, Y1
	VMULPD 64(R10), Y4, Y7
	VADDPD Y7, Y2, Y2
	VMULPD 96(R10), Y4, Y8
	VADDPD Y8, Y3, Y3
	ADDQ R12, BX
	ADDQ R8, R10
	DECQ R9
	JNZ  ms_wide_k

ms_wide_store:
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	VMOVUPD Y2, 64(DI)(AX*1)
	VMOVUPD Y3, 96(DI)(AX*1)
	ADDQ $128, AX
	JMP  ms_wide

ms_narrow:
	CMPQ AX, R13
	JAE  ms_next
	VXORPD Y0, Y0, Y0
	MOVQ SI, BX
	LEAQ (DX)(AX*1), R10
	MOVQ k+80(FP), R9
	TESTQ R9, R9
	JZ   ms_narrow_store

ms_narrow_k:
	VBROADCASTSD (BX), Y4
	VMULPD (R10), Y4, Y5
	VADDPD Y5, Y0, Y0
	ADDQ R12, BX
	ADDQ R8, R10
	DECQ R9
	JNZ  ms_narrow_k

ms_narrow_store:
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	JMP  ms_narrow

ms_next:
	ADDQ R8, DI
	ADDQ R11, SI
	DECQ CX
	JNZ  ms_row

ms_done:
	VZEROUPPER
	RET
