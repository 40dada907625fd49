#include "textflag.h"

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xcr0() uint32
TEXT ·xcr0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// In Go's operand order, VSUBPD B, A, D computes D = A - B and
// VDIVPD B, A, D computes D = A / B: A, the target or accumulator, is
// the first source, so a NaN in it wins as it does in SUBSD and DIVSD.

// func forward8AVX(w []float64, rows []int, vals []float64, k, bj int)
TEXT ·forward8AVX(SB), NOSPLIT, $0-88
	MOVQ w_base+0(FP), DI
	MOVQ rows_base+24(FP), SI
	MOVQ rows_len+32(FP), CX
	MOVQ vals_base+48(FP), DX
	MOVQ k+72(FP), R8
	MOVQ bj+80(FP), AX
	SHLQ $3, R8 // row stride in bytes
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	XORQ BX, BX
	JMP f8cond

f8loop:
	MOVQ (SI)(BX*8), R9
	IMULQ R8, R9
	VBROADCASTSD (DX)(BX*8), Y2
	VMULPD Y0, Y2, Y3
	VMULPD Y1, Y2, Y4
	VMOVUPD (DI)(R9*1), Y5
	VMOVUPD 32(DI)(R9*1), Y6
	VSUBPD Y3, Y5, Y5
	VSUBPD Y4, Y6, Y6
	VMOVUPD Y5, (DI)(R9*1)
	VMOVUPD Y6, 32(DI)(R9*1)
	INCQ BX

f8cond:
	CMPQ BX, CX
	JLT f8loop
	VZEROUPPER
	RET

// func forward4AVX(w []float64, rows []int, vals []float64, k, bj int)
TEXT ·forward4AVX(SB), NOSPLIT, $0-88
	MOVQ w_base+0(FP), DI
	MOVQ rows_base+24(FP), SI
	MOVQ rows_len+32(FP), CX
	MOVQ vals_base+48(FP), DX
	MOVQ k+72(FP), R8
	MOVQ bj+80(FP), AX
	SHLQ $3, R8
	VMOVUPD (DI)(AX*8), Y0
	XORQ BX, BX
	JMP f4cond

f4loop:
	MOVQ (SI)(BX*8), R9
	IMULQ R8, R9
	VBROADCASTSD (DX)(BX*8), Y2
	VMULPD Y0, Y2, Y3
	VMOVUPD (DI)(R9*1), Y5
	VSUBPD Y3, Y5, Y5
	VMOVUPD Y5, (DI)(R9*1)
	INCQ BX

f4cond:
	CMPQ BX, CX
	JLT f4loop
	VZEROUPPER
	RET

// func backward8AVX(w []float64, rows []int, vals []float64, k, bj int)
TEXT ·backward8AVX(SB), NOSPLIT, $0-88
	MOVQ w_base+0(FP), DI
	MOVQ rows_base+24(FP), SI
	MOVQ rows_len+32(FP), CX
	MOVQ vals_base+48(FP), DX
	MOVQ k+72(FP), R8
	MOVQ bj+80(FP), AX
	SHLQ $3, R8
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	XORQ BX, BX
	JMP b8cond

b8loop:
	MOVQ (SI)(BX*8), R9
	IMULQ R8, R9
	VBROADCASTSD (DX)(BX*8), Y2
	VMULPD (DI)(R9*1), Y2, Y3
	VMULPD 32(DI)(R9*1), Y2, Y4
	VSUBPD Y3, Y0, Y0
	VSUBPD Y4, Y1, Y1
	INCQ BX

b8cond:
	CMPQ BX, CX
	JLT b8loop
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VZEROUPPER
	RET

// func backward4AVX(w []float64, rows []int, vals []float64, k, bj int)
TEXT ·backward4AVX(SB), NOSPLIT, $0-88
	MOVQ w_base+0(FP), DI
	MOVQ rows_base+24(FP), SI
	MOVQ rows_len+32(FP), CX
	MOVQ vals_base+48(FP), DX
	MOVQ k+72(FP), R8
	MOVQ bj+80(FP), AX
	SHLQ $3, R8
	VMOVUPD (DI)(AX*8), Y0
	XORQ BX, BX
	JMP b4cond

b4loop:
	MOVQ (SI)(BX*8), R9
	IMULQ R8, R9
	VBROADCASTSD (DX)(BX*8), Y2
	VMULPD (DI)(R9*1), Y2, Y3
	VSUBPD Y3, Y0, Y0
	INCQ BX

b4cond:
	CMPQ BX, CX
	JLT b4loop
	VMOVUPD Y0, (DI)(AX*8)
	VZEROUPPER
	RET

// func divideAVX(w, d []float64, k int)
TEXT ·divideAVX(SB), NOSPLIT, $0-56
	MOVQ w_base+0(FP), DI
	MOVQ d_base+24(FP), SI
	MOVQ d_len+32(FP), CX
	MOVQ k+48(FP), R8
	XORQ BX, BX
	JMP rowcond

row:
	VBROADCASTSD (SI)(BX*8), Y1
	MOVQ R8, DX // lanes left in row BX
	JMP quadcond

quad:
	VMOVUPD (DI), Y0
	VDIVPD Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	SUBQ $4, DX

quadcond:
	CMPQ DX, $4
	JGE quad
	JMP onecond

one:
	VMOVSD (DI), X0
	VDIVSD X1, X0, X0
	VMOVSD X0, (DI)
	ADDQ $8, DI
	DECQ DX

onecond:
	TESTQ DX, DX
	JNZ one
	INCQ BX

rowcond:
	CMPQ BX, CX
	JLT row
	VZEROUPPER
	RET
