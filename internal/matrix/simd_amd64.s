#include "textflag.h"

// AVX2 versions of the vector kernels in simd.go. Each lane computes one
// output element with the operations and operand order of the generic Go
// loop: VMULPD, VADDPD and VSUBPD take the Go expression's left operand as
// their first source (Go assembler order: op src2, src1, dst). There is no
// FMA, no reassociation and no sum across lanes. Element tails run the same
// operations on scalars (VMULSD, VADDSD, VSUBSD).

// TRANSPOSE4 turns four row vectors R0..R3 (row r holds four consecutive
// elements of row r) into four column vectors: afterwards Ru holds element
// u of every row, row r in lane r. T0..T3 are clobbered.
#define TRANSPOSE4(R0, R1, R2, R3, T0, T1, T2, T3) \
	VUNPCKLPD  R1, R0, T0; \
	VUNPCKHPD  R1, R0, T1; \
	VUNPCKLPD  R3, R2, T2; \
	VUNPCKHPD  R3, R2, T3; \
	VPERM2F128 $0x20, T2, T0, R0; \
	VPERM2F128 $0x20, T3, T1, R1; \
	VPERM2F128 $0x31, T2, T0, R2; \
	VPERM2F128 $0x31, T3, T1, R3

// GATHER4 loads one element of each of four rows into the lanes of Y0:
// lane r = row r at the given index. X1 is clobbered.
#define GATHER4(M0, M1, M2, M3) \
	VMOVSD      M0, X0; \
	VMOVHPD     M1, X0, X0; \
	VMOVSD      M2, X1; \
	VMOVHPD     M3, X1, X1; \
	VINSERTF128 $1, X1, Y0, Y0

// ABT_TERMS adds a[r][t+u]*b[l][t+u] for the four rows r, where column
// vector T holds b[0..3][t+u] and OFF is 8u.
#define ABT_TERMS(T, OFF) \
	VBROADCASTSD OFF(SI), Y12; \
	VMULPD       T, Y12, Y12; \
	VADDPD       Y12, Y8, Y8; \
	VBROADCASTSD OFF(SI)(R10*1), Y13; \
	VMULPD       T, Y13, Y13; \
	VADDPD       Y13, Y9, Y9; \
	VBROADCASTSD OFF(SI)(R10*2), Y14; \
	VMULPD       T, Y14, Y14; \
	VADDPD       Y14, Y10, Y10; \
	VBROADCASTSD OFF(SI)(R11*1), Y15; \
	VMULPD       T, Y15, Y15; \
	VADDPD       Y15, Y11, Y11

// SQD_TERMS adds (a[r][t+u] - b[l][t+u])² for the four rows r.
#define SQD_TERMS(T, OFF) \
	VBROADCASTSD OFF(SI), Y12; \
	VSUBPD       T, Y12, Y12; \
	VMULPD       Y12, Y12, Y12; \
	VADDPD       Y12, Y8, Y8; \
	VBROADCASTSD OFF(SI)(R10*1), Y13; \
	VSUBPD       T, Y13, Y13; \
	VMULPD       Y13, Y13, Y13; \
	VADDPD       Y13, Y9, Y9; \
	VBROADCASTSD OFF(SI)(R10*2), Y14; \
	VSUBPD       T, Y14, Y14; \
	VMULPD       Y14, Y14, Y14; \
	VADDPD       Y14, Y10, Y10; \
	VBROADCASTSD OFF(SI)(R11*1), Y15; \
	VSUBPD       T, Y15, Y15; \
	VMULPD       Y15, Y15, Y15; \
	VADDPD       Y15, Y11, Y11

#define TILE_SETUP \
	MOVQ   out_base+0(FP), DI; \
	MOVQ   ldo+24(FP), R8; \
	SHLQ   $3, R8; \
	LEAQ   (R8)(R8*2), R9; \
	MOVQ   a_base+32(FP), SI; \
	MOVQ   lda+56(FP), R10; \
	SHLQ   $3, R10; \
	LEAQ   (R10)(R10*2), R11; \
	MOVQ   b_base+64(FP), DX; \
	MOVQ   ldb+88(FP), R12; \
	SHLQ   $3, R12; \
	LEAQ   (R12)(R12*2), R13; \
	MOVQ   k+96(FP), CX; \
	VXORPD Y8, Y8, Y8; \
	VXORPD Y9, Y9, Y9; \
	VXORPD Y10, Y10, Y10; \
	VXORPD Y11, Y11, Y11; \
	MOVQ   CX, BX; \
	SHRQ   $2, BX; \
	ANDQ   $3, CX

#define LOAD_B_ROWS \
	VMOVUPD (DX), Y0; \
	VMOVUPD (DX)(R12*1), Y1; \
	VMOVUPD (DX)(R12*2), Y2; \
	VMOVUPD (DX)(R13*1), Y3; \
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)

#define TILE_STORE \
	VMOVUPD Y8, (DI); \
	VMOVUPD Y9, (DI)(R8*1); \
	VMOVUPD Y10, (DI)(R8*2); \
	VMOVUPD Y11, (DI)(R9*1); \
	VZEROUPPER

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

// func addMul4AVX2(o, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64)
TEXT ·addMul4AVX2(SB), NOSPLIT, $0-152
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ b0_base+24(FP), R8
	MOVQ b1_base+48(FP), R9
	MOVQ b2_base+72(FP), R10
	MOVQ b3_base+96(FP), R11
	VBROADCASTSD a0+120(FP), Y0
	VBROADCASTSD a1+128(FP), Y1
	VBROADCASTSD a2+136(FP), Y2
	VBROADCASTSD a3+144(FP), Y3
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX
	JZ   addmul4_tail

addmul4_loop:
	VMOVUPD (DI)(AX*8), Y4
	VMULPD  (R8)(AX*8), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R9)(AX*8), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R10)(AX*8), Y2, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R11)(AX*8), Y3, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JLT     addmul4_loop

addmul4_tail:
	CMPQ AX, CX
	JGE  addmul4_done

addmul4_tail1:
	VMOVSD (DI)(AX*8), X4
	VMULSD (R8)(AX*8), X0, X5
	VADDSD X5, X4, X4
	VMULSD (R9)(AX*8), X1, X5
	VADDSD X5, X4, X4
	VMULSD (R10)(AX*8), X2, X5
	VADDSD X5, X4, X4
	VMULSD (R11)(AX*8), X3, X5
	VADDSD X5, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JLT    addmul4_tail1

addmul4_done:
	VZEROUPPER
	RET

// func axpyAVX2(y, x []float64, s float64)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ         y_base+0(FP), DI
	MOVQ         y_len+8(FP), CX
	MOVQ         x_base+24(FP), SI
	VBROADCASTSD s+48(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-4, DX
	JZ           axpy_tail

axpy_loop:
	VMULPD  (SI)(AX*8), Y0, Y1
	VMOVUPD (DI)(AX*8), Y2
	VADDPD  Y1, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JLT     axpy_loop

axpy_tail:
	CMPQ AX, CX
	JGE  axpy_done

axpy_tail1:
	VMULSD (SI)(AX*8), X0, X1
	VMOVSD (DI)(AX*8), X2
	VADDSD X1, X2, X2
	VMOVSD X2, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JLT    axpy_tail1

axpy_done:
	VZEROUPPER
	RET

// func subScaledAVX2(y, x []float64, s float64)
TEXT ·subScaledAVX2(SB), NOSPLIT, $0-56
	MOVQ         y_base+0(FP), DI
	MOVQ         y_len+8(FP), CX
	MOVQ         x_base+24(FP), SI
	VBROADCASTSD s+48(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-4, DX
	JZ           subscaled_tail

subscaled_loop:
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y0, Y1, Y1
	VMOVUPD (DI)(AX*8), Y2
	VSUBPD  Y1, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JLT     subscaled_loop

subscaled_tail:
	CMPQ AX, CX
	JGE  subscaled_done

subscaled_tail1:
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VMOVSD (DI)(AX*8), X2
	VSUBSD X1, X2, X2
	VMOVSD X2, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JLT    subscaled_tail1

subscaled_done:
	VZEROUPPER
	RET

// func subMul2AVX2(y []float64, a float64, x []float64, b float64, w []float64)
TEXT ·subMul2AVX2(SB), NOSPLIT, $0-88
	MOVQ         y_base+0(FP), DI
	MOVQ         y_len+8(FP), CX
	VBROADCASTSD a+24(FP), Y0
	MOVQ         x_base+32(FP), SI
	VBROADCASTSD b+56(FP), Y1
	MOVQ         w_base+64(FP), R8
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-4, DX
	JZ           submul2_tail

submul2_loop:
	VMULPD  (SI)(AX*8), Y0, Y2
	VMULPD  (R8)(AX*8), Y1, Y3
	VADDPD  Y3, Y2, Y2
	VMOVUPD (DI)(AX*8), Y4
	VSUBPD  Y2, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JLT     submul2_loop

submul2_tail:
	CMPQ AX, CX
	JGE  submul2_done

submul2_tail1:
	VMULSD (SI)(AX*8), X0, X2
	VMULSD (R8)(AX*8), X1, X3
	VADDSD X3, X2, X2
	VMOVSD (DI)(AX*8), X4
	VSUBSD X2, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JLT    submul2_tail1

submul2_done:
	VZEROUPPER
	RET

// func rotateAVX2(x, y []float64, c, s float64)
TEXT ·rotateAVX2(SB), NOSPLIT, $0-64
	MOVQ         x_base+0(FP), DI
	MOVQ         x_len+8(FP), CX
	MOVQ         y_base+24(FP), SI
	VBROADCASTSD c+48(FP), Y0
	VBROADCASTSD s+56(FP), Y1
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-4, DX
	JZ           rotate_tail

rotate_loop:
	VMOVUPD (DI)(AX*8), Y2 // x
	VMOVUPD (SI)(AX*8), Y3 // y
	VMULPD  Y2, Y1, Y4     // s*x
	VMULPD  Y3, Y0, Y5     // c*y
	VADDPD  Y5, Y4, Y4
	VMULPD  Y2, Y0, Y6     // c*x
	VMULPD  Y3, Y1, Y7     // s*y
	VSUBPD  Y7, Y6, Y6
	VMOVUPD Y4, (SI)(AX*8)
	VMOVUPD Y6, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JLT     rotate_loop

rotate_tail:
	CMPQ AX, CX
	JGE  rotate_done

rotate_tail1:
	VMOVSD (DI)(AX*8), X2
	VMOVSD (SI)(AX*8), X3
	VMULSD X2, X1, X4
	VMULSD X3, X0, X5
	VADDSD X5, X4, X4
	VMULSD X2, X0, X6
	VMULSD X3, X1, X7
	VSUBSD X7, X6, X6
	VMOVSD X4, (SI)(AX*8)
	VMOVSD X6, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JLT    rotate_tail1

rotate_done:
	VZEROUPPER
	RET

// func dot4AVX2(r0, r1, r2, r3, v []float64) (s0, s1, s2, s3 float64)
TEXT ·dot4AVX2(SB), NOSPLIT, $0-152
	MOVQ   r0_base+0(FP), R8
	MOVQ   r1_base+24(FP), R9
	MOVQ   r2_base+48(FP), R10
	MOVQ   r3_base+72(FP), R11
	MOVQ   v_base+96(FP), SI
	MOVQ   v_len+104(FP), CX
	VXORPD Y8, Y8, Y8
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-4, DX
	JZ     dot4_tail

dot4_loop:
	VMOVUPD      (R8)(AX*8), Y0
	VMOVUPD      (R9)(AX*8), Y1
	VMOVUPD      (R10)(AX*8), Y2
	VMOVUPD      (R11)(AX*8), Y3
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	VBROADCASTSD (SI)(AX*8), Y4
	VMULPD       Y4, Y0, Y0
	VADDPD       Y0, Y8, Y8
	VBROADCASTSD 8(SI)(AX*8), Y5
	VMULPD       Y5, Y1, Y1
	VADDPD       Y1, Y8, Y8
	VBROADCASTSD 16(SI)(AX*8), Y6
	VMULPD       Y6, Y2, Y2
	VADDPD       Y2, Y8, Y8
	VBROADCASTSD 24(SI)(AX*8), Y7
	VMULPD       Y7, Y3, Y3
	VADDPD       Y3, Y8, Y8
	ADDQ         $4, AX
	CMPQ         AX, DX
	JLT          dot4_loop

dot4_tail:
	CMPQ AX, CX
	JGE  dot4_done

dot4_tail1:
	GATHER4((R8)(AX*8), (R9)(AX*8), (R10)(AX*8), (R11)(AX*8))
	VBROADCASTSD (SI)(AX*8), Y4
	VMULPD       Y4, Y0, Y0
	VADDPD       Y0, Y8, Y8
	INCQ         AX
	CMPQ         AX, CX
	JLT          dot4_tail1

dot4_done:
	VMOVSD       X8, s0+120(FP)
	VMOVHPD      X8, s1+128(FP)
	VEXTRACTF128 $1, Y8, X9
	VMOVSD       X9, s2+136(FP)
	VMOVHPD      X9, s3+144(FP)
	VZEROUPPER
	RET

// The tile kernels hold four rows of a at SI, SI+R10, SI+2*R10, SI+R11 and
// four rows of b at DX, DX+R12, DX+2*R12, DX+R13 (byte strides), and
// accumulate row r of a against all four rows of b in Y8+r, one row of b
// per lane.

// func abtTileAVX2(out []float64, ldo int, a []float64, lda int, b []float64, ldb, k int)
TEXT ·abtTileAVX2(SB), NOSPLIT, $0-104
	TILE_SETUP
	TESTQ BX, BX
	JZ    abt_tail

abt_loop:
	LOAD_B_ROWS
	ABT_TERMS(Y0, 0)
	ABT_TERMS(Y1, 8)
	ABT_TERMS(Y2, 16)
	ABT_TERMS(Y3, 24)
	ADDQ $32, SI
	ADDQ $32, DX
	DECQ BX
	JNZ  abt_loop

abt_tail:
	TESTQ CX, CX
	JZ    abt_done

abt_tail1:
	GATHER4((DX), (DX)(R12*1), (DX)(R12*2), (DX)(R13*1))
	ABT_TERMS(Y0, 0)
	ADDQ $8, SI
	ADDQ $8, DX
	DECQ CX
	JNZ  abt_tail1

abt_done:
	TILE_STORE
	RET

// func sqDistTileAVX2(out []float64, ldo int, a []float64, lda int, b []float64, ldb, k int)
TEXT ·sqDistTileAVX2(SB), NOSPLIT, $0-104
	TILE_SETUP
	TESTQ BX, BX
	JZ    sqd_tail

sqd_loop:
	LOAD_B_ROWS
	SQD_TERMS(Y0, 0)
	SQD_TERMS(Y1, 8)
	SQD_TERMS(Y2, 16)
	SQD_TERMS(Y3, 24)
	ADDQ $32, SI
	ADDQ $32, DX
	DECQ BX
	JNZ  sqd_loop

sqd_tail:
	TESTQ CX, CX
	JZ    sqd_done

sqd_tail1:
	GATHER4((DX), (DX)(R12*1), (DX)(R12*2), (DX)(R13*1))
	SQD_TERMS(Y0, 0)
	ADDQ $8, SI
	ADDQ $8, DX
	DECQ CX
	JNZ  sqd_tail1

sqd_done:
	TILE_STORE
	RET
