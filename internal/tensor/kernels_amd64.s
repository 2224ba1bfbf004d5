#include "textflag.h"

// func tile2x4F32SSE(c *[8]float32, a0, a1, b *float32, n, steps int)
//
// X0 and X1 hold the tile's two rows. Each step loads four b rows (X2-X5),
// then for each tile row computes t = x0·B0; t += x1·B1; t += x2·B2;
// t += x3·B3; row += t — the association of matmulRowsF32's groups, lane
// by lane. steps must be at least 1.
TEXT ·tile2x4F32SSE(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ a0+8(FP), SI
	MOVQ a1+16(FP), DX
	MOVQ b+24(FP), BX
	MOVQ n+32(FP), R8
	MOVQ steps+40(FP), CX
	SHLQ $2, R8          // R8 = one b row in bytes
	LEAQ (R8)(R8*2), R9  // R9 = three b rows
	MOVUPS 0(DI), X0
	MOVUPS 16(DI), X1

step:
	MOVUPS (BX), X2
	MOVUPS (BX)(R8*1), X3
	MOVUPS (BX)(R8*2), X4
	MOVUPS (BX)(R9*1), X5

	// Row 0: weights a0[p..p+3] in X6.
	MOVUPS (SI), X6
	MOVAPS X6, X7
	SHUFPS $0x00, X7, X7
	MULPS  X2, X7
	MOVAPS X6, X8
	SHUFPS $0x55, X8, X8
	MULPS  X3, X8
	ADDPS  X8, X7
	MOVAPS X6, X8
	SHUFPS $0xAA, X8, X8
	MULPS  X4, X8
	ADDPS  X8, X7
	SHUFPS $0xFF, X6, X6
	MULPS  X5, X6
	ADDPS  X6, X7
	ADDPS  X7, X0

	// Row 1: weights a1[p..p+3] in X9.
	MOVUPS (DX), X9
	MOVAPS X9, X10
	SHUFPS $0x00, X10, X10
	MULPS  X2, X10
	MOVAPS X9, X11
	SHUFPS $0x55, X11, X11
	MULPS  X3, X11
	ADDPS  X11, X10
	MOVAPS X9, X11
	SHUFPS $0xAA, X11, X11
	MULPS  X4, X11
	ADDPS  X11, X10
	SHUFPS $0xFF, X9, X9
	MULPS  X5, X9
	ADDPS  X9, X10
	ADDPS  X10, X1

	ADDQ $16, SI
	ADDQ $16, DX
	LEAQ (BX)(R8*4), BX
	DECQ CX
	JNZ  step

	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	RET

// func tile4x1F32SSE(c *[4]float32, a *[4][]float32, b *float32, n, steps int)
//
// X0 holds the tile, lane r for tile row r. Each step gathers column 0 of
// four b rows into X1, multiplies each row's four weights by it (X4-X7, one
// row each), and transposes those four product vectors into X10, X9, X11
// and X6, the k-rows' products with one lane per tile row; then
// t = P0 + P1; t += P2; t += P3; tile += t — the association of
// matmulRowsF32's groups, lane by lane. steps must be at least 1.
TEXT ·tile4x1F32SSE(SB), NOSPLIT, $0-40
	MOVQ a+8(FP), AX
	MOVQ 0(AX), SI       // the four rows' weights
	MOVQ 24(AX), DI
	MOVQ 48(AX), R10
	MOVQ 72(AX), R11
	MOVQ b+16(FP), BX
	MOVQ n+24(FP), R8
	MOVQ steps+32(FP), CX
	SHLQ $2, R8          // R8 = one b row in bytes
	LEAQ (R8)(R8*2), R9  // R9 = three b rows
	MOVQ c+0(FP), AX
	MOVUPS (AX), X0
	XORQ AX, AX          // AX = the step's offset into the rows

step4x1:
	MOVSS    (BX), X1
	MOVSS    (BX)(R8*1), X2
	MOVSS    (BX)(R8*2), X3
	MOVSS    (BX)(R9*1), X4
	UNPCKLPS X2, X1      // X1 = b0 b1 0 0
	UNPCKLPS X4, X3      // X3 = b2 b3 0 0
	MOVLHPS  X3, X1      // X1 = b0 b1 b2 b3

	MOVUPS (SI)(AX*1), X4
	MOVUPS (DI)(AX*1), X5
	MOVUPS (R10)(AX*1), X6
	MOVUPS (R11)(AX*1), X7
	MULPS  X1, X4        // row 0's products p00 p01 p02 p03
	MULPS  X1, X5
	MULPS  X1, X6
	MULPS  X1, X7

	MOVAPS   X4, X8
	UNPCKLPS X5, X8      // X8  = p00 p10 p01 p11
	UNPCKHPS X5, X4      // X4  = p02 p12 p03 p13
	MOVAPS   X6, X9
	UNPCKLPS X7, X9      // X9  = p20 p30 p21 p31
	UNPCKHPS X7, X6      // X6  = p22 p32 p23 p33
	MOVAPS   X8, X10
	MOVLHPS  X9, X10     // X10 = p00 p10 p20 p30
	MOVHLPS  X8, X9      // X9  = p01 p11 p21 p31
	MOVAPS   X4, X11
	MOVLHPS  X6, X11     // X11 = p02 p12 p22 p32
	MOVHLPS  X4, X6      // X6  = p03 p13 p23 p33

	ADDPS X9, X10
	ADDPS X11, X10
	ADDPS X6, X10
	ADDPS X10, X0

	ADDQ $16, AX
	LEAQ (BX)(R8*4), BX
	DECQ CX
	JNZ  step4x1

	MOVQ   c+0(FP), AX
	MOVUPS X0, (AX)
	RET

// func tile8x4F64AVX2(c *[8][4]float64, a *[8][]float64, b *float64, n, steps int)
//
// Y0-Y7 hold the tile's eight rows, four columns each. Each step loads b
// row p's four columns (Y8); for each tile row it broadcasts the weight x
// (VBROADCASTSD) and tests it against +0 (VUCOMISD). x·B is added to the
// row lane by lane, the product rounded before the add, unless x is ±0:
// VUCOMISD sets ZF both for an equal pair and for an unordered one, so a
// set ZF jumps out of line to a stub that comes back to the add when PF is
// set (x is a NaN) and otherwise skips the row. The eight row pointers run
// to their ends and CX counts the negated byte offset up to zero. R14 and
// R15 are not touched. steps must be at least 1.
TEXT ·tile8x4F64AVX2(SB), NOSPLIT, $0-40
	MOVQ a+8(FP), AX
	MOVQ 0(AX), SI       // the eight rows' weights
	MOVQ 24(AX), DI
	MOVQ 48(AX), R8
	MOVQ 72(AX), R9
	MOVQ 96(AX), R10
	MOVQ 120(AX), R11
	MOVQ 144(AX), R12
	MOVQ 168(AX), R13
	MOVQ b+16(FP), BX
	MOVQ n+24(FP), DX
	MOVQ steps+32(FP), CX
	SHLQ $3, DX          // DX = one b row in bytes
	SHLQ $3, CX          // CX = one row of weights in bytes
	ADDQ CX, SI
	ADDQ CX, DI
	ADDQ CX, R8
	ADDQ CX, R9
	ADDQ CX, R10
	ADDQ CX, R11
	ADDQ CX, R12
	ADDQ CX, R13
	NEGQ CX
	MOVQ    c+0(FP), AX
	VMOVUPD 0(AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VMOVUPD 96(AX), Y3
	VMOVUPD 128(AX), Y4
	VMOVUPD 160(AX), Y5
	VMOVUPD 192(AX), Y6
	VMOVUPD 224(AX), Y7
	VXORPD  X15, X15, X15 // +0, what each weight is tested against

step8x4:
	VMOVUPD (BX), Y8

	VBROADCASTSD (SI)(CX*1), Y9
	VUCOMISD     X15, X9
	JEQ          zero0
add0:
	VMULPD Y8, Y9, Y9
	VADDPD Y9, Y0, Y0
next0:
	VBROADCASTSD (DI)(CX*1), Y10
	VUCOMISD     X15, X10
	JEQ          zero1
add1:
	VMULPD Y8, Y10, Y10
	VADDPD Y10, Y1, Y1
next1:
	VBROADCASTSD (R8)(CX*1), Y11
	VUCOMISD     X15, X11
	JEQ          zero2
add2:
	VMULPD Y8, Y11, Y11
	VADDPD Y11, Y2, Y2
next2:
	VBROADCASTSD (R9)(CX*1), Y12
	VUCOMISD     X15, X12
	JEQ          zero3
add3:
	VMULPD Y8, Y12, Y12
	VADDPD Y12, Y3, Y3
next3:
	VBROADCASTSD (R10)(CX*1), Y9
	VUCOMISD     X15, X9
	JEQ          zero4
add4:
	VMULPD Y8, Y9, Y9
	VADDPD Y9, Y4, Y4
next4:
	VBROADCASTSD (R11)(CX*1), Y10
	VUCOMISD     X15, X10
	JEQ          zero5
add5:
	VMULPD Y8, Y10, Y10
	VADDPD Y10, Y5, Y5
next5:
	VBROADCASTSD (R12)(CX*1), Y11
	VUCOMISD     X15, X11
	JEQ          zero6
add6:
	VMULPD Y8, Y11, Y11
	VADDPD Y11, Y6, Y6
next6:
	VBROADCASTSD (R13)(CX*1), Y12
	VUCOMISD     X15, X12
	JEQ          zero7
add7:
	VMULPD Y8, Y12, Y12
	VADDPD Y12, Y7, Y7
next7:

	ADDQ DX, BX
	ADDQ $8, CX
	JNZ  step8x4

	MOVQ    c+0(FP), AX
	VMOVUPD Y0, 0(AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	VMOVUPD Y4, 128(AX)
	VMOVUPD Y5, 160(AX)
	VMOVUPD Y6, 192(AX)
	VMOVUPD Y7, 224(AX)
	VZEROUPPER
	RET

	// Out of line: the weight compared equal to +0 or unordered. PF set
	// means unordered, a NaN weight, which is added; else it is ±0 and
	// its row is skipped.
zero0:
	JPS add0
	JMP next0
zero1:
	JPS add1
	JMP next1
zero2:
	JPS add2
	JMP next2
zero3:
	JPS add3
	JMP next3
zero4:
	JPS add4
	JMP next4
zero5:
	JPS add5
	JMP next5
zero6:
	JPS add6
	JMP next6
zero7:
	JPS add7
	JMP next7

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
//
// Reads XCR0, the state components the OS saves. Run it only when CPUID
// reports OSXSAVE.
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
