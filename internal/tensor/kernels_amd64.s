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

// func tile2x4F64SSE2(c *[8]float64, a0, a1, b *float64, n, steps int)
//
// X0 and X1 hold tile row 0's column pairs (0,1) and (2,3), X2 and X3 row
// 1's. Each step loads b row p's four columns (X4, X5); for each tile row
// whose weight x is not zero (UCOMISD: ZF clear, or PF set for a NaN) it
// adds x·B to the row lane by lane, the product rounded before the add.
// steps must be at least 1.
TEXT ·tile2x4F64SSE2(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ a0+8(FP), SI
	MOVQ a1+16(FP), DX
	MOVQ b+24(FP), BX
	MOVQ n+32(FP), R8
	MOVQ steps+40(FP), CX
	SHLQ $3, R8          // R8 = one b row in bytes
	MOVUPD 0(DI), X0
	MOVUPD 16(DI), X1
	MOVUPD 32(DI), X2
	MOVUPD 48(DI), X3
	XORPD  X15, X15      // +0, what each weight is tested against

step:
	MOVUPD (BX), X4
	MOVUPD 16(BX), X5

	// Row 0: weight a0[p] in X6.
	MOVSD   (SI), X6
	UCOMISD X15, X6
	JNE     row0
	JPC     skip0        // ordered and equal: a ±0 weight
row0:
	UNPCKLPD X6, X6
	MOVAPD   X6, X7
	MULPD    X4, X6
	MULPD    X5, X7
	ADDPD    X6, X0
	ADDPD    X7, X1
skip0:

	// Row 1: weight a1[p] in X8.
	MOVSD   (DX), X8
	UCOMISD X15, X8
	JNE     row1
	JPC     skip1
row1:
	UNPCKLPD X8, X8
	MOVAPD   X8, X9
	MULPD    X4, X8
	MULPD    X5, X9
	ADDPD    X8, X2
	ADDPD    X9, X3
skip1:

	ADDQ $8, SI
	ADDQ $8, DX
	ADDQ R8, BX
	DECQ CX
	JNZ  step

	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	RET
