#include "textflag.h"

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

// The direct f32 convolution, convDirectF32Go on AVX2. Each routine runs
// nb blocks of eight output channels (Y0..Y(nb-1), one lane per channel)
// over every output position of one image, walking the tap table once:
//
//	DI  the current position in plane 0 of the routine's blocks of y
//	SI  the image x, BX the packed weights at the routine's first column
//	R10 the next int32 of the tap table
//	R9  one weight row in bytes, R13 one output plane, R8 three planes
//	CX  positions left, DX groups left, AX taps left
//	R11, R12 a tap's input offset and weight row offset
//
// A group's first product is its sum (Y4..), each further product is added
// to it, and the sum is then added to the position's; a tail product is
// ANDed with the mask of its weight being ≠ +0 (Y13) before its add. The
// stores write each lane to its own plane.
//
// Each routine starts on a 64-byte boundary (PCALIGN), so where its loops
// fall in the CPU's fetch blocks does not hang on the size of the code
// before it: a 32-byte shift of the three, left by deleting routines ahead
// of them, read about 3 % on batch8_f32's infer_p50_ms.

// CONVSTRIDES turns the strides loaded into CX (hw) and R9 (ldw) into
// bytes, and zeroes Y13.
#define CONVSTRIDES \
	SHLQ   $2, R9; \
	MOVQ   CX, R13; \
	SHLQ   $2, R13; \
	LEAQ   (R13)(R13*2), R8; \
	VXORPS Y13, Y13, Y13

// NEXTTAP reads the next tap: its input value broadcast in Y8, its weight
// row's byte offset in R12.
#define NEXTTAP \
	MOVLQSX      (R10), R11; \
	MOVLQSX      4(R10), R12; \
	ADDQ         $8, R10; \
	IMULQ        R9, R12; \
	VBROADCASTSS (SI)(R11*4), Y8

// ADDTAP adds the tap's product with the weights at byte off of its row to
// the group sum t.
#define ADDTAP(off, t) \
	VMULPS off(BX)(R12*1), Y8, Y9; \
	VADDPS Y9, t, t

// TAILTAP adds the tap's product with the weights at byte off of its row to
// the position's sum s, lane by lane where the weight is not ±0.
#define TAILTAP(off, s) \
	VMOVUPS off(BX)(R12*1), Y9; \
	VCMPPS  $4, Y13, Y9, Y10; \
	VMULPS  Y9, Y8, Y9; \
	VANDPS  Y10, Y9, Y9; \
	VADDPS  Y9, s, s

// STOREPOS points AX at the position in plane 0, R11 and R12 at five and
// seven planes.
#define STOREPOS \
	MOVQ DI, AX; \
	LEAQ (R13)(R13*4), R11; \
	LEAQ (R8)(R13*4), R12

// STORE8 writes the eight lanes of y (x its low half) to eight planes from
// AX and moves AX on to the next block's first plane.
#define STORE8(y, x) \
	VMOVSS       x, (AX); \
	VEXTRACTPS   $1, x, (AX)(R13*1); \
	VEXTRACTPS   $2, x, (AX)(R13*2); \
	VEXTRACTPS   $3, x, (AX)(R8*1); \
	VEXTRACTF128 $1, y, X9; \
	VMOVSS       X9, (AX)(R13*4); \
	VEXTRACTPS   $1, X9, (AX)(R11*1); \
	VEXTRACTPS   $2, X9, (AX)(R8*2); \
	VEXTRACTPS   $3, X9, (AX)(R12*1); \
	LEAQ         (AX)(R13*8), AX

// func convDirect8x4AVX2(y, x, w *float32, taps *int32, hw, ldw int)
TEXT ·convDirect8x4AVX2(SB), NOSPLIT, $0-48
	PCALIGN $64
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ w+16(FP), BX
	MOVQ taps+24(FP), R10
	MOVQ hw+32(FP), CX
	MOVQ ldw+40(FP), R9
	CONVSTRIDES

pos4:
	VXORPS  Y0, Y0, Y0
	VXORPS  Y1, Y1, Y1
	VXORPS  Y2, Y2, Y2
	VXORPS  Y3, Y3, Y3
	MOVLQSX (R10), DX
	ADDQ    $4, R10
	TESTQ   DX, DX
	JZ      tail4

group4:
	MOVLQSX (R10), AX
	ADDQ    $4, R10
	NEXTTAP
	VMULPS  0(BX)(R12*1), Y8, Y4
	VMULPS  32(BX)(R12*1), Y8, Y5
	VMULPS  64(BX)(R12*1), Y8, Y6
	VMULPS  96(BX)(R12*1), Y8, Y7
	DECQ    AX
	JZ      close4

tap4:
	NEXTTAP
	ADDTAP(0, Y4)
	ADDTAP(32, Y5)
	ADDTAP(64, Y6)
	ADDTAP(96, Y7)
	DECQ AX
	JNZ  tap4

close4:
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3
	DECQ   DX
	JNZ    group4

tail4:
	MOVLQSX (R10), AX
	ADDQ    $4, R10
	TESTQ   AX, AX
	JZ      store4

tailtap4:
	NEXTTAP
	TAILTAP(0, Y0)
	TAILTAP(32, Y1)
	TAILTAP(64, Y2)
	TAILTAP(96, Y3)
	DECQ AX
	JNZ  tailtap4

store4:
	STOREPOS
	STORE8(Y0, X0)
	STORE8(Y1, X1)
	STORE8(Y2, X2)
	STORE8(Y3, X3)
	ADDQ $4, DI
	DECQ CX
	JNZ  pos4
	VZEROUPPER
	RET

// func convDirect8x2AVX2(y, x, w *float32, taps *int32, hw, ldw int)
TEXT ·convDirect8x2AVX2(SB), NOSPLIT, $0-48
	PCALIGN $64
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ w+16(FP), BX
	MOVQ taps+24(FP), R10
	MOVQ hw+32(FP), CX
	MOVQ ldw+40(FP), R9
	CONVSTRIDES

pos2:
	VXORPS  Y0, Y0, Y0
	VXORPS  Y1, Y1, Y1
	MOVLQSX (R10), DX
	ADDQ    $4, R10
	TESTQ   DX, DX
	JZ      tail2

group2:
	MOVLQSX (R10), AX
	ADDQ    $4, R10
	NEXTTAP
	VMULPS  0(BX)(R12*1), Y8, Y4
	VMULPS  32(BX)(R12*1), Y8, Y5
	DECQ    AX
	JZ      close2

tap2:
	NEXTTAP
	ADDTAP(0, Y4)
	ADDTAP(32, Y5)
	DECQ AX
	JNZ  tap2

close2:
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	DECQ   DX
	JNZ    group2

tail2:
	MOVLQSX (R10), AX
	ADDQ    $4, R10
	TESTQ   AX, AX
	JZ      store2

tailtap2:
	NEXTTAP
	TAILTAP(0, Y0)
	TAILTAP(32, Y1)
	DECQ AX
	JNZ  tailtap2

store2:
	STOREPOS
	STORE8(Y0, X0)
	STORE8(Y1, X1)
	ADDQ $4, DI
	DECQ CX
	JNZ  pos2
	VZEROUPPER
	RET

// func convDirect8x1AVX2(y, x, w *float32, taps *int32, hw, ldw int)
TEXT ·convDirect8x1AVX2(SB), NOSPLIT, $0-48
	PCALIGN $64
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ w+16(FP), BX
	MOVQ taps+24(FP), R10
	MOVQ hw+32(FP), CX
	MOVQ ldw+40(FP), R9
	CONVSTRIDES

pos1:
	VXORPS  Y0, Y0, Y0
	MOVLQSX (R10), DX
	ADDQ    $4, R10
	TESTQ   DX, DX
	JZ      tail1

group1:
	MOVLQSX (R10), AX
	ADDQ    $4, R10
	NEXTTAP
	VMULPS  0(BX)(R12*1), Y8, Y4
	DECQ    AX
	JZ      close1

tap1:
	NEXTTAP
	ADDTAP(0, Y4)
	DECQ AX
	JNZ  tap1

close1:
	VADDPS Y4, Y0, Y0
	DECQ   DX
	JNZ    group1

tail1:
	MOVLQSX (R10), AX
	ADDQ    $4, R10
	TESTQ   AX, AX
	JZ      store1

tailtap1:
	NEXTTAP
	TAILTAP(0, Y0)
	DECQ AX
	JNZ  tailtap1

store1:
	STOREPOS
	STORE8(Y0, X0)
	ADDQ $4, DI
	DECQ CX
	JNZ  pos1
	VZEROUPPER
	RET

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
