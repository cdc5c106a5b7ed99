//go:build amd64

#include "textflag.h"

// amd64 kernels of the residual path's two table entries (residual.go):
// the prediction fetch and the forward transform's row pass.

// Prediction fetch. One call writes a w×h block (w = 8 or 16) whose phase
// — bit 0: horizontal half-pel, bit 1: vertical — is fixed for the block,
// so the phase picks one of four row loops up front. Integer phase is a
// row move, b and c are PAVGB ((a+b+1)>>1 exactly), d widens to words for
// (a+b+c+d+2)>>2 like the fused sadHpD* kernels. The vertical phases carry
// the lower source row (c) or its horizontal pair sums (d) into the next
// iteration, so every source row is loaded once.
//
// Stores are exactly w bytes wide — MOVOU for 16, MOVQ for 8 — and rows
// step by the destination stride: nothing outside the w×h window is
// written. Loads cover w+1 bytes for the horizontal phases and h+1 rows for
// the vertical ones, which the caller's in-apron guard allows.

// func predictBlkSSE2(dst *byte, dstStride int, ref *byte, refStride int, w, h, phase int)
TEXT ·predictBlkSSE2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), CX
	MOVQ ref+16(FP), SI
	MOVQ refStride+24(FP), DX
	MOVQ w+32(FP), BX
	MOVQ h+40(FP), R9
	MOVQ phase+48(FP), AX
	PXOR X6, X6          // zero, for byte→word widening
	MOVQ $0x0002000200020002, R8
	MOVQ R8, X5
	PUNPCKLQDQ X5, X5    // rounding bias +2 in every word lane
	CMPQ BX, $8
	JEQ  w8
	CMPQ AX, $1
	JLT  a16
	JEQ  b16
	CMPQ AX, $2
	JEQ  c16
	JMP  d16

w8:
	CMPQ AX, $1
	JLT  a8
	JEQ  b8
	CMPQ AX, $2
	JEQ  c8
	JMP  d8

a16:
	MOVOU (SI), X0
	MOVOU X0, (DI)
	ADDQ DX, SI
	ADDQ CX, DI
	DECQ R9
	JNZ  a16
	RET

b16:
	MOVOU (SI), X0
	MOVOU 1(SI), X1
	PAVGB X1, X0
	MOVOU X0, (DI)
	ADDQ DX, SI
	ADDQ CX, DI
	DECQ R9
	JNZ  b16
	RET

c16:
	MOVOU (SI), X0       // row y, carried

c16row:
	ADDQ DX, SI
	MOVOU (SI), X1       // row y+1
	PAVGB X1, X0
	MOVOU X0, (DI)
	MOVO X1, X0
	ADDQ CX, DI
	DECQ R9
	JNZ  c16row
	RET

d16:
	MOVOU (SI), X0       // a: row y, x
	MOVOU 1(SI), X1      // b: row y, x+1
	MOVO X0, X8
	PUNPCKLBW X6, X0
	PUNPCKHBW X6, X8
	MOVO X1, X9
	PUNPCKLBW X6, X9
	PUNPCKHBW X6, X1
	PADDW X9, X0         // a+b, low words; carried
	PADDW X1, X8         // a+b, high words; carried

d16row:
	ADDQ DX, SI
	MOVOU (SI), X2       // c: row y+1, x
	MOVOU 1(SI), X3      // d: row y+1, x+1
	MOVO X2, X10
	PUNPCKLBW X6, X2
	PUNPCKHBW X6, X10
	MOVO X3, X9
	PUNPCKLBW X6, X9
	PUNPCKHBW X6, X3
	PADDW X9, X2         // c+d, low words
	PADDW X3, X10        // c+d, high words
	PADDW X2, X0
	PADDW X10, X8
	PADDW X5, X0
	PADDW X5, X8
	PSRLW $2, X0
	PSRLW $2, X8
	PACKUSWB X8, X0
	MOVOU X0, (DI)
	MOVO X2, X0
	MOVO X10, X8
	ADDQ CX, DI
	DECQ R9
	JNZ  d16row
	RET

a8:
	MOVQ (SI), X0
	MOVQ X0, (DI)
	ADDQ DX, SI
	ADDQ CX, DI
	DECQ R9
	JNZ  a8
	RET

b8:
	MOVQ (SI), X0
	MOVQ 1(SI), X1
	PAVGB X1, X0
	MOVQ X0, (DI)
	ADDQ DX, SI
	ADDQ CX, DI
	DECQ R9
	JNZ  b8
	RET

c8:
	MOVQ (SI), X0

c8row:
	ADDQ DX, SI
	MOVQ (SI), X1
	PAVGB X1, X0
	MOVQ X0, (DI)
	MOVO X1, X0
	ADDQ CX, DI
	DECQ R9
	JNZ  c8row
	RET

d8:
	MOVQ (SI), X0
	MOVQ 1(SI), X1
	PUNPCKLBW X6, X0
	PUNPCKLBW X6, X1
	PADDW X1, X0         // a+b; carried

d8row:
	ADDQ DX, SI
	MOVQ (SI), X2
	MOVQ 1(SI), X3
	PUNPCKLBW X6, X2
	PUNPCKLBW X6, X3
	PADDW X3, X2         // c+d
	PADDW X2, X0
	PADDW X5, X0
	PSRLW $2, X0
	PACKUSWB X6, X0
	MOVQ X0, (DI)
	MOVO X2, X0
	ADDQ CX, DI
	DECQ R9
	JNZ  d8row
	RET

// Row pass of the forward DCT over the residual a − b of two 8×8 byte
// blocks (dct.RowPass: Tmp[y][u] at out+0, Energy[u] at out+512).
//
// Tmp[y][u] = Σ_x r[y][x]·basis[x][u] with one float64 lane per output u:
// the accumulator for a row starts as the x = 0 product and takes one
// product per x in increasing order, each a MULPD followed by an ADDPD —
// two roundings, as dct.dot8 does it, never a fused multiply-add. Energy
// likewise adds Tmp[y][u]² for y = 0..7 onto zero. Same operations on the
// same operands in the same order as the scalar code, so IEEE 754 makes the
// results equal bit for bit (MXCSR is Go's default: round to nearest even,
// no flush-to-zero).
//
// The residuals are first formed in word lanes, sign-extended and converted
// (exactly) to float64 in a 512-byte stack tile, from which the row loops
// broadcast one sample at a time. Several rows are in flight per step so
// the add chains (latency-bound alone) overlap.

// RR_ROW*_AVX2: one row's two accumulators (u = 0..3, 4..7) take sample
// off(R10) times the basis vectors held in Y8, Y9.
#define RR_ROW_FIRST_AVX2(off, lo, hi) \
	VBROADCASTSD off(R10), Y10; \
	VMULPD Y8, Y10, lo; \
	VMULPD Y9, Y10, hi

#define RR_ROW_NEXT_AVX2(off, lo, hi) \
	VBROADCASTSD off(R10), Y10; \
	VMULPD Y8, Y10, Y11; \
	VMULPD Y9, Y10, Y12; \
	VADDPD Y11, lo, lo; \
	VADDPD Y12, hi, hi

// RR_X_AVX2: sample column x of the four rows at R10.
#define RR_X_AVX2(x) \
	VMOVUPD (x*64)(R8), Y8; \
	VMOVUPD (x*64+32)(R8), Y9; \
	RR_ROW_NEXT_AVX2((x*8), Y0, Y1); \
	RR_ROW_NEXT_AVX2((64+x*8), Y2, Y3); \
	RR_ROW_NEXT_AVX2((128+x*8), Y4, Y5); \
	RR_ROW_NEXT_AVX2((192+x*8), Y6, Y7)

// RR_OUT_AVX2: store one finished row and add its squares to the energy.
#define RR_OUT_AVX2(off, lo, hi) \
	VMOVUPD lo, off(R9); \
	VMOVUPD hi, off+32(R9); \
	VMULPD lo, lo, Y11; \
	VMULPD hi, hi, Y12; \
	VADDPD Y11, Y13, Y13; \
	VADDPD Y12, Y14, Y14

// func residualRowsAVX2(a *byte, aStride int, b *byte, bStride int, basis *[8][8]float64, out *dct.RowPass)
TEXT ·residualRowsAVX2(SB), NOSPLIT, $512-48
	MOVQ a+0(FP), DI
	MOVQ aStride+8(FP), CX
	MOVQ b+16(FP), SI
	MOVQ bStride+24(FP), DX
	MOVQ basis+32(FP), R8
	MOVQ out+40(FP), R9

	MOVQ SP, R10
	MOVQ $8, AX

conv:
	VPMOVZXBW (DI), X0
	VPMOVZXBW (SI), X1
	VPSUBW X1, X0, X0            // eight residuals, signed words
	VPMOVSXWD X0, Y0
	VCVTDQ2PD X0, Y1
	VEXTRACTI128 $1, Y0, X0
	VCVTDQ2PD X0, Y2
	VMOVUPD Y1, (R10)
	VMOVUPD Y2, 32(R10)
	ADDQ CX, DI
	ADDQ DX, SI
	ADDQ $64, R10
	DECQ AX
	JNZ  conv

	MOVQ SP, R10
	VXORPD Y13, Y13, Y13         // energy, u = 0..3
	VXORPD Y14, Y14, Y14         // energy, u = 4..7
	MOVQ $2, AX

rows4:
	VMOVUPD (R8), Y8
	VMOVUPD 32(R8), Y9
	RR_ROW_FIRST_AVX2(0, Y0, Y1)
	RR_ROW_FIRST_AVX2(64, Y2, Y3)
	RR_ROW_FIRST_AVX2(128, Y4, Y5)
	RR_ROW_FIRST_AVX2(192, Y6, Y7)
	RR_X_AVX2(1)
	RR_X_AVX2(2)
	RR_X_AVX2(3)
	RR_X_AVX2(4)
	RR_X_AVX2(5)
	RR_X_AVX2(6)
	RR_X_AVX2(7)
	RR_OUT_AVX2(0, Y0, Y1)
	RR_OUT_AVX2(64, Y2, Y3)
	RR_OUT_AVX2(128, Y4, Y5)
	RR_OUT_AVX2(192, Y6, Y7)
	ADDQ $256, R10
	ADDQ $256, R9
	DECQ AX
	JNZ  rows4

	VMOVUPD Y13, (R9)            // R9 has reached out+512
	VMOVUPD Y14, 32(R9)
	VZEROUPPER
	RET

// The 128-bit tier: two lanes per register, so a row has four accumulators
// and two rows are in flight. MULPD is destructive: the broadcast sample
// is copied per product (the last product consumes it).

// RR_ROW*_SSE2: one row's four accumulators take sample off(R10) times the
// basis vectors held in X8..X11.
#define RR_ROW_FIRST_SSE2(off, a0, a1, a2, a3) \
	MOVSD off(R10), a3; \
	UNPCKLPD a3, a3; \
	MOVAPD a3, a0; \
	MOVAPD a3, a1; \
	MOVAPD a3, a2; \
	MULPD X8, a0; \
	MULPD X9, a1; \
	MULPD X10, a2; \
	MULPD X11, a3

#define RR_ROW_NEXT_SSE2(off, a0, a1, a2, a3) \
	MOVSD off(R10), X12; \
	UNPCKLPD X12, X12; \
	MOVAPD X12, X13; \
	MOVAPD X12, X14; \
	MOVAPD X12, X15; \
	MULPD X8, X13; \
	MULPD X9, X14; \
	MULPD X10, X15; \
	MULPD X11, X12; \
	ADDPD X13, a0; \
	ADDPD X14, a1; \
	ADDPD X15, a2; \
	ADDPD X12, a3

#define RR_BASIS_SSE2(x) \
	MOVUPD (x*64)(R8), X8; \
	MOVUPD (x*64+16)(R8), X9; \
	MOVUPD (x*64+32)(R8), X10; \
	MOVUPD (x*64+48)(R8), X11

#define RR_X_SSE2(x) \
	RR_BASIS_SSE2(x); \
	RR_ROW_NEXT_SSE2((x*8), X0, X1, X2, X3); \
	RR_ROW_NEXT_SSE2((64+x*8), X4, X5, X6, X7)

// func residualRowsSSE2(a *byte, aStride int, b *byte, bStride int, basis *[8][8]float64, out *dct.RowPass)
TEXT ·residualRowsSSE2(SB), NOSPLIT, $512-48
	MOVQ a+0(FP), DI
	MOVQ aStride+8(FP), CX
	MOVQ b+16(FP), SI
	MOVQ bStride+24(FP), DX
	MOVQ basis+32(FP), R8
	MOVQ out+40(FP), R9

	MOVQ SP, R10
	MOVQ $8, AX
	PXOR X6, X6

conv:
	MOVQ (DI), X0
	MOVQ (SI), X1
	PUNPCKLBW X6, X0
	PUNPCKLBW X6, X1
	PSUBW X1, X0                 // eight residuals, signed words
	PUNPCKLWL X0, X2             // word k into the high half of dword k…
	PUNPCKHWL X0, X3
	PSRAL $16, X2                // …and back down, sign-extending
	PSRAL $16, X3
	PSHUFD $0xEE, X2, X4
	PSHUFD $0xEE, X3, X5
	CVTPL2PD X2, X2
	CVTPL2PD X4, X4
	CVTPL2PD X3, X3
	CVTPL2PD X5, X5
	MOVUPD X2, (R10)
	MOVUPD X4, 16(R10)
	MOVUPD X3, 32(R10)
	MOVUPD X5, 48(R10)
	ADDQ CX, DI
	ADDQ DX, SI
	ADDQ $64, R10
	DECQ AX
	JNZ  conv

	MOVQ SP, R10
	MOVQ R9, R11
	MOVQ $4, AX

rows2:
	RR_BASIS_SSE2(0)
	RR_ROW_FIRST_SSE2(0, X0, X1, X2, X3)
	RR_ROW_FIRST_SSE2(64, X4, X5, X6, X7)
	RR_X_SSE2(1)
	RR_X_SSE2(2)
	RR_X_SSE2(3)
	RR_X_SSE2(4)
	RR_X_SSE2(5)
	RR_X_SSE2(6)
	RR_X_SSE2(7)
	MOVUPD X0, (R11)
	MOVUPD X1, 16(R11)
	MOVUPD X2, 32(R11)
	MOVUPD X3, 48(R11)
	MOVUPD X4, 64(R11)
	MOVUPD X5, 80(R11)
	MOVUPD X6, 96(R11)
	MOVUPD X7, 112(R11)
	ADDQ $128, R10
	ADDQ $128, R11
	DECQ AX
	JNZ  rows2

	// Energy: a second walk over the stored rows, y = 0..7 in order.
	XORPD X0, X0
	XORPD X1, X1
	XORPD X2, X2
	XORPD X3, X3
	MOVQ $8, AX

energy:
	MOVUPD (R9), X4
	MOVUPD 16(R9), X5
	MOVUPD 32(R9), X6
	MOVUPD 48(R9), X7
	MULPD X4, X4
	MULPD X5, X5
	MULPD X6, X6
	MULPD X7, X7
	ADDPD X4, X0
	ADDPD X5, X1
	ADDPD X6, X2
	ADDPD X7, X3
	ADDQ $64, R9
	DECQ AX
	JNZ  energy

	MOVUPD X0, (R9)              // R9 has reached out+512
	MOVUPD X1, 16(R9)
	MOVUPD X2, 32(R9)
	MOVUPD X3, 48(R9)
	RET
