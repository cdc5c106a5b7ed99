//go:build amd64

#include "textflag.h"

// amd64 SAD kernels. Conventions shared by every TEXT below:
//
//   - PSADBW computes Σ|a−b| over 16 byte pairs, folding into two
//     quadword sums (one per 8-byte half); accumulating with PADDQ can
//     never overflow at the block sizes the dispatch guards allow.
//   - w%8 == 0 and w ≥ 8, so rows split into 16-byte chunks plus at
//     most one 8-byte tail. 8-byte tails load with MOVQ (zero-extended
//     into the xmm register), so the high quadword contributes
//     |0−0| = 0 — rows are never over-read.
//   - Horizontal/vertical half-pel interpolation (a+b+1)>>1 is exactly
//     PAVGB (H.263 rounding). Diagonal (a+b+c+d+2)>>2 is NOT: the
//     diagonal kernels widen to 16-bit words (PUNPCKLBW/PUNPCKHBW with
//     zero), add, bias, shift, and PACKUSWB back before the PSADBW.
//   - Capped kernels fold the cumulative accumulator after every row
//     (PSHUFD $0xEE folds high qword onto low) and compare against the
//     cap — the same early-exit points and values as the scalar
//     reference, which the differential tests pin.

// func sadBlkSSE2(cur *byte, curStride int, ref *byte, refStride int, w, h int) int
TEXT ·sadBlkSSE2(SB), NOSPLIT, $0-56
	MOVQ cur+0(FP), DI
	MOVQ curStride+8(FP), CX
	MOVQ ref+16(FP), SI
	MOVQ refStride+24(FP), DX
	MOVQ w+32(FP), BX
	MOVQ h+40(FP), R9
	PXOR X7, X7

row:
	XORQ AX, AX

chunk16:
	LEAQ 16(AX), R8
	CMPQ R8, BX
	JGT  tail8
	MOVOU (DI)(AX*1), X0
	MOVOU (SI)(AX*1), X1
	PSADBW X1, X0
	PADDQ  X0, X7
	MOVQ R8, AX
	JMP  chunk16

tail8:
	CMPQ AX, BX
	JGE  rowdone
	MOVQ (DI)(AX*1), X0
	MOVQ (SI)(AX*1), X1
	PSADBW X1, X0
	PADDQ  X0, X7

rowdone:
	ADDQ CX, DI
	ADDQ DX, SI
	DECQ R9
	JNZ  row

	PSHUFD $0xEE, X7, X0
	PADDQ  X0, X7
	MOVQ X7, AX
	MOVQ AX, ret+48(FP)
	RET

// func sadCappedBlkSSE2(cur *byte, curStride int, ref *byte, refStride int, w, h, cap int) int
TEXT ·sadCappedBlkSSE2(SB), NOSPLIT, $0-64
	MOVQ cur+0(FP), DI
	MOVQ curStride+8(FP), CX
	MOVQ ref+16(FP), SI
	MOVQ refStride+24(FP), DX
	MOVQ w+32(FP), BX
	MOVQ h+40(FP), R9
	MOVQ cap+48(FP), R14
	PXOR X7, X7
	XORQ R13, R13

row:
	XORQ AX, AX

chunk16:
	LEAQ 16(AX), R8
	CMPQ R8, BX
	JGT  tail8
	MOVOU (DI)(AX*1), X0
	MOVOU (SI)(AX*1), X1
	PSADBW X1, X0
	PADDQ  X0, X7
	MOVQ R8, AX
	JMP  chunk16

tail8:
	CMPQ AX, BX
	JGE  fold
	MOVQ (DI)(AX*1), X0
	MOVQ (SI)(AX*1), X1
	PSADBW X1, X0
	PADDQ  X0, X7

fold:
	// Cumulative running sum after this row; exit as soon as it
	// exceeds the cap (same value the scalar reference returns).
	PSHUFD $0xEE, X7, X0
	PADDQ  X7, X0
	MOVQ X0, R13
	CMPQ R13, R14
	JGT  done
	ADDQ CX, DI
	ADDQ DX, SI
	DECQ R9
	JNZ  row

done:
	MOVQ R13, ret+56(FP)
	RET

// func planeSumBlkSSE2(p *byte, stride, w, h int) int
TEXT ·planeSumBlkSSE2(SB), NOSPLIT, $0-40
	MOVQ p+0(FP), DI
	MOVQ stride+8(FP), CX
	MOVQ w+16(FP), BX
	MOVQ h+24(FP), R9
	PXOR X7, X7
	PXOR X6, X6

row:
	XORQ AX, AX

chunk16:
	LEAQ 16(AX), R8
	CMPQ R8, BX
	JGT  tail8
	MOVOU (DI)(AX*1), X0
	PSADBW X6, X0
	PADDQ  X0, X7
	MOVQ R8, AX
	JMP  chunk16

tail8:
	CMPQ AX, BX
	JGE  rowdone
	MOVQ (DI)(AX*1), X0
	PSADBW X6, X0
	PADDQ  X0, X7

rowdone:
	ADDQ CX, DI
	DECQ R9
	JNZ  row

	PSHUFD $0xEE, X7, X0
	PADDQ  X0, X7
	MOVQ X7, AX
	MOVQ AX, ret+32(FP)
	RET

// func intraSADBlkSSE2(p *byte, stride, w, h, mu int) int
TEXT ·intraSADBlkSSE2(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), DI
	MOVQ stride+8(FP), CX
	MOVQ w+16(FP), BX
	MOVQ h+24(FP), R9
	MOVQ mu+32(FP), AX
	MOVQ $0x0101010101010101, R8
	IMULQ R8, AX
	MOVQ AX, X5          // µ splat, low quadword only (for 8-byte tails)
	MOVO X5, X4
	PUNPCKLQDQ X4, X4    // µ splat, all 16 bytes
	PXOR X7, X7

row:
	XORQ AX, AX

chunk16:
	LEAQ 16(AX), R8
	CMPQ R8, BX
	JGT  tail8
	MOVOU (DI)(AX*1), X0
	PSADBW X4, X0
	PADDQ  X0, X7
	MOVQ R8, AX
	JMP  chunk16

tail8:
	CMPQ AX, BX
	JGE  rowdone
	MOVQ (DI)(AX*1), X0
	PSADBW X5, X0        // low-qword µ only: high lanes |0−0| = 0
	PADDQ  X0, X7

rowdone:
	ADDQ CX, DI
	DECQ R9
	JNZ  row

	PSHUFD $0xEE, X7, X0
	PADDQ  X0, X7
	MOVQ X7, AX
	MOVQ AX, ret+40(FP)
	RET

// func sadHpHBlkSSE2(cur *byte, curStride int, ref *byte, refStride int, w, h int) int
TEXT ·sadHpHBlkSSE2(SB), NOSPLIT, $0-56
	MOVQ cur+0(FP), DI
	MOVQ curStride+8(FP), CX
	MOVQ ref+16(FP), SI
	MOVQ refStride+24(FP), DX
	MOVQ w+32(FP), BX
	MOVQ h+40(FP), R9
	PXOR X7, X7

row:
	XORQ AX, AX

chunk16:
	LEAQ 16(AX), R8
	CMPQ R8, BX
	JGT  tail8
	MOVOU (SI)(AX*1), X1
	MOVOU 1(SI)(AX*1), X2
	PAVGB X2, X1
	MOVOU (DI)(AX*1), X0
	PSADBW X1, X0
	PADDQ  X0, X7
	MOVQ R8, AX
	JMP  chunk16

tail8:
	CMPQ AX, BX
	JGE  rowdone
	MOVQ (SI)(AX*1), X1
	MOVQ 1(SI)(AX*1), X2
	PAVGB X2, X1
	MOVQ (DI)(AX*1), X0
	PSADBW X1, X0
	PADDQ  X0, X7

rowdone:
	ADDQ CX, DI
	ADDQ DX, SI
	DECQ R9
	JNZ  row

	PSHUFD $0xEE, X7, X0
	PADDQ  X0, X7
	MOVQ X7, AX
	MOVQ AX, ret+48(FP)
	RET

// func sadHpVBlkSSE2(cur *byte, curStride int, ref *byte, refStride int, w, h int) int
TEXT ·sadHpVBlkSSE2(SB), NOSPLIT, $0-56
	MOVQ cur+0(FP), DI
	MOVQ curStride+8(FP), CX
	MOVQ ref+16(FP), SI
	MOVQ refStride+24(FP), DX
	MOVQ w+32(FP), BX
	MOVQ h+40(FP), R9
	PXOR X7, X7

row:
	LEAQ (SI)(DX*1), R12 // row below
	XORQ AX, AX

chunk16:
	LEAQ 16(AX), R8
	CMPQ R8, BX
	JGT  tail8
	MOVOU (SI)(AX*1), X1
	MOVOU (R12)(AX*1), X2
	PAVGB X2, X1
	MOVOU (DI)(AX*1), X0
	PSADBW X1, X0
	PADDQ  X0, X7
	MOVQ R8, AX
	JMP  chunk16

tail8:
	CMPQ AX, BX
	JGE  rowdone
	MOVQ (SI)(AX*1), X1
	MOVQ (R12)(AX*1), X2
	PAVGB X2, X1
	MOVQ (DI)(AX*1), X0
	PSADBW X1, X0
	PADDQ  X0, X7

rowdone:
	ADDQ CX, DI
	ADDQ DX, SI
	DECQ R9
	JNZ  row

	PSHUFD $0xEE, X7, X0
	PADDQ  X0, X7
	MOVQ X7, AX
	MOVQ AX, ret+48(FP)
	RET

// func sadHpDBlkSSE2(cur *byte, curStride int, ref *byte, refStride int, w, h int) int
TEXT ·sadHpDBlkSSE2(SB), NOSPLIT, $0-56
	MOVQ cur+0(FP), DI
	MOVQ curStride+8(FP), CX
	MOVQ ref+16(FP), SI
	MOVQ refStride+24(FP), DX
	MOVQ w+32(FP), BX
	MOVQ h+40(FP), R9
	PXOR X7, X7
	PXOR X6, X6          // zero, for byte→word widening
	MOVQ $0x0002000200020002, R8
	MOVQ R8, X5
	PUNPCKLQDQ X5, X5    // rounding bias +2 in every word lane

row:
	LEAQ (SI)(DX*1), R12 // row below
	XORQ AX, AX

chunk16:
	LEAQ 16(AX), R8
	CMPQ R8, BX
	JGT  tail8
	MOVOU (SI)(AX*1), X0   // a: top row, x
	MOVOU 1(SI)(AX*1), X1  // b: top row, x+1
	MOVOU (R12)(AX*1), X2  // c: bottom row, x
	MOVOU 1(R12)(AX*1), X3 // d: bottom row, x+1
	MOVO X0, X8
	PUNPCKLBW X6, X0       // a low words
	PUNPCKHBW X6, X8       // a high words
	MOVO X1, X9
	PUNPCKLBW X6, X9
	PADDW X9, X0
	PUNPCKHBW X6, X1
	PADDW X1, X8
	MOVO X2, X9
	PUNPCKLBW X6, X9
	PADDW X9, X0
	PUNPCKHBW X6, X2
	PADDW X2, X8
	MOVO X3, X9
	PUNPCKLBW X6, X9
	PADDW X9, X0
	PUNPCKHBW X6, X3
	PADDW X3, X8
	PADDW X5, X0
	PADDW X5, X8
	PSRLW $2, X0
	PSRLW $2, X8
	PACKUSWB X8, X0        // 16 diagonal half-pel bytes
	MOVOU (DI)(AX*1), X1
	PSADBW X1, X0
	PADDQ  X0, X7
	MOVQ R8, AX
	JMP  chunk16

tail8:
	CMPQ AX, BX
	JGE  rowdone
	MOVQ (SI)(AX*1), X0
	PUNPCKLBW X6, X0
	MOVQ 1(SI)(AX*1), X1
	PUNPCKLBW X6, X1
	PADDW X1, X0
	MOVQ (R12)(AX*1), X1
	PUNPCKLBW X6, X1
	PADDW X1, X0
	MOVQ 1(R12)(AX*1), X1
	PUNPCKLBW X6, X1
	PADDW X1, X0
	PADDW X5, X0
	PSRLW $2, X0
	PACKUSWB X6, X0        // low 8 probe bytes, high half zero
	MOVQ (DI)(AX*1), X1
	PSADBW X1, X0
	PADDQ  X0, X7

rowdone:
	ADDQ CX, DI
	ADDQ DX, SI
	DECQ R9
	JNZ  row

	PSHUFD $0xEE, X7, X0
	PADDQ  X0, X7
	MOVQ X7, AX
	MOVQ AX, ret+48(FP)
	RET

// func sadHpHCappedBlkSSE2(cur *byte, curStride int, ref *byte, refStride int, w, h, cap int) int
TEXT ·sadHpHCappedBlkSSE2(SB), NOSPLIT, $0-64
	MOVQ cur+0(FP), DI
	MOVQ curStride+8(FP), CX
	MOVQ ref+16(FP), SI
	MOVQ refStride+24(FP), DX
	MOVQ w+32(FP), BX
	MOVQ h+40(FP), R9
	MOVQ cap+48(FP), R14
	PXOR X7, X7
	XORQ R13, R13

row:
	XORQ AX, AX

chunk16:
	LEAQ 16(AX), R8
	CMPQ R8, BX
	JGT  tail8
	MOVOU (SI)(AX*1), X1
	MOVOU 1(SI)(AX*1), X2
	PAVGB X2, X1
	MOVOU (DI)(AX*1), X0
	PSADBW X1, X0
	PADDQ  X0, X7
	MOVQ R8, AX
	JMP  chunk16

tail8:
	CMPQ AX, BX
	JGE  fold
	MOVQ (SI)(AX*1), X1
	MOVQ 1(SI)(AX*1), X2
	PAVGB X2, X1
	MOVQ (DI)(AX*1), X0
	PSADBW X1, X0
	PADDQ  X0, X7

fold:
	PSHUFD $0xEE, X7, X0
	PADDQ  X7, X0
	MOVQ X0, R13
	CMPQ R13, R14
	JGT  done
	ADDQ CX, DI
	ADDQ DX, SI
	DECQ R9
	JNZ  row

done:
	MOVQ R13, ret+56(FP)
	RET

// func sadHpVCappedBlkSSE2(cur *byte, curStride int, ref *byte, refStride int, w, h, cap int) int
TEXT ·sadHpVCappedBlkSSE2(SB), NOSPLIT, $0-64
	MOVQ cur+0(FP), DI
	MOVQ curStride+8(FP), CX
	MOVQ ref+16(FP), SI
	MOVQ refStride+24(FP), DX
	MOVQ w+32(FP), BX
	MOVQ h+40(FP), R9
	MOVQ cap+48(FP), R14
	PXOR X7, X7
	XORQ R13, R13

row:
	LEAQ (SI)(DX*1), R12
	XORQ AX, AX

chunk16:
	LEAQ 16(AX), R8
	CMPQ R8, BX
	JGT  tail8
	MOVOU (SI)(AX*1), X1
	MOVOU (R12)(AX*1), X2
	PAVGB X2, X1
	MOVOU (DI)(AX*1), X0
	PSADBW X1, X0
	PADDQ  X0, X7
	MOVQ R8, AX
	JMP  chunk16

tail8:
	CMPQ AX, BX
	JGE  fold
	MOVQ (SI)(AX*1), X1
	MOVQ (R12)(AX*1), X2
	PAVGB X2, X1
	MOVQ (DI)(AX*1), X0
	PSADBW X1, X0
	PADDQ  X0, X7

fold:
	PSHUFD $0xEE, X7, X0
	PADDQ  X7, X0
	MOVQ X0, R13
	CMPQ R13, R14
	JGT  done
	ADDQ CX, DI
	ADDQ DX, SI
	DECQ R9
	JNZ  row

done:
	MOVQ R13, ret+56(FP)
	RET

// func sadHpDCappedBlkSSE2(cur *byte, curStride int, ref *byte, refStride int, w, h, cap int) int
TEXT ·sadHpDCappedBlkSSE2(SB), NOSPLIT, $0-64
	MOVQ cur+0(FP), DI
	MOVQ curStride+8(FP), CX
	MOVQ ref+16(FP), SI
	MOVQ refStride+24(FP), DX
	MOVQ w+32(FP), BX
	MOVQ h+40(FP), R9
	MOVQ cap+48(FP), R14
	PXOR X7, X7
	PXOR X6, X6
	MOVQ $0x0002000200020002, R8
	MOVQ R8, X5
	PUNPCKLQDQ X5, X5
	XORQ R13, R13

row:
	LEAQ (SI)(DX*1), R12
	XORQ AX, AX

chunk16:
	LEAQ 16(AX), R8
	CMPQ R8, BX
	JGT  tail8
	MOVOU (SI)(AX*1), X0
	MOVOU 1(SI)(AX*1), X1
	MOVOU (R12)(AX*1), X2
	MOVOU 1(R12)(AX*1), X3
	MOVO X0, X8
	PUNPCKLBW X6, X0
	PUNPCKHBW X6, X8
	MOVO X1, X9
	PUNPCKLBW X6, X9
	PADDW X9, X0
	PUNPCKHBW X6, X1
	PADDW X1, X8
	MOVO X2, X9
	PUNPCKLBW X6, X9
	PADDW X9, X0
	PUNPCKHBW X6, X2
	PADDW X2, X8
	MOVO X3, X9
	PUNPCKLBW X6, X9
	PADDW X9, X0
	PUNPCKHBW X6, X3
	PADDW X3, X8
	PADDW X5, X0
	PADDW X5, X8
	PSRLW $2, X0
	PSRLW $2, X8
	PACKUSWB X8, X0
	MOVOU (DI)(AX*1), X1
	PSADBW X1, X0
	PADDQ  X0, X7
	MOVQ R8, AX
	JMP  chunk16

tail8:
	CMPQ AX, BX
	JGE  fold
	MOVQ (SI)(AX*1), X0
	PUNPCKLBW X6, X0
	MOVQ 1(SI)(AX*1), X1
	PUNPCKLBW X6, X1
	PADDW X1, X0
	MOVQ (R12)(AX*1), X1
	PUNPCKLBW X6, X1
	PADDW X1, X0
	MOVQ 1(R12)(AX*1), X1
	PUNPCKLBW X6, X1
	PADDW X1, X0
	PADDW X5, X0
	PSRLW $2, X0
	PACKUSWB X6, X0
	MOVQ (DI)(AX*1), X1
	PSADBW X1, X0
	PADDQ  X0, X7

fold:
	PSHUFD $0xEE, X7, X0
	PADDQ  X7, X0
	MOVQ X0, R13
	CMPQ R13, R14
	JGT  done
	ADDQ CX, DI
	ADDQ DX, SI
	DECQ R9
	JNZ  row

done:
	MOVQ R13, ret+56(FP)
	RET

// func sadHpRingBlkSSE2(cur *byte, curStride int, refTop *byte, refStride int, w, h int, out *[9]int)
//
// All eight half-pel neighbours of the anchor in one pass. refTop points
// one row above and one column left of the anchor, so the three
// reference rows per block row are refTop (rm), refTop+stride (r0),
// refTop+2·stride (rp), with column offsets 0/1/2 = anchor−1/anchor/
// anchor+1. Everything runs in the 16-bit word domain on 8-byte chunks:
// horizontal pair sums are shared between the straight (PAVGB-equivalent
// (s+1)>>1) and diagonal ((s0+s1+2)>>2) probes. Eight xmm accumulators
// X8–X15 hold the ring in slot order TL,T,TR,L,R,BL,B,BR.
TEXT ·sadHpRingBlkSSE2(SB), NOSPLIT, $0-56
	MOVQ cur+0(FP), DI
	MOVQ curStride+8(FP), CX
	MOVQ refTop+16(FP), SI
	MOVQ refStride+24(FP), DX
	MOVQ w+32(FP), BX
	MOVQ h+40(FP), R9
	PXOR X0, X0          // zero (widening + packs)
	MOVQ $0x0001000100010001, R8
	MOVQ R8, X1
	PUNPCKLQDQ X1, X1    // +1 in every word lane
	PXOR X8, X8
	PXOR X9, X9
	PXOR X10, X10
	PXOR X11, X11
	PXOR X12, X12
	PXOR X13, X13
	PXOR X14, X14
	PXOR X15, X15

row:
	LEAQ (SI)(DX*1), R10 // r0: the anchor row
	LEAQ (SI)(DX*2), R11 // rp: the row below
	XORQ AX, AX

chunk:
	MOVQ (DI)(AX*1), X2  // current block, 8 bytes
	MOVQ 1(R10)(AX*1), X4
	PUNPCKLBW X0, X4     // r0[anchor] words (kept)
	MOVQ 1(SI)(AX*1), X3
	PUNPCKLBW X0, X3     // rm[anchor] words (kept)

	// T = (rm + r0 + 1) >> 1
	MOVO X3, X5
	PADDW X4, X5
	PADDW X1, X5
	PSRLW $1, X5
	PACKUSWB X0, X5
	PSADBW X2, X5
	PADDQ X5, X9

	MOVQ 1(R11)(AX*1), X5
	PUNPCKLBW X0, X5     // rp[anchor] words (kept)

	// B = (r0 + rp + 1) >> 1
	MOVO X4, X6
	PADDW X5, X6
	PADDW X1, X6
	PSRLW $1, X6
	PACKUSWB X0, X6
	PSADBW X2, X6
	PADDQ X6, X14

	// left horizontal pair sum h0 = r0[anchor−1] + r0[anchor]
	MOVQ (R10)(AX*1), X6
	PUNPCKLBW X0, X6
	PADDW X4, X6

	// L = (h0 + 1) >> 1
	MOVO X6, X7
	PADDW X1, X7
	PSRLW $1, X7
	PACKUSWB X0, X7
	PSADBW X2, X7
	PADDQ X7, X11

	// TL = (rm[anchor−1] + rm[anchor] + h0 + 2) >> 2
	MOVQ (SI)(AX*1), X7
	PUNPCKLBW X0, X7
	PADDW X3, X7
	PADDW X6, X7
	PADDW X1, X7
	PADDW X1, X7
	PSRLW $2, X7
	PACKUSWB X0, X7
	PSADBW X2, X7
	PADDQ X7, X8

	// BL = (rp[anchor−1] + rp[anchor] + h0 + 2) >> 2
	MOVQ (R11)(AX*1), X7
	PUNPCKLBW X0, X7
	PADDW X5, X7
	PADDW X6, X7
	PADDW X1, X7
	PADDW X1, X7
	PSRLW $2, X7
	PACKUSWB X0, X7
	PSADBW X2, X7
	PADDQ X7, X13

	// right horizontal pair sum h1 = r0[anchor] + r0[anchor+1]
	MOVQ 2(R10)(AX*1), X6
	PUNPCKLBW X0, X6
	PADDW X4, X6

	// R = (h1 + 1) >> 1
	MOVO X6, X7
	PADDW X1, X7
	PSRLW $1, X7
	PACKUSWB X0, X7
	PSADBW X2, X7
	PADDQ X7, X12

	// TR = (rm[anchor] + rm[anchor+1] + h1 + 2) >> 2
	MOVQ 2(SI)(AX*1), X7
	PUNPCKLBW X0, X7
	PADDW X3, X7
	PADDW X6, X7
	PADDW X1, X7
	PADDW X1, X7
	PSRLW $2, X7
	PACKUSWB X0, X7
	PSADBW X2, X7
	PADDQ X7, X10

	// BR = (rp[anchor] + rp[anchor+1] + h1 + 2) >> 2
	MOVQ 2(R11)(AX*1), X7
	PUNPCKLBW X0, X7
	PADDW X5, X7
	PADDW X6, X7
	PADDW X1, X7
	PADDW X1, X7
	PSRLW $2, X7
	PACKUSWB X0, X7
	PSADBW X2, X7
	PADDQ X7, X15

	ADDQ $8, AX
	CMPQ AX, BX
	JLT  chunk

	ADDQ CX, DI
	ADDQ DX, SI
	DECQ R9
	JNZ  row

	// Every accumulator's high quadword is zero (all PSADBW inputs had
	// zero high halves), so the low quadword is the whole sum. Slot 4
	// (the centre) is deliberately skipped.
	MOVQ out+48(FP), R8
	MOVQ X8, AX
	MOVQ AX, 0(R8)
	MOVQ X9, AX
	MOVQ AX, 8(R8)
	MOVQ X10, AX
	MOVQ AX, 16(R8)
	MOVQ X11, AX
	MOVQ AX, 24(R8)
	MOVQ X12, AX
	MOVQ AX, 40(R8)
	MOVQ X13, AX
	MOVQ AX, 48(R8)
	MOVQ X14, AX
	MOVQ AX, 56(R8)
	MOVQ X15, AX
	MOVQ AX, 64(R8)
	RET

// func sadBlkAVX2(cur *byte, curStride int, ref *byte, refStride int, w, h int) int
TEXT ·sadBlkAVX2(SB), NOSPLIT, $0-56
	MOVQ cur+0(FP), DI
	MOVQ curStride+8(FP), CX
	MOVQ ref+16(FP), SI
	MOVQ refStride+24(FP), DX
	MOVQ w+32(FP), BX
	MOVQ h+40(FP), R9
	VPXOR Y7, Y7, Y7
	CMPQ BX, $16
	JEQ  w16

row:
	XORQ AX, AX

chunk32:
	LEAQ 32(AX), R8
	CMPQ R8, BX
	JGT  tail16
	VMOVDQU (DI)(AX*1), Y0
	VMOVDQU (SI)(AX*1), Y1
	VPSADBW Y1, Y0, Y0
	VPADDQ  Y0, Y7, Y7
	MOVQ R8, AX
	JMP  chunk32

tail16:
	LEAQ 16(AX), R8
	CMPQ R8, BX
	JGT  tail8
	VMOVDQU (DI)(AX*1), X0
	VMOVDQU (SI)(AX*1), X1
	VPSADBW X1, X0, X0
	VPADDQ  Y0, Y7, Y7
	MOVQ R8, AX

tail8:
	CMPQ AX, BX
	JGE  rowdone
	VMOVQ (DI)(AX*1), X0
	VMOVQ (SI)(AX*1), X1
	VPSADBW X1, X0, X0
	VPADDQ  Y0, Y7, Y7

rowdone:
	ADDQ CX, DI
	ADDQ DX, SI
	DECQ R9
	JNZ  row
	JMP  fold

	// Dominant macroblock shape: two 16-byte rows per 256-bit op.
w16:
	MOVQ R9, R10
	SHRQ $1, R10
	JZ   w16odd

w16pair:
	VMOVDQU (DI), X0
	VINSERTI128 $1, (DI)(CX*1), Y0, Y0
	VMOVDQU (SI), X1
	VINSERTI128 $1, (SI)(DX*1), Y1, Y1
	VPSADBW Y1, Y0, Y0
	VPADDQ  Y0, Y7, Y7
	LEAQ (DI)(CX*2), DI
	LEAQ (SI)(DX*2), SI
	DECQ R10
	JNZ  w16pair

w16odd:
	TESTQ $1, R9
	JZ    fold
	VMOVDQU (DI), X0
	VMOVDQU (SI), X1
	VPSADBW X1, X0, X0
	VPADDQ  Y0, Y7, Y7

fold:
	VEXTRACTI128 $1, Y7, X0
	VPADDQ  X7, X0, X0
	VPSHUFD $0xEE, X0, X1
	VPADDQ  X1, X0, X0
	VMOVQ X0, AX
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET

// func intraSADBlkAVX2(p *byte, stride, w, h, mu int) int
TEXT ·intraSADBlkAVX2(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), DI
	MOVQ stride+8(FP), CX
	MOVQ w+16(FP), BX
	MOVQ h+24(FP), R9
	MOVQ mu+32(FP), AX
	MOVQ $0x0101010101010101, R8
	IMULQ R8, AX
	VMOVQ AX, X5            // µ splat, low quadword (8-byte tails)
	VPBROADCASTQ X5, Y4     // µ splat, all 32 bytes (X4 = low 16)
	VPXOR Y7, Y7, Y7
	CMPQ BX, $16
	JEQ  w16

row:
	XORQ AX, AX

chunk32:
	LEAQ 32(AX), R8
	CMPQ R8, BX
	JGT  tail16
	VMOVDQU (DI)(AX*1), Y0
	VPSADBW Y4, Y0, Y0
	VPADDQ  Y0, Y7, Y7
	MOVQ R8, AX
	JMP  chunk32

tail16:
	LEAQ 16(AX), R8
	CMPQ R8, BX
	JGT  tail8
	VMOVDQU (DI)(AX*1), X0
	VPSADBW X4, X0, X0
	VPADDQ  Y0, Y7, Y7
	MOVQ R8, AX

tail8:
	CMPQ AX, BX
	JGE  rowdone
	VMOVQ (DI)(AX*1), X0
	VPSADBW X5, X0, X0
	VPADDQ  Y0, Y7, Y7

rowdone:
	ADDQ CX, DI
	DECQ R9
	JNZ  row
	JMP  fold

w16:
	MOVQ R9, R10
	SHRQ $1, R10
	JZ   w16odd

w16pair:
	VMOVDQU (DI), X0
	VINSERTI128 $1, (DI)(CX*1), Y0, Y0
	VPSADBW Y4, Y0, Y0
	VPADDQ  Y0, Y7, Y7
	LEAQ (DI)(CX*2), DI
	DECQ R10
	JNZ  w16pair

w16odd:
	TESTQ $1, R9
	JZ    fold
	VMOVDQU (DI), X0
	VPSADBW X4, X0, X0
	VPADDQ  Y0, Y7, Y7

fold:
	VEXTRACTI128 $1, Y7, X0
	VPADDQ  X7, X0, X0
	VPSHUFD $0xEE, X0, X1
	VPADDQ  X1, X0, X0
	VMOVQ X0, AX
	VZEROUPPER
	MOVQ AX, ret+40(FP)
	RET

// func sadHpHBlkAVX2(cur *byte, curStride int, ref *byte, refStride int, w, h int) int
TEXT ·sadHpHBlkAVX2(SB), NOSPLIT, $0-56
	MOVQ cur+0(FP), DI
	MOVQ curStride+8(FP), CX
	MOVQ ref+16(FP), SI
	MOVQ refStride+24(FP), DX
	MOVQ w+32(FP), BX
	MOVQ h+40(FP), R9
	VPXOR Y7, Y7, Y7

row:
	XORQ AX, AX

chunk32:
	LEAQ 32(AX), R8
	CMPQ R8, BX
	JGT  tail16
	VMOVDQU (SI)(AX*1), Y1
	VPAVGB 1(SI)(AX*1), Y1, Y1
	VMOVDQU (DI)(AX*1), Y0
	VPSADBW Y1, Y0, Y0
	VPADDQ  Y0, Y7, Y7
	MOVQ R8, AX
	JMP  chunk32

tail16:
	LEAQ 16(AX), R8
	CMPQ R8, BX
	JGT  tail8
	VMOVDQU (SI)(AX*1), X1
	VPAVGB 1(SI)(AX*1), X1, X1
	VMOVDQU (DI)(AX*1), X0
	VPSADBW X1, X0, X0
	VPADDQ  Y0, Y7, Y7
	MOVQ R8, AX

tail8:
	CMPQ AX, BX
	JGE  rowdone
	VMOVQ (SI)(AX*1), X1
	VMOVQ 1(SI)(AX*1), X2
	VPAVGB X2, X1, X1
	VMOVQ (DI)(AX*1), X0
	VPSADBW X1, X0, X0
	VPADDQ  Y0, Y7, Y7

rowdone:
	ADDQ CX, DI
	ADDQ DX, SI
	DECQ R9
	JNZ  row

	VEXTRACTI128 $1, Y7, X0
	VPADDQ  X7, X0, X0
	VPSHUFD $0xEE, X0, X1
	VPADDQ  X1, X0, X0
	VMOVQ X0, AX
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET

// func sadHpVBlkAVX2(cur *byte, curStride int, ref *byte, refStride int, w, h int) int
TEXT ·sadHpVBlkAVX2(SB), NOSPLIT, $0-56
	MOVQ cur+0(FP), DI
	MOVQ curStride+8(FP), CX
	MOVQ ref+16(FP), SI
	MOVQ refStride+24(FP), DX
	MOVQ w+32(FP), BX
	MOVQ h+40(FP), R9
	VPXOR Y7, Y7, Y7

row:
	LEAQ (SI)(DX*1), R12
	XORQ AX, AX

chunk32:
	LEAQ 32(AX), R8
	CMPQ R8, BX
	JGT  tail16
	VMOVDQU (SI)(AX*1), Y1
	VPAVGB (R12)(AX*1), Y1, Y1
	VMOVDQU (DI)(AX*1), Y0
	VPSADBW Y1, Y0, Y0
	VPADDQ  Y0, Y7, Y7
	MOVQ R8, AX
	JMP  chunk32

tail16:
	LEAQ 16(AX), R8
	CMPQ R8, BX
	JGT  tail8
	VMOVDQU (SI)(AX*1), X1
	VPAVGB (R12)(AX*1), X1, X1
	VMOVDQU (DI)(AX*1), X0
	VPSADBW X1, X0, X0
	VPADDQ  Y0, Y7, Y7
	MOVQ R8, AX

tail8:
	CMPQ AX, BX
	JGE  rowdone
	VMOVQ (SI)(AX*1), X1
	VMOVQ (R12)(AX*1), X2
	VPAVGB X2, X1, X1
	VMOVQ (DI)(AX*1), X0
	VPSADBW X1, X0, X0
	VPADDQ  Y0, Y7, Y7

rowdone:
	ADDQ CX, DI
	ADDQ DX, SI
	DECQ R9
	JNZ  row

	VEXTRACTI128 $1, Y7, X0
	VPADDQ  X7, X0, X0
	VPSHUFD $0xEE, X0, X1
	VPADDQ  X1, X0, X0
	VMOVQ X0, AX
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET

// Best-of-candidates kernels (the sadBest table entry). Shared shape:
//
//   - the clip rectangle arrives as (minX, minY, maxX, maxY) and ref
//     points at its origin, displacement (minX, minY); per candidate
//     dx−minX / dy−minY then serve both as the in-clip test (one
//     unsigned compare against the span each) and as the address offset
//   - BX holds the running minimum, R14 the winner's index (−1: none);
//     a candidate is abandoned once its partial sum has reached BX — it
//     can no longer be strictly better. The sum is checked after rows 8
//     and 16: on camera content ~3/4 of a window's candidates would
//     leave after 4 rows, a branch the predictor cannot learn, whereas
//     ~98% leave after 8, and the mispredictions cost more than the
//     four extra rows (measured: 8/16 is ~25% faster than 4/8/12/16)
//   - candidates are (dx, dy int16) pairs, 4 bytes each

// SADBEST_NEXT_CAND loads candidate AX, skips it when outside the clip,
// and leaves DI at its first ref row.
#define SADBEST_NEXT_CAND \
	MOVWQSX (R8)(AX*4), DI; \
	MOVWQSX 2(R8)(AX*4), CX; \
	SUBQ R10, DI; \
	SUBQ R11, CX; \
	CMPQ DI, R12; \
	JHI  next; \
	CMPQ CX, R13; \
	JHI  next; \
	IMULQ DX, CX; \
	ADDQ SI, DI; \
	ADDQ CX, DI

// SADBEST_LOAD_CUR2 loads the two cur rows at DI into the lanes of y
// (x is its low half) and steps DI past them.
#define SADBEST_LOAD_CUR2(x, y) \
	VMOVDQU (DI), x; \
	VINSERTI128 $1, (DI)(CX*1), y, y; \
	LEAQ (DI)(CX*2), DI

// SADBEST_ROWS4_AVX2 adds rows r..r+3 of the candidate at DI against
// the cur row pairs held in ca, cb to the accumulator Y0.
#define SADBEST_ROWS4_AVX2(ca, cb) \
	VMOVDQU (DI), X1; \
	VINSERTI128 $1, (DI)(DX*1), Y1, Y1; \
	VPSADBW ca, Y1, Y1; \
	VPADDQ  Y1, Y0, Y0; \
	LEAQ (DI)(DX*2), DI; \
	VMOVDQU (DI), X1; \
	VINSERTI128 $1, (DI)(DX*1), Y1, Y1; \
	VPSADBW cb, Y1, Y1; \
	VPADDQ  Y1, Y0, Y0; \
	LEAQ (DI)(DX*2), DI

// SADBEST_CHECK_AVX2 folds a copy of Y0 into CX and abandons the
// candidate when the sum has reached BX.
#define SADBEST_CHECK_AVX2 \
	VEXTRACTI128 $1, Y0, X1; \
	VPADDQ  X1, X0, X1; \
	VPSHUFD $0xEE, X1, X2; \
	VPADDQ  X2, X1, X1; \
	VMOVQ X1, CX; \
	CMPQ CX, BX; \
	JGE  next

// func sadBest16AVX2(cur *byte, curStride int, ref *byte, refStride int, cands *Offset, n int, minX, minY, maxX, maxY int, best int) (idx, sad int)
TEXT ·sadBest16AVX2(SB), NOSPLIT, $0-104
	MOVQ cur+0(FP), DI
	MOVQ curStride+8(FP), CX
	MOVQ ref+16(FP), SI
	MOVQ refStride+24(FP), DX
	MOVQ cands+32(FP), R8
	MOVQ n+40(FP), R9
	MOVQ minX+48(FP), R10
	MOVQ minY+56(FP), R11
	MOVQ maxX+64(FP), R12
	MOVQ maxY+72(FP), R13
	MOVQ best+80(FP), BX
	SUBQ R10, R12
	SUBQ R11, R13

	// The whole 16×16 cur block lives in Y4..Y11 for the call: rows 2k
	// and 2k+1 in the low and high lanes of Y(4+k).
	SADBEST_LOAD_CUR2(X4, Y4)
	SADBEST_LOAD_CUR2(X5, Y5)
	SADBEST_LOAD_CUR2(X6, Y6)
	SADBEST_LOAD_CUR2(X7, Y7)
	SADBEST_LOAD_CUR2(X8, Y8)
	SADBEST_LOAD_CUR2(X9, Y9)
	SADBEST_LOAD_CUR2(X10, Y10)
	SADBEST_LOAD_CUR2(X11, Y11)

	MOVQ $-1, R14
	XORQ AX, AX
	TESTQ R9, R9
	JLE  done

loop:
	SADBEST_NEXT_CAND
	VPXOR Y0, Y0, Y0
	SADBEST_ROWS4_AVX2(Y4, Y5)
	SADBEST_ROWS4_AVX2(Y6, Y7)
	SADBEST_CHECK_AVX2
	SADBEST_ROWS4_AVX2(Y8, Y9)
	SADBEST_ROWS4_AVX2(Y10, Y11)
	SADBEST_CHECK_AVX2
	MOVQ CX, BX
	MOVQ AX, R14

next:
	INCQ AX
	CMPQ AX, R9
	JLT  loop

done:
	VZEROUPPER
	MOVQ R14, idx+88(FP)
	MOVQ BX, sad+96(FP)
	RET

// SADBEST_ROWS4_SSE2 and SADBEST_CHECK_SSE2 are the 128-bit
// counterparts: cur rows come from the 256-byte copy at off(SP), the
// accumulator is X0.
#define SADBEST_ROWS4_SSE2(off) \
	MOVOU (DI), X1; \
	MOVOU off(SP), X2; \
	PSADBW X2, X1; \
	PADDQ  X1, X0; \
	MOVOU (DI)(DX*1), X1; \
	MOVOU off+16(SP), X2; \
	PSADBW X2, X1; \
	PADDQ  X1, X0; \
	LEAQ (DI)(DX*2), DI; \
	MOVOU (DI), X1; \
	MOVOU off+32(SP), X2; \
	PSADBW X2, X1; \
	PADDQ  X1, X0; \
	MOVOU (DI)(DX*1), X1; \
	MOVOU off+48(SP), X2; \
	PSADBW X2, X1; \
	PADDQ  X1, X0; \
	LEAQ (DI)(DX*2), DI

#define SADBEST_CHECK_SSE2 \
	PSHUFD $0xEE, X0, X1; \
	PADDQ  X0, X1; \
	MOVQ X1, CX; \
	CMPQ CX, BX; \
	JGE  next

// func sadBest16SSE2(cur *byte, curStride int, ref *byte, refStride int, cands *Offset, n int, minX, minY, maxX, maxY int, best int) (idx, sad int)
TEXT ·sadBest16SSE2(SB), NOSPLIT, $256-104
	MOVQ cur+0(FP), DI
	MOVQ curStride+8(FP), CX
	MOVQ ref+16(FP), SI
	MOVQ refStride+24(FP), DX
	MOVQ cands+32(FP), R8
	MOVQ n+40(FP), R9
	MOVQ minX+48(FP), R10
	MOVQ minY+56(FP), R11
	MOVQ maxX+64(FP), R12
	MOVQ maxY+72(FP), R13
	MOVQ best+80(FP), BX
	SUBQ R10, R12
	SUBQ R11, R13

	// Sixteen xmm registers cannot hold the block and the working set;
	// copy it to a contiguous stack tile so every row is one fixed-offset
	// load for the rest of the call.
	MOVQ SP, R14
	MOVQ $16, AX

copyrow:
	MOVOU (DI), X0
	MOVOU X0, (R14)
	ADDQ CX, DI
	ADDQ $16, R14
	DECQ AX
	JNZ  copyrow

	MOVQ $-1, R14
	XORQ AX, AX
	TESTQ R9, R9
	JLE  done

loop:
	SADBEST_NEXT_CAND
	PXOR X0, X0
	SADBEST_ROWS4_SSE2(0)
	SADBEST_ROWS4_SSE2(64)
	SADBEST_CHECK_SSE2
	SADBEST_ROWS4_SSE2(128)
	SADBEST_ROWS4_SSE2(192)
	SADBEST_CHECK_SSE2
	MOVQ CX, BX
	MOVQ AX, R14

next:
	INCQ AX
	CMPQ AX, R9
	JLT  loop

done:
	MOVQ R14, idx+88(FP)
	MOVQ BX, sad+96(FP)
	RET

// Sum of squared differences. Bytes widen to 16-bit words, the word
// difference d ∈ [−255, 255] goes through PMADDWD against itself — which
// squares each word and adds adjacent pairs into a dword, at most
// 2·255² = 130050 — and the dwords accumulate with PADDD. The caller
// bounds w·h by sseMaxSamples = 2^15, so a lane receives at most 2^12
// such terms (< 2^30) and the folded total stays below 2^31: no widening
// anywhere. The result is an exact integer, identical on every tier.

// func sseBlkSSE2(a *byte, aStride int, b *byte, bStride int, w, h int) int
TEXT ·sseBlkSSE2(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), DI
	MOVQ aStride+8(FP), CX
	MOVQ b+16(FP), SI
	MOVQ bStride+24(FP), DX
	MOVQ w+32(FP), BX
	MOVQ h+40(FP), R9
	PXOR X7, X7
	PXOR X6, X6

row:
	XORQ AX, AX

chunk16:
	LEAQ 16(AX), R8
	CMPQ R8, BX
	JGT  tail8
	MOVOU (DI)(AX*1), X0
	MOVOU (SI)(AX*1), X1
	MOVO  X0, X2
	MOVO  X1, X3
	PUNPCKLBW X6, X0
	PUNPCKLBW X6, X1
	PUNPCKHBW X6, X2
	PUNPCKHBW X6, X3
	PSUBW X1, X0
	PSUBW X3, X2
	PMADDWL X0, X0
	PMADDWL X2, X2
	PADDL X0, X7
	PADDL X2, X7
	MOVQ R8, AX
	JMP  chunk16

tail8:
	CMPQ AX, BX
	JGE  rowdone
	MOVQ (DI)(AX*1), X0
	MOVQ (SI)(AX*1), X1
	PUNPCKLBW X6, X0
	PUNPCKLBW X6, X1
	PSUBW X1, X0
	PMADDWL X0, X0
	PADDL X0, X7

rowdone:
	ADDQ CX, DI
	ADDQ DX, SI
	DECQ R9
	JNZ  row

	PSHUFD $0xEE, X7, X0
	PADDL  X0, X7
	PSHUFD $0x55, X7, X0
	PADDL  X0, X7
	MOVL X7, AX
	MOVQ AX, ret+48(FP)
	RET

// func sseBlkAVX2(a *byte, aStride int, b *byte, bStride int, w, h int) int
TEXT ·sseBlkAVX2(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), DI
	MOVQ aStride+8(FP), CX
	MOVQ b+16(FP), SI
	MOVQ bStride+24(FP), DX
	MOVQ w+32(FP), BX
	MOVQ h+40(FP), R9
	VPXOR Y7, Y7, Y7
	CMPQ BX, $8
	JEQ  w8

row:
	XORQ AX, AX

chunk16:
	LEAQ 16(AX), R8
	CMPQ R8, BX
	JGT  tail8
	VPMOVZXBW (DI)(AX*1), Y0
	VPMOVZXBW (SI)(AX*1), Y1
	VPSUBW   Y1, Y0, Y0
	VPMADDWD Y0, Y0, Y0
	VPADDD   Y0, Y7, Y7
	MOVQ R8, AX
	JMP  chunk16

tail8:
	CMPQ AX, BX
	JGE  rowdone
	VPMOVZXBW (DI)(AX*1), X0
	VPMOVZXBW (SI)(AX*1), X1
	VPSUBW   X1, X0, X0
	VPMADDWD X0, X0, X0
	VPADDD   Y0, Y7, Y7

rowdone:
	ADDQ CX, DI
	ADDQ DX, SI
	DECQ R9
	JNZ  row
	JMP  fold

	// The residual block shape: two 8-byte rows per 256-bit op.
w8:
	MOVQ R9, R10
	SHRQ $1, R10
	JZ   w8odd

w8pair:
	VMOVQ (DI), X0
	VPINSRQ $1, (DI)(CX*1), X0, X0
	VMOVQ (SI), X1
	VPINSRQ $1, (SI)(DX*1), X1, X1
	VPMOVZXBW X0, Y0
	VPMOVZXBW X1, Y1
	VPSUBW   Y1, Y0, Y0
	VPMADDWD Y0, Y0, Y0
	VPADDD   Y0, Y7, Y7
	LEAQ (DI)(CX*2), DI
	LEAQ (SI)(DX*2), SI
	DECQ R10
	JNZ  w8pair

w8odd:
	TESTQ $1, R9
	JZ    fold
	VPMOVZXBW (DI), X0
	VPMOVZXBW (SI), X1
	VPSUBW   X1, X0, X0
	VPMADDWD X0, X0, X0
	VPADDD   Y0, Y7, Y7

fold:
	VEXTRACTI128 $1, Y7, X0
	VPADDD  X7, X0, X0
	VPSHUFD $0xEE, X0, X1
	VPADDD  X1, X0, X0
	VPSHUFD $0x55, X0, X1
	VPADDD  X1, X0, X0
	VMOVD X0, AX
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET

// func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
