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
//   - The half-pel rings keep H.263 rounding exactly by working in
//     16-bit words: (a+b+1)>>1 and (a+b+c+d+2)>>2 are adds and shifts
//     there (a PAVGB of PAVGBs would round the diagonal twice).
//   - The best-of-candidates scans fold a copy of the accumulator
//     (PSHUFD $0xEE folds high qword onto low) every few rows and drop
//     the candidate once its partial sum reaches the running minimum.

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

// The AVX2 ring, w = 16: one reference row's 16 samples per YMM register,
// widened to words (VPMOVZXBW), and every one of the h+2 reference rows
// loaded once — at the three column offsets anchor−1 / anchor / anchor+1 —
// then slid through the registers. For the row pair (j, j+1) the kernel
// forms the vertical probe value (VPAVGW of the anchor columns, exactly
// (a+b+1)>>1) and the two diagonal ones ((hl_j + hl_{j+1} + 2) >> 2 from
// the carried horizontal pair sums hl = left+anchor, hr = anchor+right) and
// compares each against BOTH current rows it serves: as B/BL/BR of cur row
// j and as T/TL/TR of cur row j+1. L and R ((left+anchor+1)>>1, VPAVGW)
// are compared against the row they were loaded with.
//
// |pred − cur| accumulates in word lanes (VPSUBW/VPABSW/VPADDW): at most
// h·255 ≤ 16·255 per lane, since w·h ≤ 256. The eight accumulators fold
// once at the end (VPMADDWD by ones, then VPHADDD across probes).
//
// Registers: Y0 = +2 per word (then ones for the fold); Y1 = anchor column
// of the newest reference row; Y2/Y3 = its left/right pair sums hl/hr;
// Y4 = the previous current row, Y5 = this one; Y6/Y7 scratch; Y8–Y15 the
// ring in slot order TL, T, TR, L, R, BL, B, BR.

// RING_ACC1 adds |Y7 − cur| to acc (clobbers Y7).
#define RING_ACC1(cur, acc) \
	VPSUBW cur, Y7, Y7; \
	VPABSW Y7, Y7; \
	VPADDW Y7, acc, acc

// RING_ACC2 adds |Y7 − curT| to accT and |Y7 − curB| to accB (clobbers
// Y6, Y7).
#define RING_ACC2(curT, accT, curB, accB) \
	VPSUBW curT, Y7, Y6; \
	VPABSW Y6, Y6; \
	VPADDW Y6, accT, accT; \
	VPSUBW curB, Y7, Y7; \
	VPABSW Y7, Y7; \
	VPADDW Y7, accB, accB

// RING_V loads the anchor column of the row at SI: the vertical probe value
// between it and the carried row goes to Y7, the row itself to Y1.
#define RING_V \
	VPMOVZXBW 1(SI), Y6; \
	VPAVGW Y6, Y1, Y7; \
	VMOVDQA Y6, Y1

// RING_STRAIGHT loads the side column off (0 left, 2 right) of the row at
// SI into Y6 and adds its straight probe against this current row to acc.
#define RING_STRAIGHT(off, acc) \
	VPMOVZXBW off(SI), Y6; \
	VPAVGW Y6, Y1, Y7; \
	VPSUBW Y5, Y7, Y7; \
	VPABSW Y7, Y7; \
	VPADDW Y7, acc, acc

// RING_DIAG turns the side column in Y6 into its pair sum, leaves the
// diagonal probe value against the carried pair sum H in Y7 and carries the
// new pair sum in H.
#define RING_DIAG(H) \
	VPADDW Y1, Y6, Y6; \
	VPADDW Y6, H, Y7; \
	VMOVDQA Y6, H; \
	VPADDW Y0, Y7, Y7; \
	VPSRLW $2, Y7, Y7

// func sadHpRingBlkAVX2(cur *byte, curStride int, refTop *byte, refStride int, h int, out *[9]int)
TEXT ·sadHpRingBlkAVX2(SB), NOSPLIT, $0-48
	MOVQ cur+0(FP), DI
	MOVQ curStride+8(FP), CX
	MOVQ refTop+16(FP), SI
	MOVQ refStride+24(FP), DX
	MOVQ h+32(FP), R9
	MOVQ $0x0002000200020002, AX
	VMOVQ AX, X0
	VPBROADCASTQ X0, Y0
	VPXOR Y8, Y8, Y8
	VPXOR Y9, Y9, Y9
	VPXOR Y10, Y10, Y10
	VPXOR Y11, Y11, Y11
	VPXOR Y12, Y12, Y12
	VPXOR Y13, Y13, Y13
	VPXOR Y14, Y14, Y14
	VPXOR Y15, Y15, Y15

	// Reference row −1: only carried state.
	VPMOVZXBW 1(SI), Y1
	VPMOVZXBW (SI), Y2
	VPADDW Y1, Y2, Y2
	VPMOVZXBW 2(SI), Y3
	VPADDW Y1, Y3, Y3
	ADDQ DX, SI

	// Current row 0: no row above it, so T-side probes only.
	VPMOVZXBW (DI), Y5
	RING_V
	RING_ACC1(Y5, Y9)
	RING_STRAIGHT(0, Y11)
	RING_DIAG(Y2)
	RING_ACC1(Y5, Y8)
	RING_STRAIGHT(2, Y12)
	RING_DIAG(Y3)
	RING_ACC1(Y5, Y10)
	VMOVDQA Y5, Y4
	ADDQ CX, DI
	ADDQ DX, SI
	DECQ R9
	JZ   last

row:
	VPMOVZXBW (DI), Y5
	RING_V
	RING_ACC2(Y5, Y9, Y4, Y14)
	RING_STRAIGHT(0, Y11)
	RING_DIAG(Y2)
	RING_ACC2(Y5, Y8, Y4, Y13)
	RING_STRAIGHT(2, Y12)
	RING_DIAG(Y3)
	RING_ACC2(Y5, Y10, Y4, Y15)
	VMOVDQA Y5, Y4
	ADDQ CX, DI
	ADDQ DX, SI
	DECQ R9
	JNZ  row

last:
	// Reference row h: the B-side probes of the last current row.
	RING_V
	RING_ACC1(Y4, Y14)
	VPMOVZXBW (SI), Y6
	RING_DIAG(Y2)
	RING_ACC1(Y4, Y13)
	VPMOVZXBW 2(SI), Y6
	RING_DIAG(Y3)
	RING_ACC1(Y4, Y15)

	// Fold: words → dwords (VPMADDWD by ones), then VPHADDD gathers four
	// probes per register, lane halves added, widened to the int slots.
	MOVQ $0x0001000100010001, AX
	VMOVQ AX, X0
	VPBROADCASTQ X0, Y0
	VPMADDWD Y0, Y8, Y8
	VPMADDWD Y0, Y9, Y9
	VPMADDWD Y0, Y10, Y10
	VPMADDWD Y0, Y11, Y11
	VPMADDWD Y0, Y12, Y12
	VPMADDWD Y0, Y13, Y13
	VPMADDWD Y0, Y14, Y14
	VPMADDWD Y0, Y15, Y15
	MOVQ out+40(FP), R8
	VPHADDD Y9, Y8, Y6
	VPHADDD Y11, Y10, Y7
	VPHADDD Y7, Y6, Y6       // TL, T, TR, L per lane
	VEXTRACTI128 $1, Y6, X7
	VPADDD X7, X6, X6
	VPMOVZXDQ X6, Y6
	VMOVDQU Y6, (R8)         // slots 0..3
	VPHADDD Y13, Y12, Y6
	VPHADDD Y15, Y14, Y7
	VPHADDD Y7, Y6, Y6       // R, BL, B, BR per lane
	VEXTRACTI128 $1, Y6, X7
	VPADDD X7, X6, X6
	VPMOVZXDQ X6, Y6
	VMOVDQU Y6, 40(R8)       // slots 5..8; the centre slot 4 is not written
	VZEROUPPER
	RET

// func intraSAD16AVX2(p *byte, stride int) int
//
// IntraSAD of one 16×16 block in one call: the sixteen rows are loaded
// once, two per YMM register, and stay there. VPSADBW against zero sums
// them; µ = (Σ + 128) >> 8 is Mean's round-to-nearest for 256 samples;
// VPSADBW against the µ splat then sums |p − µ| from the same registers.
TEXT ·intraSAD16AVX2(SB), NOSPLIT, $0-24
	MOVQ p+0(FP), DI
	MOVQ stride+8(FP), CX
	VMOVDQU (DI), X0
	VINSERTI128 $1, (DI)(CX*1), Y0, Y0
	LEAQ (DI)(CX*2), DI
	VMOVDQU (DI), X1
	VINSERTI128 $1, (DI)(CX*1), Y1, Y1
	LEAQ (DI)(CX*2), DI
	VMOVDQU (DI), X2
	VINSERTI128 $1, (DI)(CX*1), Y2, Y2
	LEAQ (DI)(CX*2), DI
	VMOVDQU (DI), X3
	VINSERTI128 $1, (DI)(CX*1), Y3, Y3
	LEAQ (DI)(CX*2), DI
	VMOVDQU (DI), X4
	VINSERTI128 $1, (DI)(CX*1), Y4, Y4
	LEAQ (DI)(CX*2), DI
	VMOVDQU (DI), X5
	VINSERTI128 $1, (DI)(CX*1), Y5, Y5
	LEAQ (DI)(CX*2), DI
	VMOVDQU (DI), X6
	VINSERTI128 $1, (DI)(CX*1), Y6, Y6
	LEAQ (DI)(CX*2), DI
	VMOVDQU (DI), X7
	VINSERTI128 $1, (DI)(CX*1), Y7, Y7

	// Σp: four quadword partial sums per register, all added up.
	VPXOR   Y15, Y15, Y15
	VPSADBW Y15, Y0, Y8
	VPSADBW Y15, Y1, Y9
	VPSADBW Y15, Y2, Y10
	VPSADBW Y15, Y3, Y11
	VPADDQ  Y9, Y8, Y8
	VPADDQ  Y11, Y10, Y10
	VPSADBW Y15, Y4, Y9
	VPSADBW Y15, Y5, Y11
	VPADDQ  Y9, Y8, Y8
	VPADDQ  Y11, Y10, Y10
	VPSADBW Y15, Y6, Y9
	VPSADBW Y15, Y7, Y11
	VPADDQ  Y9, Y8, Y8
	VPADDQ  Y11, Y10, Y10
	VPADDQ  Y10, Y8, Y8
	VEXTRACTI128 $1, Y8, X9
	VPADDQ  X9, X8, X8
	VPSHUFD $0xEE, X8, X9
	VPADDQ  X9, X8, X8
	VMOVQ   X8, AX
	ADDQ    $128, AX
	SHRQ    $8, AX
	VMOVD   AX, X9
	VPBROADCASTB X9, Y9     // µ in all 32 bytes

	// Σ|p − µ| from the registers already loaded.
	VPSADBW Y9, Y0, Y0
	VPSADBW Y9, Y1, Y1
	VPSADBW Y9, Y2, Y2
	VPSADBW Y9, Y3, Y3
	VPSADBW Y9, Y4, Y4
	VPSADBW Y9, Y5, Y5
	VPSADBW Y9, Y6, Y6
	VPSADBW Y9, Y7, Y7
	VPADDQ  Y1, Y0, Y0
	VPADDQ  Y3, Y2, Y2
	VPADDQ  Y5, Y4, Y4
	VPADDQ  Y7, Y6, Y6
	VPADDQ  Y2, Y0, Y0
	VPADDQ  Y6, Y4, Y4
	VPADDQ  Y4, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDQ  X1, X0, X0
	VPSHUFD $0xEE, X0, X1
	VPADDQ  X1, X0, X0
	VMOVQ   X0, AX
	VZEROUPPER
	MOVQ AX, ret+16(FP)
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
//     and 16. In the plain scan 74.5 % of a window's candidates leave
//     after 8 rows on the fullsearch_serial cells and 53.7 % on ACBM's
//     critical blocks; a check after 4 rows is a branch the predictor
//     cannot learn, and its mispredictions cost more than the four extra
//     rows (measured: 8/16 is ~25% faster than 4/8/12/16)
//   - candidates are (dx, dy int16) pairs, 4 bytes each

// SADBEST_CLIP_CAND loads candidate AX as (dx−minX, dy−minY) into
// (DI, CX) and jumps to skip when it is outside the clip.
#define SADBEST_CLIP_CAND(skip) \
	MOVWQSX (R8)(AX*4), DI; \
	MOVWQSX 2(R8)(AX*4), CX; \
	SUBQ R10, DI; \
	SUBQ R11, CX; \
	CMPQ DI, R12; \
	JHI  skip; \
	CMPQ CX, R13; \
	JHI  skip

// SADBEST_CAND_ADDR turns (DI, CX) into DI = the candidate's first ref row.
#define SADBEST_CAND_ADDR \
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
// candidate (jumps to skip) when the sum has reached BX.
#define SADBEST_CHECK_AVX2(skip) \
	VEXTRACTI128 $1, Y0, X1; \
	VPADDQ  X1, X0, X1; \
	VPSHUFD $0xEE, X1, X2; \
	VPADDQ  X2, X1, X1; \
	VMOVQ X1, CX; \
	CMPQ CX, BX; \
	JGE  skip

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
	SADBEST_CLIP_CAND(next)
	SADBEST_CAND_ADDR
	VPXOR Y0, Y0, Y0
	SADBEST_ROWS4_AVX2(Y4, Y5)
	SADBEST_ROWS4_AVX2(Y6, Y7)
	SADBEST_CHECK_AVX2(next)
	SADBEST_ROWS4_AVX2(Y8, Y9)
	SADBEST_ROWS4_AVX2(Y10, Y11)
	SADBEST_CHECK_AVX2(next)
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

// Successive elimination (MSEA over 4×4 sub-blocks) in front of the same
// scan. For a candidate, split both blocks into sixteen 4×4 sub-blocks
// with sums C_k (cur) and R_k (ref); since |Σ a − Σ b| ≤ Σ |a − b| per
// sub-block,
//
//	bound = Σ_k |C_k − R_k| ≤ SAD,
//
// so a candidate whose bound has reached the running minimum cannot be
// strictly better and is skipped before any of its rows is loaded. The
// winner and its SAD are those of the plain scan. Three passes:
//
//   - box sums: B[y][x] = the 4×4 sum of the reference at (x, y) of the
//     candidate area (the union of the in-clip candidate blocks,
//     (spanX+15) × (spanY+15) pixels), x < spanX+12, y < spanY+12. Each
//     column chunk of sixteen word lanes adds four zero-extended byte
//     loads per row (the horizontal 4-sum) into a running vertical sum,
//     minus the horizontal sum of four rows back (kept in a 4-slot
//     ring). The last chunk starts at spanX+12−16, so its last byte is the
//     area's last column: no byte outside the area is read.
//   - bounds: for every window position, sixteen VPSUBW/VPABSW/VPADDW
//     terms against broadcast C_k, sixteen positions per register. The
//     bound is at most 16·4080 = 65280, so word lanes hold it exactly.
//   - the scan (described at scan: below): the rows of sadBest16AVX2 for
//     the candidates a vector filter and a per-candidate bound test leave.
//
// Everything lives in this frame (a split-checked Go frame, not NOSPLIT:
// it is larger than the nosplit limit): B (47 rows of 48 words; rows
// −3..−1 take the ring's warm-up stores), the ring, the sixteen C_k, the
// bounds (32 rows of 32 words, plus the 4 bytes the filter's dword gather
// may read past the last one), lane numbers 0..7 and the filter's mask
// bytes (one bit per candidate, 1024 at most, plus a zero word). mseaFits
// (dispatch_amd64.go) sends only the windows these sizes hold.
#define MSEA_B 0
#define MSEA_RING 4512
#define MSEA_C 4640
#define MSEA_BND 4672
#define MSEA_IOTA 6728
#define MSEA_MASKS 6760

// MSEA_CUR_SUMS sets xd to C_{j,0..3}, the four 4×4 sums of the cur rows
// 4j..4j+3 held in ya (rows 4j, 4j+1) and yb (rows 4j+2, 4j+3). Y1 holds
// bytes of 1 and Y2 words of 1; ya and yb are clobbered.
#define MSEA_CUR_SUMS(ya, xa, yb, xd) \
	VPMADDUBSW Y1, ya, ya; \
	VPMADDUBSW Y1, yb, yb; \
	VPADDW     yb, ya, ya; \
	VPMADDWD   Y2, ya, ya; \
	VEXTRACTI128 $1, ya, xd; \
	VPADDD     xa, xd, xd

// MSEA_TERM adds |c − B| for the sixteen positions at off(R9) to Y0.
#define MSEA_TERM(off, c) \
	VPSUBW off(R9), c, Y2; \
	VPABSW Y2, Y2; \
	VPADDW Y2, Y0, Y0

// MSEA_TERM2 is MSEA_TERM for thirty-two positions: off(R9) into Y0,
// off+32(R9) into Y1.
#define MSEA_TERM2(off, c) \
	VPSUBW off(R9), c, Y2; \
	VPSUBW off+32(R9), c, Y3; \
	VPABSW Y2, Y2; \
	VPABSW Y3, Y3; \
	VPADDW Y2, Y0, Y0; \
	VPADDW Y3, Y1, Y1

// func sadBestMSEA16AVX2(cur *byte, curStride int, ref *byte, refStride int, cands *Offset, n int, minX, minY, maxX, maxY int, best int) (idx, sad int)
TEXT ·sadBestMSEA16AVX2(SB), 0, $6896-104
	// C_k, k = 4j+i for the sub-block at (4i, 4j), as sixteen words.
	MOVQ cur+0(FP), DI
	MOVQ curStride+8(FP), CX
	SADBEST_LOAD_CUR2(X4, Y4)
	SADBEST_LOAD_CUR2(X5, Y5)
	SADBEST_LOAD_CUR2(X6, Y6)
	SADBEST_LOAD_CUR2(X7, Y7)
	SADBEST_LOAD_CUR2(X8, Y8)
	SADBEST_LOAD_CUR2(X9, Y9)
	SADBEST_LOAD_CUR2(X10, Y10)
	SADBEST_LOAD_CUR2(X11, Y11)
	VPCMPEQB Y0, Y0, Y0
	VPABSB   Y0, Y1
	VPABSW   Y0, Y2
	MSEA_CUR_SUMS(Y4, X4, Y5, X12)
	MSEA_CUR_SUMS(Y6, X6, Y7, X13)
	MSEA_CUR_SUMS(Y8, X8, Y9, X14)
	MSEA_CUR_SUMS(Y10, X10, Y11, X15)
	VPACKSSDW X13, X12, X12
	VPACKSSDW X15, X14, X14
	VMOVDQU   X12, MSEA_C(SP)
	VMOVDQU   X14, MSEA_C+16(SP)

	// Box sums, one column chunk at a time: R9 = the next chunk's start,
	// R10 = spanX+12 positions per row, CX rows of pixels.
	MOVQ ref+16(FP), SI
	MOVQ refStride+24(FP), DX
	MOVQ maxX+64(FP), R12
	SUBQ minX+48(FP), R12
	MOVQ maxY+72(FP), R13
	SUBQ minY+56(FP), R13
	LEAQ 13(R12), R10
	XORQ R9, R9

boxchunk:
	LEAQ    -16(R10), AX
	CMPQ    R9, AX
	CMOVQLT R9, AX
	LEAQ    (SI)(AX*1), DI
	LEAQ    MSEA_B(SP)(AX*2), R11
	LEAQ    16(R13), CX
	XORQ    BX, BX
	VPXOR   Y3, Y3, Y3
	VMOVDQU Y3, MSEA_RING(SP)
	VMOVDQU Y3, MSEA_RING+32(SP)
	VMOVDQU Y3, MSEA_RING+64(SP)
	VMOVDQU Y3, MSEA_RING+96(SP)

boxrow:
	VPMOVZXBW (DI), Y0
	VPMOVZXBW 1(DI), Y1
	VPADDW    Y1, Y0, Y0
	VPMOVZXBW 2(DI), Y1
	VPADDW    Y1, Y0, Y0
	VPMOVZXBW 3(DI), Y1
	VPADDW    Y1, Y0, Y0
	VPADDW    Y0, Y3, Y3
	VPSUBW    MSEA_RING(SP)(BX*1), Y3, Y3
	VMOVDQU   Y0, MSEA_RING(SP)(BX*1)
	VMOVDQU   Y3, (R11)
	ADDQ      $32, BX
	ANDQ      $127, BX
	ADDQ      DX, DI
	ADDQ      $96, R11
	DECQ      CX
	JNZ       boxrow
	ADDQ      $16, R9
	CMPQ      R9, R10
	JLT       boxchunk

	// Bounds, one window row per iteration: R9 = B row v, R11 = bound row
	// v. C_0..C_11 stay in Y4..Y15; C_12..C_15 are broadcast per use.
	VPBROADCASTW MSEA_C+0(SP), Y4
	VPBROADCASTW MSEA_C+2(SP), Y5
	VPBROADCASTW MSEA_C+4(SP), Y6
	VPBROADCASTW MSEA_C+6(SP), Y7
	VPBROADCASTW MSEA_C+8(SP), Y8
	VPBROADCASTW MSEA_C+10(SP), Y9
	VPBROADCASTW MSEA_C+12(SP), Y10
	VPBROADCASTW MSEA_C+14(SP), Y11
	VPBROADCASTW MSEA_C+16(SP), Y12
	VPBROADCASTW MSEA_C+18(SP), Y13
	VPBROADCASTW MSEA_C+20(SP), Y14
	VPBROADCASTW MSEA_C+22(SP), Y15
	LEAQ MSEA_B+3*96(SP), R9
	LEAQ MSEA_BND(SP), R11
	LEAQ 1(R13), CX
	CMPQ R12, $15
	JHI  bound2

bound1:
	VPXOR Y0, Y0, Y0
	MSEA_TERM(0, Y4)
	MSEA_TERM(8, Y5)
	MSEA_TERM(16, Y6)
	MSEA_TERM(24, Y7)
	MSEA_TERM(384, Y8)
	MSEA_TERM(392, Y9)
	MSEA_TERM(400, Y10)
	MSEA_TERM(408, Y11)
	MSEA_TERM(768, Y12)
	MSEA_TERM(776, Y13)
	MSEA_TERM(784, Y14)
	MSEA_TERM(792, Y15)
	VPBROADCASTW MSEA_C+24(SP), Y3
	MSEA_TERM(1152, Y3)
	VPBROADCASTW MSEA_C+26(SP), Y3
	MSEA_TERM(1160, Y3)
	VPBROADCASTW MSEA_C+28(SP), Y3
	MSEA_TERM(1168, Y3)
	VPBROADCASTW MSEA_C+30(SP), Y3
	MSEA_TERM(1176, Y3)
	VMOVDQU Y0, (R11)
	ADDQ    $96, R9
	ADDQ    $64, R11
	DECQ    CX
	JNZ     bound1
	JMP     scan

bound2:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	MSEA_TERM2(0, Y4)
	MSEA_TERM2(8, Y5)
	MSEA_TERM2(16, Y6)
	MSEA_TERM2(24, Y7)
	MSEA_TERM2(384, Y8)
	MSEA_TERM2(392, Y9)
	MSEA_TERM2(400, Y10)
	MSEA_TERM2(408, Y11)
	MSEA_TERM2(768, Y12)
	MSEA_TERM2(776, Y13)
	MSEA_TERM2(784, Y14)
	MSEA_TERM2(792, Y15)
	// Y2 and Y3 are the terms' scratch, so C_12..C_15 borrow Y4, and C_0
	// returns to it for the next row.
	VPBROADCASTW MSEA_C+24(SP), Y4
	MSEA_TERM2(1152, Y4)
	VPBROADCASTW MSEA_C+26(SP), Y4
	MSEA_TERM2(1160, Y4)
	VPBROADCASTW MSEA_C+28(SP), Y4
	MSEA_TERM2(1168, Y4)
	VPBROADCASTW MSEA_C+30(SP), Y4
	MSEA_TERM2(1176, Y4)
	VPBROADCASTW MSEA_C+0(SP), Y4
	VMOVDQU Y0, (R11)
	VMOVDQU Y1, 32(R11)
	ADDQ    $96, R9
	ADDQ    $64, R11
	DECQ    CX
	JNZ     bound2

	// The scan, in three steps:
	//   - first: the scan of sadBest16AVX2 up to and including the first
	//     in-clip candidate (AX), whose SAD sets the filter's threshold;
	//   - filter: eight candidates per step (the last step a masked load,
	//     so nothing past cands[n−1] is read); a lane survives when it is
	//     a candidate, in clip and its gathered bound is below the
	//     threshold (Y15, clamped to [0, 65536]); one mask byte per step
	//     into MSEA_MASKS;
	//   - survivors: the candidates after AX whose bits are set, in order,
	//     64 per mask word, each re-tested against the running minimum
	//     (which only drops) before its rows are loaded.
	// Y12 = (minX, minY) and Y13 = (spanX−1, spanY−1) as word pairs; Y14 =
	// word pairs (1, 32), so VPMADDWD turns (dx−minX, dy−minY) into the
	// bound's index.
scan:
	MOVQ cur+0(FP), DI
	MOVQ curStride+8(FP), CX
	SADBEST_LOAD_CUR2(X4, Y4)
	SADBEST_LOAD_CUR2(X5, Y5)
	SADBEST_LOAD_CUR2(X6, Y6)
	SADBEST_LOAD_CUR2(X7, Y7)
	SADBEST_LOAD_CUR2(X8, Y8)
	SADBEST_LOAD_CUR2(X9, Y9)
	SADBEST_LOAD_CUR2(X10, Y10)
	SADBEST_LOAD_CUR2(X11, Y11)
	MOVQ cands+32(FP), R8
	MOVQ n+40(FP), R9
	MOVQ minX+48(FP), R10
	MOVQ minY+56(FP), R11
	MOVQ best+80(FP), BX
	MOVQ $-1, R14
	XORQ AX, AX

first:
	CMPQ AX, R9
	JGE  done
	SADBEST_CLIP_CAND(firstout)
	SADBEST_CAND_ADDR
	VPXOR Y0, Y0, Y0
	SADBEST_ROWS4_AVX2(Y4, Y5)
	SADBEST_ROWS4_AVX2(Y6, Y7)
	SADBEST_CHECK_AVX2(filter)
	SADBEST_ROWS4_AVX2(Y8, Y9)
	SADBEST_ROWS4_AVX2(Y10, Y11)
	SADBEST_CHECK_AVX2(filter)
	MOVQ CX, BX
	MOVQ AX, R14
	JMP  filter

firstout:
	INCQ AX
	JMP  first

	// DI = the step's first candidate; CX, R12, R13 scratch.
filter:
	MOVQ    R11, CX
	SHLQ    $16, CX
	MOVWLZX R10, DI
	ORQ     DI, CX
	VMOVD   CX, X12
	VPBROADCASTD X12, Y12
	SHLQ    $16, R13
	ORQ     R12, R13
	VMOVD   R13, X13
	VPBROADCASTD X13, Y13
	MOVL    $0x200001, CX
	VMOVD   CX, X14
	VPBROADCASTD X14, Y14
	MOVQ    BX, CX
	MOVQ    $65536, DI
	CMPQ    CX, DI
	CMOVQGT DI, CX
	XORQ    DI, DI
	TESTQ   CX, CX
	CMOVQLT DI, CX
	VMOVD   CX, X15
	VPBROADCASTD X15, Y15
	MOVQ $0x100000000, CX
	MOVQ CX, MSEA_IOTA(SP)
	MOVQ $0x300000002, CX
	MOVQ CX, MSEA_IOTA+8(SP)
	MOVQ $0x500000004, CX
	MOVQ CX, MSEA_IOTA+16(SP)
	MOVQ $0x700000006, CX
	MOVQ CX, MSEA_IOTA+24(SP)
	XORQ DI, DI

step:
	MOVQ R9, R12
	SUBQ DI, R12
	JLE  filtered
	VPCMPEQD Y3, Y3, Y3
	CMPQ R12, $8
	JGE  full
	VMOVD    R12, X3
	VPBROADCASTD X3, Y3
	VPCMPGTD MSEA_IOTA(SP), Y3, Y3

full:
	VPMASKMOVD (R8)(DI*4), Y3, Y0
	VPSUBW   Y12, Y0, Y0
	VPMINUW  Y13, Y0, Y1
	VPCMPEQD Y0, Y1, Y1
	VPAND    Y3, Y1, Y1
	VPMADDWD Y14, Y0, Y0
	VMOVDQU  Y1, Y3
	VPXOR    Y2, Y2, Y2
	VPGATHERDD Y3, MSEA_BND(SP)(Y0*2), Y2
	VPSLLD   $16, Y2, Y2
	VPSRLD   $16, Y2, Y2
	VPCMPGTD Y2, Y15, Y2
	VPAND    Y1, Y2, Y2
	VMOVMSKPS Y2, R13
	MOVQ     DI, R12
	SHRQ     $3, R12
	MOVB     R13, MSEA_MASKS(SP)(R12*1)
	ADDQ     $8, DI
	JMP      step

filtered:
	// Zero the mask bytes after the last step, so the last mask word
	// names no candidate past n.
	SHRQ $3, DI
	MOVQ $0, MSEA_MASKS(SP)(DI*1)

	// Survivors. AX = the base of the mask word in R15; R12 = the
	// candidate, (DI, CX) = its (dx−minX, dy−minY).
	INCQ AX
	MOVQ AX, CX
	ANDQ $63, CX
	SUBQ CX, AX
	MOVQ AX, R12
	SHRQ $3, R12
	MOVQ MSEA_MASKS(SP)(R12*1), R15
	MOVQ $-1, DI
	SHLQ CX, DI
	ANDQ DI, R15

word:
	TESTQ R15, R15
	JZ    nextword

loop:
	BSFQ    R15, R12
	LEAQ    -1(R15), DI
	ANDQ    DI, R15
	ADDQ    AX, R12
	MOVWQSX (R8)(R12*4), DI
	MOVWQSX 2(R8)(R12*4), CX
	SUBQ    R10, DI
	SUBQ    R11, CX
	MOVQ    CX, R13
	SHLQ    $5, R13
	ADDQ    DI, R13
	MOVWQZX MSEA_BND(SP)(R13*2), R13
	CMPQ    R13, BX
	JGE     next
	SADBEST_CAND_ADDR
	VPXOR Y0, Y0, Y0
	SADBEST_ROWS4_AVX2(Y4, Y5)
	SADBEST_ROWS4_AVX2(Y6, Y7)
	SADBEST_CHECK_AVX2(next)
	SADBEST_ROWS4_AVX2(Y8, Y9)
	SADBEST_ROWS4_AVX2(Y10, Y11)
	SADBEST_CHECK_AVX2(next)
	MOVQ CX, BX
	MOVQ R12, R14

next:
	TESTQ R15, R15
	JNZ   loop

nextword:
	ADDQ $64, AX
	CMPQ AX, R9
	JGE  done
	MOVQ AX, R12
	SHRQ $3, R12
	MOVQ MSEA_MASKS(SP)(R12*1), R15
	JMP  word

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

#define SADBEST_CHECK_SSE2(skip) \
	PSHUFD $0xEE, X0, X1; \
	PADDQ  X0, X1; \
	MOVQ X1, CX; \
	CMPQ CX, BX; \
	JGE  skip

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
	SADBEST_CLIP_CAND(next)
	SADBEST_CAND_ADDR
	PXOR X0, X0
	SADBEST_ROWS4_SSE2(0)
	SADBEST_ROWS4_SSE2(64)
	SADBEST_CHECK_SSE2(next)
	SADBEST_ROWS4_SSE2(128)
	SADBEST_ROWS4_SSE2(192)
	SADBEST_CHECK_SSE2(next)
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

// func macroblockSSEAVX2(aY *byte, aYStride int, bY *byte, bYStride int, aCb, aCr *byte, aCStride int, bCb, bCr *byte, bCStride int, out *[6]int)
//
// The six 8×8 block energies of one macroblock in one pass. A 16-wide luma
// row widens to sixteen words; VPMADDWD squares the differences and pair-sums
// them into eight dwords, of which 0–3 (the low lane) belong to the left
// block and 4–7 to the right one. Rows 0–7 accumulate in Y6, rows 8–15 in
// Y7. Chroma takes the Cb row in the low lane and the Cr row in the high lane
// of Y5. A block's energy is at most 64·255² < 2^31, so no lane widens.
TEXT ·macroblockSSEAVX2(SB), NOSPLIT, $0-88
	MOVQ aY+0(FP), DI
	MOVQ aYStride+8(FP), CX
	MOVQ bY+16(FP), SI
	MOVQ bYStride+24(FP), DX
	MOVQ aCb+32(FP), R12
	MOVQ aCr+40(FP), R13
	MOVQ aCStride+48(FP), AX
	MOVQ bCb+56(FP), R14
	MOVQ bCr+64(FP), BX
	MOVQ bCStride+72(FP), R8
	MOVQ CX, R10             // offset of luma row 8, either plane
	SHLQ $3, R10
	MOVQ DX, R11
	SHLQ $3, R11
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	MOVQ $8, R9

row:
	VPMOVZXBW (DI), Y0
	VPMOVZXBW (SI), Y1
	VPSUBW   Y1, Y0, Y0
	VPMADDWD Y0, Y0, Y0
	VPADDD   Y0, Y6, Y6
	VPMOVZXBW (DI)(R10*1), Y2
	VPMOVZXBW (SI)(R11*1), Y3
	VPSUBW   Y3, Y2, Y2
	VPMADDWD Y2, Y2, Y2
	VPADDD   Y2, Y7, Y7
	VMOVQ    (R12), X0
	VPINSRQ  $1, (R13), X0, X0
	VMOVQ    (R14), X1
	VPINSRQ  $1, (BX), X1, X1
	VPMOVZXBW X0, Y0
	VPMOVZXBW X1, Y1
	VPSUBW   Y1, Y0, Y0
	VPMADDWD Y0, Y0, Y0
	VPADDD   Y0, Y5, Y5
	ADDQ CX, DI
	ADDQ DX, SI
	ADDQ AX, R12
	ADDQ AX, R13
	ADDQ R8, R14
	ADDQ R8, BX
	DECQ R9
	JNZ  row

	// Per lane: [top, bottom, chroma, chroma] — low lane left/Cb, high
	// lane right/Cr.
	VPHADDD Y7, Y6, Y0
	VPHADDD Y5, Y5, Y1
	VPHADDD Y1, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	MOVQ out+80(FP), R8
	VMOVD   X0, AX
	MOVQ AX, 0(R8)
	VMOVD   X1, AX
	MOVQ AX, 8(R8)
	VPEXTRD $1, X0, AX
	MOVQ AX, 16(R8)
	VPEXTRD $1, X1, AX
	MOVQ AX, 24(R8)
	VPEXTRD $2, X0, AX
	MOVQ AX, 32(R8)
	VPEXTRD $2, X1, AX
	MOVQ AX, 40(R8)
	VZEROUPPER
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
