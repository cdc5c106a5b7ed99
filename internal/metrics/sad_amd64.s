//go:build amd64

#include "funcdata.h"
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
// candidate (jumps to skip) when the sum has reached bar.
#define SADBEST_CHECK_AVX2(bar, skip) \
	VEXTRACTI128 $1, Y0, X1; \
	VPADDQ  X1, X0, X1; \
	VPSHUFD $0xEE, X1, X2; \
	VPADDQ  X2, X1, X1; \
	VMOVQ X1, CX; \
	CMPQ CX, bar; \
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
	SADBEST_CHECK_AVX2(BX, next)
	SADBEST_ROWS4_AVX2(Y8, Y9)
	SADBEST_ROWS4_AVX2(Y10, Y11)
	SADBEST_CHECK_AVX2(BX, next)
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

// Successive elimination (MSEA over 4×4 sub-blocks) around the same row
// scan. For a candidate, split both blocks into sixteen 4×4 sub-blocks
// with sums C_k (cur) and R_k (ref); since |Σ a − Σ b| ≤ Σ |a − b| per
// sub-block,
//
//	bound = Σ_k |C_k − R_k| ≤ SAD,
//
// so a candidate whose bound has reached the running minimum cannot win
// and is skipped before any of its rows is loaded. The winner and its SAD
// are those of the spiral scan: the lowest (SAD, L1, dy, dx). The R_k are
// not computed here: sums addresses the reference's 4×4 box sum at the
// window's first displacement, B[y][x] = Σ of the 4×4 pixels from (x, y)
// of the candidate area, one row of sumStride words per y, which the
// caller has filled (boxSums16AVX2) for x < spanX+12, y < spanY+12. Three
// phases:
//
//   - head: the row scan over the n spiral positions at head (the L1 ≤ 2
//     head of the table), in order. Its minimum T is the threshold of the
//     rest: a later position must have SAD < T to win, since every head
//     position precedes it in spiral order. T ≤ 0 ends the search here.
//   - bounds: for every window position, sixteen VPSUBW/VPABSW/VPADDW
//     terms against broadcast C_k, sixteen positions per register. The
//     bound is at most 16·4080 = 65280, so word lanes hold it exactly. As
//     each row is made, one unsigned compare per sixteen positions against
//     T−1 (clamped to 65535) writes the row's survivors — bound < T — to
//     a raster bitmask, one dword per window row. A row reads sixteen (or,
//     for windows wider than sixteen, thirty-two) words from each of its
//     sixteen B columns, up to 16 words past the area's last column; the
//     lanes beyond it are masked off, so those words need only be
//     readable.
//   - survivors: the set bits in raster order, head positions (L1 ≤ 2)
//     skipped. Raster order is not spiral order, so the tie rule is
//     written out: a survivor wins on a SAD below the running minimum, or
//     equal to it when its L1 is shorter than the incumbent's (a raster
//     scan meets equal-L1 ties in (dy, dx) order already). Its bar — the
//     minimum, plus one for a shorter L1 — is tested against its bound
//     (the minimum only drops) before its rows are loaded, then against
//     its partial sums after rows 8 and 16.
//
// The kernel's own grids live in this frame (a split-checked Go frame, not
// NOSPLIT: it is larger than the nosplit limit): the sixteen C_k, the
// bounds (32 rows of 32 words), T−1 in sixteen word lanes, the mask dwords
// and C_12..C_15 in sixteen word lanes each. mseaFits (dispatch_amd64.go)
// sends only the windows these sizes hold.
#define MSEA_C 0
#define MSEA_BND 32
#define MSEA_T1 2080
#define MSEA_MASKS 2112
#define MSEA_CB 2240

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

// MSEA_TERM adds |c − B| for the sixteen positions at m to Y0.
#define MSEA_TERM(m, c) \
	VPSUBW m, c, Y2; \
	VPABSW Y2, Y2; \
	VPADDW Y2, Y0, Y0

// MSEA_TERM2 is MSEA_TERM for thirty-two positions: m into Y0, m32 (32
// bytes on) into Y1.
#define MSEA_TERM2(m, m32, c) \
	VPSUBW m, c, Y2; \
	VPSUBW m32, c, Y3; \
	VPABSW Y2, Y2; \
	VPABSW Y3, Y3; \
	VPADDW Y2, Y0, Y0; \
	VPADDW Y3, Y1, Y1

// MSEA_TERMM is MSEA_TERM for a C_k not held in a register: its sixteen
// broadcast words are at c(R10). A load costs less than a broadcast per
// row, which would take the shuffle port the terms need.
#define MSEA_TERMM(m, c) \
	VMOVDQU m, Y2; \
	VPSUBW  c(R10), Y2, Y2; \
	VPABSW  Y2, Y2; \
	VPADDW  Y2, Y0, Y0

// MSEA_TERM2M is MSEA_TERM2 for a C_k at c(R10).
#define MSEA_TERM2M(m, m32, c) \
	VMOVDQU m, Y2; \
	VMOVDQU m32, Y3; \
	VPSUBW  c(R10), Y2, Y2; \
	VPSUBW  c(R10), Y3, Y3; \
	VPABSW  Y2, Y2; \
	VPABSW  Y3, Y3; \
	VPADDW  Y2, Y0, Y0; \
	VPADDW  Y3, Y1, Y1

// MSEA_BELOW sets the word lanes of y to all ones where the bound in the
// matching lane of b is below T (≤ T−1, unsigned).
#define MSEA_BELOW(b, y) \
	VPMINUW MSEA_T1(SP), b, y; \
	VPCMPEQW b, y, y

// MSEA_ABS sets d = |s| (s ≠ MinInt64); NEGQ's sign picks the source.
#define MSEA_ABS(s, d) \
	MOVQ    s, d; \
	NEGQ    d; \
	CMOVQLT s, d

// func sadBestMSEA16AVX2(cur *byte, curStride int, ref *byte, refStride int, head *Offset, n int, minX, minY, maxX, maxY int, best int, sums *uint16, sumStride int) (dx, dy, sad int)
TEXT ·sadBestMSEA16AVX2(SB), 0, $2368-128
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
	MOVQ ref+16(FP), SI
	MOVQ refStride+24(FP), DX
	MOVQ head+32(FP), R8
	MOVQ n+40(FP), R9
	MOVQ minX+48(FP), R10
	MOVQ minY+56(FP), R11
	MOVQ maxX+64(FP), R12
	MOVQ maxY+72(FP), R13
	MOVQ best+80(FP), BX
	SUBQ R10, R12
	SUBQ R11, R13
	MOVQ $-1, R14
	XORQ AX, AX

	// The head: sadBest16AVX2's loop over n ≥ 1 positions.
headcand:
	SADBEST_CLIP_CAND(headnext)
	SADBEST_CAND_ADDR
	VPXOR Y0, Y0, Y0
	SADBEST_ROWS4_AVX2(Y4, Y5)
	SADBEST_ROWS4_AVX2(Y6, Y7)
	SADBEST_CHECK_AVX2(BX, headnext)
	SADBEST_ROWS4_AVX2(Y8, Y9)
	SADBEST_ROWS4_AVX2(Y10, Y11)
	SADBEST_CHECK_AVX2(BX, headnext)
	MOVQ CX, BX
	MOVQ AX, R14

headnext:
	INCQ AX
	CMPQ AX, R9
	JLT  headcand

	// The head's winner goes straight to the results, and R14 becomes its
	// L1: 0 when there is none, which no survivor undercuts. sad holds T
	// while BX serves the bound pass.
	XORQ AX, AX
	XORQ CX, CX
	TESTQ R14, R14
	JS   headdone
	MOVWQSX (R8)(R14*4), AX
	MOVWQSX 2(R8)(R14*4), CX

headdone:
	MOVQ AX, dx+104(FP)
	MOVQ CX, dy+112(FP)
	MOVQ BX, sad+120(FP)
	MSEA_ABS(AX, R14)
	MSEA_ABS(CX, DI)
	ADDQ DI, R14
	TESTQ BX, BX
	JLE  done

	// T−1, at most 65535 (every bound is below a larger T), in word lanes.
	LEAQ    -1(BX), AX
	MOVQ    $65535, CX
	CMPQ    AX, CX
	CMOVQGT CX, AX
	VMOVD   AX, X0
	VPBROADCASTW X0, Y0
	VMOVDQU Y0, MSEA_T1(SP)

	// C_k, k = 4j+i for the sub-block at (4i, 4j), as sixteen words.
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

	// Bounds and survivors, one window row per iteration: R9, DX, SI and
	// R12 = B rows v, v+4, v+8 and v+12 (the sub-block rows; one base
	// register each, since an indexed operand would not stay fused to its
	// VPSUBW), R15 = the bytes of one B row, R11 = bound row v, DI = mask
	// dword v, R8 = the spanX low bits a row keeps, AX = the OR of every
	// row's survivors. C_0..C_11 stay in Y4..Y15; C_12..C_15 are read from
	// MSEA_CB through R10.
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
	VPBROADCASTW MSEA_C+24(SP), Y2
	VMOVDQU      Y2, MSEA_CB(SP)
	VPBROADCASTW MSEA_C+26(SP), Y2
	VMOVDQU      Y2, MSEA_CB+32(SP)
	VPBROADCASTW MSEA_C+28(SP), Y2
	VMOVDQU      Y2, MSEA_CB+64(SP)
	VPBROADCASTW MSEA_C+30(SP), Y2
	VMOVDQU      Y2, MSEA_CB+96(SP)
	LEAQ         MSEA_CB(SP), R10
	LEAQ 1(R12), CX
	MOVQ $1, R8
	SHLQ CX, R8
	DECQ R8
	MOVQ sums+88(FP), R9
	MOVQ sumStride+96(FP), R15
	SHLQ $1, R15
	LEAQ (R9)(R15*4), DX
	LEAQ (DX)(R15*4), SI
	LEAQ (SI)(R15*4), BX
	LEAQ MSEA_BND(SP), R11
	LEAQ MSEA_MASKS(SP), DI
	XORQ AX, AX
	LEAQ 1(R13), CX
	CMPQ R12, $15
	MOVQ BX, R12
	JHI  bound2

bound1:
	VPXOR Y0, Y0, Y0
	MSEA_TERM(0(R9), Y4)
	MSEA_TERM(8(R9), Y5)
	MSEA_TERM(16(R9), Y6)
	MSEA_TERM(24(R9), Y7)
	MSEA_TERM(0(DX), Y8)
	MSEA_TERM(8(DX), Y9)
	MSEA_TERM(16(DX), Y10)
	MSEA_TERM(24(DX), Y11)
	MSEA_TERM(0(SI), Y12)
	MSEA_TERM(8(SI), Y13)
	MSEA_TERM(16(SI), Y14)
	MSEA_TERM(24(SI), Y15)
	MSEA_TERMM(0(R12), 0)
	MSEA_TERMM(8(R12), 32)
	MSEA_TERMM(16(R12), 64)
	MSEA_TERMM(24(R12), 96)
	VMOVDQU Y0, (R11)
	// Positions 0..7 and 8..15 land in bytes 0..7 and 16..23 of the
	// pack; VPERMQ brings them together.
	MSEA_BELOW(Y0, Y2)
	VPACKSSWB Y2, Y2, Y2
	VPERMQ    $0xD8, Y2, Y2
	VPMOVMSKB Y2, BX
	ANDQ      R8, BX
	MOVL      BX, (DI)
	ORQ       BX, AX
	ADDQ    R15, R9
	ADDQ    R15, DX
	ADDQ    R15, SI
	ADDQ    R15, R12
	ADDQ    $64, R11
	ADDQ    $4, DI
	DECQ    CX
	JNZ     bound1
	JMP     survivors

bound2:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	MSEA_TERM2(0(R9), 32(R9), Y4)
	MSEA_TERM2(8(R9), 40(R9), Y5)
	MSEA_TERM2(16(R9), 48(R9), Y6)
	MSEA_TERM2(24(R9), 56(R9), Y7)
	MSEA_TERM2(0(DX), 32(DX), Y8)
	MSEA_TERM2(8(DX), 40(DX), Y9)
	MSEA_TERM2(16(DX), 48(DX), Y10)
	MSEA_TERM2(24(DX), 56(DX), Y11)
	MSEA_TERM2(0(SI), 32(SI), Y12)
	MSEA_TERM2(8(SI), 40(SI), Y13)
	MSEA_TERM2(16(SI), 48(SI), Y14)
	MSEA_TERM2(24(SI), 56(SI), Y15)
	MSEA_TERM2M(0(R12), 32(R12), 0)
	MSEA_TERM2M(8(R12), 40(R12), 32)
	MSEA_TERM2M(16(R12), 48(R12), 64)
	MSEA_TERM2M(24(R12), 56(R12), 96)
	VMOVDQU Y0, (R11)
	VMOVDQU Y1, 32(R11)
	// The pack interleaves the two registers by 8-position quarters;
	// VPERMQ puts positions 0..31 in byte order.
	MSEA_BELOW(Y0, Y2)
	MSEA_BELOW(Y1, Y3)
	VPACKSSWB Y3, Y2, Y2
	VPERMQ    $0xD8, Y2, Y2
	VPMOVMSKB Y2, BX
	ANDQ      R8, BX
	MOVL      BX, (DI)
	ORQ       BX, AX
	ADDQ    R15, R9
	ADDQ    R15, DX
	ADDQ    R15, SI
	ADDQ    R15, R12
	ADDQ    $64, R11
	ADDQ    $4, DI
	DECQ    CX
	JNZ     bound2

	// Survivors. R12 = window row v, R13 = spanY, R15 = v's remaining mask
	// bits, AX = position x; R9 = its L1, R8 = its bar; R14 = the
	// incumbent's L1, BX = the running minimum.
survivors:
	TESTQ AX, AX
	JZ    done
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
	MOVQ ref+16(FP), SI
	MOVQ refStride+24(FP), DX
	MOVQ minX+48(FP), R10
	MOVQ minY+56(FP), R11
	MOVQ sad+120(FP), BX
	INCQ R13
	XORQ R12, R12

row:
	MOVL  MSEA_MASKS(SP)(R12*4), R15
	TESTQ R15, R15
	JZ    nextrow

cand:
	BSFQ R15, AX
	LEAQ -1(R15), DI
	ANDQ DI, R15
	LEAQ (AX)(R10*1), DI
	MSEA_ABS(DI, R9)
	LEAQ (R12)(R11*1), DI
	MSEA_ABS(DI, CX)
	ADDQ CX, R9
	CMPQ R9, $2
	JLE  skip
	LEAQ    1(BX), CX
	MOVQ    BX, R8
	CMPQ    R9, R14
	CMOVQLT CX, R8
	MOVQ    R12, DI
	SHLQ    $5, DI
	ADDQ    AX, DI
	MOVWQZX MSEA_BND(SP)(DI*2), DI
	CMPQ    DI, R8
	JGE     skip
	MOVQ  R12, DI
	IMULQ DX, DI
	ADDQ  SI, DI
	ADDQ  AX, DI
	VPXOR Y0, Y0, Y0
	SADBEST_ROWS4_AVX2(Y4, Y5)
	SADBEST_ROWS4_AVX2(Y6, Y7)
	SADBEST_CHECK_AVX2(R8, skip)
	SADBEST_ROWS4_AVX2(Y8, Y9)
	SADBEST_ROWS4_AVX2(Y10, Y11)
	SADBEST_CHECK_AVX2(R8, skip)
	MOVQ CX, BX
	MOVQ R9, R14
	LEAQ (AX)(R10*1), DI
	MOVQ DI, dx+104(FP)
	LEAQ (R12)(R11*1), DI
	MOVQ DI, dy+112(FP)

skip:
	TESTQ R15, R15
	JNZ   cand

nextrow:
	INCQ R12
	CMPQ R12, R13
	JLT  row
	MOVQ BX, sad+120(FP)

done:
	VZEROUPPER
	RET

// A per-call window of box sums for a caller with no BoxSums: the
// (spanX+12) × (spanY+12) sums of the candidate area go to this frame,
// rows 48 words apart, in sixteen-wide column chunks (the last ending on
// the area's last column: chunks at 0, min(16, w−16) when w > 16, and
// w−16 when w > 32, for w ≤ 44), and sadBestMSEA16AVX2 reads them there.
// An assembly frame is not zeroed, where a Go array of the same 4 224 bytes
// would be on every call. The frame holds no pointers of its own; the
// outgoing arguments are described by the callees' prototypes.
#define MSEAW_WIN 128

// MSEAW_CHUNK calls boxSums16AVX2 for the area's column chunk at c (a
// register) over all its rows. Clobbers every general register.
#define MSEAW_CHUNK(c) \
	MOVQ ref+16(FP), SI; \
	ADDQ c, SI; \
	MOVQ SI, 0(SP); \
	MOVQ refStride+24(FP), SI; \
	MOVQ SI, 8(SP); \
	LEAQ MSEAW_WIN(SP)(c*2), SI; \
	MOVQ SI, 16(SP); \
	MOVQ $48, 24(SP); \
	MOVQ maxY+72(FP), SI; \
	SUBQ minY+56(FP), SI; \
	ADDQ $13, SI; \
	MOVQ SI, 32(SP); \
	CALL ·boxSums16AVX2(SB)

// MSEAW_AREA sets AX to the area's width, spanX+12.
#define MSEAW_AREA \
	MOVQ maxX+64(FP), AX; \
	SUBQ minX+48(FP), AX; \
	ADDQ $13, AX

// func sadBestMSEAWindowAVX2(cur *byte, curStride int, ref *byte, refStride int, head *Offset, n int, minX, minY, maxX, maxY int, best int) (dx, dy, sad int)
TEXT ·sadBestMSEAWindowAVX2(SB), 0, $4352-112
	NO_LOCAL_POINTERS
	XORQ AX, AX
	MSEAW_CHUNK(AX)
	MSEAW_AREA
	CMPQ AX, $16
	JLE  winfilled
	LEAQ -16(AX), BX
	MOVQ $16, CX
	CMPQ BX, CX
	CMOVQLT BX, CX
	MSEAW_CHUNK(CX)
	MSEAW_AREA
	CMPQ AX, $32
	JLE  winfilled
	SUBQ $16, AX
	MSEAW_CHUNK(AX)

winfilled:
	MOVQ cur+0(FP), AX
	MOVQ AX, 0(SP)
	MOVQ curStride+8(FP), AX
	MOVQ AX, 8(SP)
	MOVQ ref+16(FP), AX
	MOVQ AX, 16(SP)
	MOVQ refStride+24(FP), AX
	MOVQ AX, 24(SP)
	MOVQ head+32(FP), AX
	MOVQ AX, 32(SP)
	MOVQ n+40(FP), AX
	MOVQ AX, 40(SP)
	MOVQ minX+48(FP), AX
	MOVQ AX, 48(SP)
	MOVQ minY+56(FP), AX
	MOVQ AX, 56(SP)
	MOVQ maxX+64(FP), AX
	MOVQ AX, 64(SP)
	MOVQ maxY+72(FP), AX
	MOVQ AX, 72(SP)
	MOVQ best+80(FP), AX
	MOVQ AX, 80(SP)
	LEAQ MSEAW_WIN(SP), AX
	MOVQ AX, 88(SP)
	MOVQ $48, 96(SP)
	CALL ·sadBestMSEA16AVX2(SB)
	MOVQ 104(SP), AX
	MOVQ AX, dx+88(FP)
	MOVQ 112(SP), AX
	MOVQ AX, dy+96(FP)
	MOVQ 120(SP), AX
	MOVQ AX, sad+104(FP)
	RET

// The 4×4 box sums sadBestMSEA16AVX2 reads, sixteen positions wide: the
// horizontal 4-sum of a row is four zero-extended byte loads added in word
// lanes, and the running vertical sum V adds each new row's and subtracts
// the one of four rows back, carried in Y4..Y7 (Y7 starts at zero, which
// the first stored row subtracts). A sum is at most 16·255 = 4080.

// BOX_HSUM sets y to the sixteen horizontal 4-sums of the row at SI and
// steps SI to the next row (clobbers Y0).
#define BOX_HSUM(y) \
	VPMOVZXBW (SI), y; \
	VPMOVZXBW 1(SI), Y0; \
	VPADDW    Y0, y, y; \
	VPMOVZXBW 2(SI), Y0; \
	VPADDW    Y0, y, y; \
	VPMOVZXBW 3(SI), Y0; \
	VPADDW    Y0, y, y; \
	ADDQ      DX, SI

// BOX_ROW adds the next row's 4-sums to V (Y3), drops those of four rows
// back held in old, keeps the new ones in old and stores V at DI, then
// steps DI one sum row (R8 bytes).
#define BOX_ROW(old) \
	BOX_HSUM(Y1); \
	VPADDW  Y1, Y3, Y3; \
	VPSUBW  old, Y3, Y3; \
	VMOVDQU Y1, old; \
	VMOVDQU Y3, (DI); \
	ADDQ    R8, DI

// func boxSums16AVX2(src *byte, srcStride int, dst *uint16, dstStride, h int)
//
// dst[y·dstStride + x] = Σ of the 4×4 pixels from src + y·srcStride + x,
// for x < 16 and y < h, h ≥ 1. It reads the 19 bytes of each of the h+3
// rows from src and writes the sixteen words of each of the h rows at dst.
TEXT ·boxSums16AVX2(SB), NOSPLIT, $0-40
	MOVQ src+0(FP), SI
	MOVQ srcStride+8(FP), DX
	MOVQ dst+16(FP), DI
	MOVQ dstStride+24(FP), R8
	SHLQ $1, R8
	MOVQ h+32(FP), CX
	BOX_HSUM(Y4)
	BOX_HSUM(Y5)
	BOX_HSUM(Y6)
	VPADDW Y5, Y4, Y3
	VPADDW Y6, Y3, Y3
	VPXOR  Y7, Y7, Y7

boxrow:
	BOX_ROW(Y7)
	DECQ CX
	JZ   boxdone
	BOX_ROW(Y4)
	DECQ CX
	JZ   boxdone
	BOX_ROW(Y5)
	DECQ CX
	JZ   boxdone
	BOX_ROW(Y6)
	DECQ CX
	JNZ  boxrow

boxdone:
	VZEROUPPER
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
