//go:build amd64

#include "textflag.h"

// AVX2 kernels of the transform's float tail (transform.go): the forward
// column pass with the quantiser, and the reconstruction. Both keep one
// float64 lane per output and accumulate in the scalar code's order, each
// product a VMULPD and each sum a VADDPD — two roundings, as dct.dot8 does
// it, never a fused multiply-add — so every float is the scalar code's bit
// for bit (MXCSR is Go's default: round to nearest even, no flush-to-zero).
// Every instruction is VEX-encoded: one legacy-SSE instruction between
// 256-bit ones costs an AVX↔SSE state transition per call.
//
// Both kernels round half away from zero (math.Round) exactly: t =
// trunc(x), and t ± 1 (the sign of x) where |x − t| ≥ ½. x − t is exact
// (Sterbenz: t and x share a sign and |x| < 2|t|, or t = 0), and so is
// t ± 1 at these magnitudes.
//
// Shared constant registers: Y8 = |·| mask, Y9 = sign mask, Y10 = 0.5,
// Y11 = 1.0.

#define TF_CONSTS \
	MOVQ $0x7FFFFFFFFFFFFFFF, AX; \
	VMOVQ AX, X8; \
	VBROADCASTSD X8, Y8; \
	MOVQ $0x8000000000000000, AX; \
	VMOVQ AX, X9; \
	VBROADCASTSD X9, Y9; \
	MOVQ $0x3FE0000000000000, AX; \
	VMOVQ AX, X10; \
	VBROADCASTSD X10, Y10; \
	MOVQ $0x3FF0000000000000, AX; \
	VMOVQ AX, X11; \
	VBROADCASTSD X11, Y11

// ROUND_AWAY rounds the four lanes of x half away from zero in place; t, d
// and s are scratch.
#define ROUND_AWAY(x, t, d, s) \
	VROUNDPD $3, x, t; \
	VSUBPD t, x, d; \
	VANDPD Y8, d, d; \
	VCMPPD $0x0D, Y10, d, d; \
	VANDPD Y9, x, s; \
	VORPD Y11, s, s; \
	VANDPD d, s, s; \
	VADDPD s, t, x

// Forward column pass and quantiser. For every live coefficient column u
// (row-pass energy E_u above bound), lanes across v:
// F(u, v) = Σ_y Tmp[y][u]·basis[y][v], y
// ascending from the y = 0 product — dct.QuantizeInterRows' dot8 of the
// gathered column with basis row v, basis = dct.RowBasis() — then
// c = round(F) and the H.263 rule in float, exact because c, half and step
// are small integers and a correctly rounded quotient of two of them
// cannot cross an integer: level = sign(c)·min(max(trunc((|c| − half) /
// step), 0), 127). Intra passes half = 0 (QuantizeIntra's AC rule), and its
// DC slot takes min(max(trunc((c + 4)/8), 1), 254) instead and stays out of
// nz. Dead columns are left at the zeros stored first.
//
// Registers: Y0/Y1 accumulate v = 0..3 / 4..7; Y2..Y6 scratch; Y7 = OR of
// every stored AC level; Y12 = half, Y13 = step, Y14 = 127, Y15 = 0.

// CQ_Y adds row y's products: Tmp[y][u] (at R9 + 64y) times basis row y.
#define CQ_Y(y) \
	VBROADCASTSD (y*64)(R9), Y2; \
	VMULPD (y*64)(R8), Y2, Y3; \
	VMULPD (y*64+32)(R8), Y2, Y4; \
	VADDPD Y3, Y0, Y0; \
	VADDPD Y4, Y1, Y1

// CQ_QUANT turns the rounded coefficients in c into levels, in place.
#define CQ_QUANT(c, a, s) \
	VANDPD Y8, c, a; \
	VSUBPD Y12, a, a; \
	VDIVPD Y13, a, a; \
	VROUNDPD $3, a, a; \
	VMAXPD Y15, a, a; \
	VMINPD Y14, a, a; \
	VANDPD Y9, c, s; \
	VORPD s, a, c

// CQ_STORE writes the column's eight int32 levels (X0: v = 0..3, X1:
// v = 4..7) to levels[v*8 + u], R9 = &levels[u], and ORs them into Y7.
#define CQ_STORE \
	VPOR Y0, Y7, Y7; \
	VPOR Y1, Y7, Y7; \
	VMOVD X0, (R9); \
	VPEXTRD $1, X0, 32(R9); \
	VPEXTRD $2, X0, 64(R9); \
	VPEXTRD $3, X0, 96(R9); \
	VMOVD X1, 128(R9); \
	VPEXTRD $1, X1, 160(R9); \
	VPEXTRD $2, X1, 192(R9); \
	VPEXTRD $3, X1, 224(R9)

// func colQuantAVX2(levels *dct.Block, rp *dct.RowPass, basis *[8][8]float64, bound, half, step float64, intra int) (nz, live int)
TEXT ·colQuantAVX2(SB), NOSPLIT, $0-72
	MOVQ levels+0(FP), DI
	MOVQ rp+8(FP), SI
	MOVQ basis+16(FP), R8
	MOVQ intra+48(FP), R11

	// Live columns: !(Energy[u] ≤ bound), the scalar code's test to the
	// letter, without a branch per column; intra column 0 always runs.
	VBROADCASTSD bound+24(FP), Y2
	VCMPPD $0x09, 512(SI), Y2, Y0 // NGE_US: not (bound ≥ E_u), u = 0..3
	VCMPPD $0x09, 544(SI), Y2, Y1 // u = 4..7
	VMOVMSKPD Y0, BX
	VMOVMSKPD Y1, AX
	SHLQ $4, AX
	ORQ  AX, BX
	ORQ  R11, BX
	POPCNTQ BX, AX
	MOVQ AX, live+64(FP)

	VXORPD Y15, Y15, Y15
	VMOVDQU Y15, (DI)
	VMOVDQU Y15, 32(DI)
	VMOVDQU Y15, 64(DI)
	VMOVDQU Y15, 96(DI)
	VMOVDQU Y15, 128(DI)
	VMOVDQU Y15, 160(DI)
	VMOVDQU Y15, 192(DI)
	VMOVDQU Y15, 224(DI)
	VPXOR Y7, Y7, Y7
	TESTQ BX, BX                 // settled by the row pass alone
	JZ   cqDone
	TF_CONSTS
	VBROADCASTSD half+32(FP), Y12
	VBROADCASTSD step+40(FP), Y13
	MOVQ $0x405FC00000000000, AX // 127.0
	VMOVQ AX, X14
	VBROADCASTSD X14, Y14

cqCol:
	TESTQ BX, BX
	JZ   cqDone
	BSFQ BX, CX
	BTRQ CX, BX
	LEAQ (SI)(CX*8), R9          // &Tmp[0][u]
	VBROADCASTSD (R9), Y2
	VMULPD (R8), Y2, Y0
	VMULPD 32(R8), Y2, Y1
	CQ_Y(1)
	CQ_Y(2)
	CQ_Y(3)
	CQ_Y(4)
	CQ_Y(5)
	CQ_Y(6)
	CQ_Y(7)
	ROUND_AWAY(Y0, Y2, Y3, Y4)
	ROUND_AWAY(Y1, Y2, Y3, Y4)
	VMOVAPD X0, X6               // c(u, 0) for the intra DC rule
	CQ_QUANT(Y0, Y2, Y3)
	CQ_QUANT(Y1, Y2, Y3)
	VCVTTPD2DQY Y0, X0
	VCVTTPD2DQY Y1, X1
	LEAQ (DI)(CX*4), R9          // &levels[u]
	TESTQ CX, CX
	JNZ  cqStore
	TESTQ R11, R11
	JNZ  cqDC

cqStore:
	CQ_STORE
	JMP  cqCol

cqDC:
	VPBLENDD $1, X15, X0, X0     // the DC slot holds no AC level
	CQ_STORE
	MOVQ $0x4010000000000000, AX // 4.0
	VMOVQ AX, X2
	VADDSD X2, X6, X6
	MOVQ $0x3FC0000000000000, AX // 0.125
	VMOVQ AX, X2
	VMULSD X2, X6, X6
	VROUNDSD $3, X6, X6, X6
	VMAXSD X11, X6, X6           // 1.0
	MOVQ $0x406FC00000000000, AX // 254.0
	VMOVQ AX, X2
	VMINSD X2, X6, X6
	VCVTTPD2DQX X6, X6
	VMOVD X6, (DI)
	JMP  cqCol

cqDone:
	XORQ AX, AX
	VPTEST Y7, Y7
	SETNE AL
	MOVQ AX, nz+56(FP)
	VZEROUPPER
	RET

// Reconstruction: dequantise, inverse transform, add the prediction,
// clamp, store.
//
// Dequantisation is the H.263 rule on eight int32 lanes, wrapping exactly
// as dct.DequantizeInter's int32 arithmetic does:
// VPSIGND(min(qp·(2|L|+1) − even, 2047), L), even = 1 for an even qp;
// intra DC is L·8. The coefficients go to a float64 tile on the stack; a
// row mask (rows with a non-zero coefficient) and a column mask (columns
// with one) are taken on the way.
//
// The column pass — dct.Inverse's first — has lanes across u:
// tmp[y][u] = Σ_v coef[v][u]·basis[v][y], v ascending, basis =
// dct.Basis(); the row pass has lanes across x: out[y][x] =
// Σ_u tmp[y][u]·basis[u][x], u ascending. Both skip the terms of all-zero
// coefficient rows and columns and start from zero: a skipped term is a
// product with a zero factor, ±0, which can change only the sign of a zero
// sum, and rounding erases that. Four rows are in flight per step.
//
// Each output row is rounded, converted to int32, added to the prediction
// row widened to int32 (wrapping as Go's int32 add does), and packed with
// signed then unsigned saturation — exactly frame.ClampU8 — into eight
// bytes, stored with one VMOVQ: the 8×8 window and nothing beside it. A
// row's prediction is read before the row is stored, so pred may be the
// destination window itself.

#define IA_DEQ(v) \
	VMOVDQU (v*32)(SI), Y0; \
	VPABSD Y0, Y1; \
	VPADDD Y1, Y1, Y1; \
	VPOR Y11, Y1, Y1; \
	VPMULLD Y8, Y1, Y1; \
	VPSUBD Y9, Y1, Y1; \
	VPMINSD Y10, Y1, Y1; \
	VPSIGND Y0, Y1, Y1

#define IA_FIN(v) \
	VPOR Y1, Y12, Y12; \
	XORQ AX, AX; \
	VPTEST Y1, Y1; \
	SETNE AL; \
	SHLQ $v, AX; \
	ORQ AX, R12; \
	VCVTDQ2PD X1, Y2; \
	VEXTRACTI128 $1, Y1, X3; \
	VCVTDQ2PD X3, Y3; \
	VMOVUPD Y2, (v*64)(R10); \
	VMOVUPD Y3, (v*64+32)(R10)

// IA_COL adds coefficient row v's products (Y12, Y13; CX = 64v) to output
// row y0 + off/8 of the column pass, basis at R13 = &basis[0][y0].
#define IA_COL(off, lo, hi) \
	VBROADCASTSD off(R13)(CX*1), Y14; \
	VMULPD Y12, Y14, Y15; \
	VADDPD Y15, lo, lo; \
	VMULPD Y13, Y14, Y15; \
	VADDPD Y15, hi, hi

// IA_ROW adds column u's products (basis row u in Y12, Y13; CX = u) to
// output row off/64 of the group, whose tmp rows start at SI.
#define IA_ROW(off, lo, hi) \
	VBROADCASTSD off(SI)(CX*8), Y14; \
	VMULPD Y12, Y14, Y15; \
	VADDPD Y15, lo, lo; \
	VMULPD Y13, Y14, Y15; \
	VADDPD Y15, hi, hi

// IA_OUT rounds one output row, adds the prediction row at BX, clamps and
// stores it at DI, then steps both pointers a row.
#define IA_OUT(lo, hi, xlo, xhi) \
	ROUND_AWAY(lo, Y12, Y13, Y14); \
	ROUND_AWAY(hi, Y12, Y13, Y14); \
	VCVTTPD2DQY lo, xlo; \
	VCVTTPD2DQY hi, xhi; \
	VINSERTI128 $1, xhi, lo, lo; \
	VPMOVZXBD (BX), Y12; \
	VPADDD Y12, lo, lo; \
	VEXTRACTI128 $1, lo, xhi; \
	VPACKSSDW xhi, xlo, xlo; \
	VPACKUSWB xlo, xlo, xlo; \
	VMOVQ xlo, (DI); \
	ADDQ DX, BX; \
	ADDQ R9, DI

// The two 512-byte tiles exceed what a NOSPLIT frame may take, so this one
// keeps the stack check.
//
// func inverseAddAVX2(dst *byte, dstStride int, pred *byte, predStride int, levels *dct.Block, basis *[8][8]float64, qp, intra int)
TEXT ·inverseAddAVX2(SB), 0, $1024-64
	MOVQ levels+32(FP), SI
	MOVQ basis+40(FP), R8
	MOVQ qp+48(FP), AX
	VMOVQ AX, X8
	VPBROADCASTD X8, Y8          // qp
	ANDQ $1, AX
	XORQ $1, AX
	VMOVQ AX, X9
	VPBROADCASTD X9, Y9          // 1 for an even qp
	MOVQ $2047, AX
	VMOVQ AX, X10
	VPBROADCASTD X10, Y10
	MOVQ $1, AX
	VMOVQ AX, X11
	VPBROADCASTD X11, Y11
	VPXOR Y12, Y12, Y12          // OR of every coefficient row
	XORQ R12, R12                // row mask
	MOVQ SP, R10                 // coefficient tile, 8×8 float64

	IA_DEQ(0)
	MOVQ intra+56(FP), AX
	TESTQ AX, AX
	JZ   iaInter
	VPSLLD $3, Y0, Y2
	VPBLENDD $1, Y2, Y1, Y1      // intra DC: 8·L

iaInter:
	IA_FIN(0)
	IA_DEQ(1)
	IA_FIN(1)
	IA_DEQ(2)
	IA_FIN(2)
	IA_DEQ(3)
	IA_FIN(3)
	IA_DEQ(4)
	IA_FIN(4)
	IA_DEQ(5)
	IA_FIN(5)
	IA_DEQ(6)
	IA_FIN(6)
	IA_DEQ(7)
	IA_FIN(7)

	VPXOR Y13, Y13, Y13
	VPCMPEQD Y13, Y12, Y12
	VMOVMSKPS Y12, R11
	XORQ $0xFF, R11              // column mask
	TF_CONSTS

	// Column pass, rows y0 = 0 and 4 of tmp (tile at 512(SP)).
	LEAQ 512(SP), SI
	MOVQ R8, R13
	MOVQ $2, DX

iaColGroup:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ R12, BX

iaColRow:
	TESTQ BX, BX
	JZ   iaColStore
	BSFQ BX, CX
	BTRQ CX, BX
	SHLQ $6, CX
	VMOVUPD (R10)(CX*1), Y12
	VMOVUPD 32(R10)(CX*1), Y13
	IA_COL(0, Y0, Y1)
	IA_COL(8, Y2, Y3)
	IA_COL(16, Y4, Y5)
	IA_COL(24, Y6, Y7)
	JMP  iaColRow

iaColStore:
	VMOVUPD Y0, (SI)
	VMOVUPD Y1, 32(SI)
	VMOVUPD Y2, 64(SI)
	VMOVUPD Y3, 96(SI)
	VMOVUPD Y4, 128(SI)
	VMOVUPD Y5, 160(SI)
	VMOVUPD Y6, 192(SI)
	VMOVUPD Y7, 224(SI)
	ADDQ $256, SI
	ADDQ $32, R13
	DECQ DX
	JNZ  iaColGroup

	// Row pass and output, rows 0..3 then 4..7.
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R9
	MOVQ pred+16(FP), BX
	MOVQ predStride+24(FP), DX
	LEAQ 512(SP), SI
	MOVQ $2, R13

iaRowGroup:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ R11, AX

iaRowCol:
	TESTQ AX, AX
	JZ   iaOut
	BSFQ AX, CX
	BTRQ CX, AX
	MOVQ CX, R12
	SHLQ $6, R12
	VMOVUPD (R8)(R12*1), Y12
	VMOVUPD 32(R8)(R12*1), Y13
	IA_ROW(0, Y0, Y1)
	IA_ROW(64, Y2, Y3)
	IA_ROW(128, Y4, Y5)
	IA_ROW(192, Y6, Y7)
	JMP  iaRowCol

iaOut:
	IA_OUT(Y0, Y1, X0, X1)
	IA_OUT(Y2, Y3, X2, X3)
	IA_OUT(Y4, Y5, X4, X5)
	IA_OUT(Y6, Y7, X6, X7)
	ADDQ $256, SI
	DECQ R13
	JNZ  iaRowGroup

	VZEROUPPER
	RET
