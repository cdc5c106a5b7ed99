package metrics

import (
	"repro/internal/dct"
	"repro/internal/frame"
)

// The two kernel-table entries of the codec's residual path: the
// motion-compensated prediction fetch and the forward transform's row pass
// over the residual. Like every entry they are chosen by the table, never
// by the caller, and every tier produces the scalar tier's bits.

// PredictBlock writes, into the w×h window of dst anchored at (dx, dy), the
// motion-compensated prediction whose top-left corner sits at half-pel
// position (hx, hy) of ref — frame.HalfPelBlock's samples, which define it.
// Only that window is written: dst is the frame being reconstructed, and
// the bytes beside the window belong to neighbouring macroblocks that other
// wavefront lanes may be writing. The window must lie inside dst.
//
// The table kernels take the residual path's two shapes, 8 and 16 samples
// wide, while every sample the block reads lies within ref's apron (which
// must be replicated — true of every reference). Anything else — a vector
// of a corrupt stream reaching further out, other widths — is
// frame.HalfPelBlock itself.
func PredictBlock(dst *frame.Plane, dx, dy int, ref *frame.Plane, hx, hy, w, h int) {
	if (w == 8 || w == 16) && h > 0 && ref.InApron(hx>>1, hy>>1, w+hx&1, h+hy&1) {
		kernels().predict(dst, dx, dy, ref, hx, hy, w, h)
		return
	}
	predictScalar(dst, dx, dy, ref, hx, hy, w, h)
}

// predictScalar is the scalar (and SWAR: HalfPelBlock is word-parallel Go
// already) tier of PredictBlock and its route past the guards.
func predictScalar(dst *frame.Plane, dx, dy int, ref *frame.Plane, hx, hy, w, h int) {
	frame.HalfPelBlock(dst.Pix[dy*dst.Stride+dx:], dst.Stride, ref, hx, hy, w, h)
}

// ResidualRows runs the forward transform's row pass over the residual
// a − b of two 8×8 byte blocks, anchored at (ax, ay) and (bx, by) and lying
// inside their planes, into rp: dct.ForwardRows of the sixty-four
// differences, without widening them to a dct.Block first. The vector
// tiers keep one float64 lane per output coefficient and accumulate over
// the row in ForwardRows' order with a separate multiply and add — never a
// fused one, whose single rounding differs — so all seventy-two results
// carry the same bits on every tier; dct.QuantizeInterRows finishes the
// transform.
//
// rp travels through the table's indirect call, which the compiler cannot
// see through: hand it long-lived storage (the encoder's per-lane scratch).
// A stack variable would be moved to the heap on every call — and seventy-
// two float64s by value cost more to copy than the vector row pass takes.
func ResidualRows(rp *dct.RowPass, a *frame.Plane, ax, ay int, b *frame.Plane, bx, by int) {
	kernels().residualRows(rp, a, ax, ay, b, bx, by)
}

// residualRowsScalar is the reference row pass: widen, subtract,
// dct.ForwardRows.
func residualRowsScalar(rp *dct.RowPass, a *frame.Plane, ax, ay int, b *frame.Plane, bx, by int) {
	var resid dct.Block
	for y := 0; y < 8; y++ {
		ar := a.Pix[(ay+y)*a.Stride+ax : (ay+y)*a.Stride+ax+8]
		br := b.Pix[(by+y)*b.Stride+bx : (by+y)*b.Stride+bx+8]
		for x, av := range ar {
			resid[y*8+x] = int32(av) - int32(br[x])
		}
	}
	dct.ForwardRows(rp, &resid)
}
