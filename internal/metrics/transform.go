package metrics

import (
	"repro/internal/dct"
	"repro/internal/frame"
)

// The two kernel-table entries of the transform's float tail: the forward
// transform's column pass with the quantiser behind it, and the
// reconstruction — dequantise, inverse transform, add the prediction,
// clamp, store. The scalar tier of each is the dct package's code, which
// defines it; the vector tiers keep one float64 lane per output, multiply
// and add in the scalar code's order with a rounding after each (never a
// fused multiply-add), and round half away from zero exactly, so every
// tier produces the scalar tier's levels and samples.

// ColQuant finishes the forward transform of one block from its row pass
// and quantises it: dct.QuantizeInterRows(levels, rp, qp) when intra is
// false, dct.QuantizeIntraRows when it is true — the same sixty-four
// levels, the same nz (any non-zero level; for intra any non-zero AC level)
// and the same live (how many coefficient columns ran their column pass;
// the rest are proven zero by their row-pass energy and never computed).
//
// levels and rp travel through the table's indirect call: hand them
// long-lived storage (the encoder's per-lane scratch and macroblock
// results), or each call moves them to the heap.
func ColQuant(levels *dct.Block, rp *dct.RowPass, qp int, intra bool) (nz bool, live int) {
	return kernels().colQuant(levels, rp, qp, intra)
}

// colQuantScalar is the reference tier: the dct package's two functions.
func colQuantScalar(levels *dct.Block, rp *dct.RowPass, qp int, intra bool) (bool, int) {
	if intra {
		return dct.QuantizeIntraRows(levels, rp, qp)
	}
	return dct.QuantizeInterRows(levels, rp, qp)
}

// InverseAdd reconstructs one 8×8 block: it dequantises levels at qp with
// the H.263 rule (dct.DequantizeInter, or dct.DequantizeIntra when intra:
// DC is 8·L), runs dct.Inverse over the coefficients, adds the 8×8
// prediction of pred anchored at (px, py) and writes the sums, clamped to
// 8 bits (frame.ClampU8), into the 8×8 window of dst anchored at (dx, dy).
// Both blocks lie inside their planes. pred may be dst's own window (an
// inter block finished in place over its prediction); an intra block takes
// a plane of zeros.
//
// Only that window of dst is written: the bytes beside it belong to
// neighbouring macroblocks other wavefront lanes may be writing. levels
// travels through the table's indirect call, so it must be long-lived
// storage, as for ColQuant.
func InverseAdd(dst *frame.Plane, dx, dy int, pred *frame.Plane, px, py int, levels *dct.Block, qp int, intra bool) {
	kernels().inverseAdd(dst, dx, dy, pred, px, py, levels, qp, intra)
}

// inverseAddScalar is the reference tier: dequantise, dct.Inverse, add in
// int32, clamp.
func inverseAddScalar(dst *frame.Plane, dx, dy int, pred *frame.Plane, px, py int, levels *dct.Block, qp int, intra bool) {
	var coef dct.Block
	if intra {
		dct.DequantizeIntra(&coef, levels, qp)
	} else {
		dct.DequantizeInter(&coef, levels, qp)
	}
	dct.Inverse(&coef, &coef)
	for y := 0; y < 8; y++ {
		p := pred.Pix[(py+y)*pred.Stride+px : (py+y)*pred.Stride+px+8]
		row := dst.Pix[(dy+y)*dst.Stride+dx : (dy+y)*dst.Stride+dx+8]
		for x, v := range p {
			row[x] = frame.ClampU8(int(int32(v) + coef[y*8+x]))
		}
	}
}
