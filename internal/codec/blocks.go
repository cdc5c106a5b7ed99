package codec

import (
	"repro/internal/dct"
	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/mvfield"
	"repro/internal/search"
)

// Block-level coding primitives shared by the encoder and decoder. The
// reconstruction functions here are the single source of truth for both
// sides, which is what makes the decoder bit-identical to the encoder's
// reference loop.

// loadBlock copies the 8×8 samples of p anchored at (x, y) into b.
func loadBlock(b *dct.Block, p *frame.Plane, x, y int) {
	for r := 0; r < 8; r++ {
		row := p.Pix[(y+r)*p.Stride+x : (y+r)*p.Stride+x+8]
		for c := 0; c < 8; c++ {
			b[r*8+c] = int32(row[c])
		}
	}
}

// storeBlock writes b (clamped to 8-bit) into p at (x, y).
func storeBlock(p *frame.Plane, x, y int, b *dct.Block) {
	for r := 0; r < 8; r++ {
		row := p.Pix[(y+r)*p.Stride+x : (y+r)*p.Stride+x+8]
		for c := 0; c < 8; c++ {
			row[c] = frame.ClampU8(int(b[r*8+c]))
		}
	}
}

// predWindow locates the 8×8 motion-compensated prediction for the block
// anchored at (x, y) with vector mv (half-pel units) as bytes, without
// widening a sample: it returns a plane and the anchor of the prediction
// inside it. ref is the reference plane itself. A full-pel vector whose
// block stays inside it returns a window of ref (that covers every skip
// block and most chroma vectors); every other vector has
// frame.HalfPelBlock compute the sixty-four samples from ref into tile — a
// tight 8×8 plane the caller owns — and returns that. No half-pel state
// outlives the call and nothing here claims a tile of the frame package's
// materialised half-pel view, so concurrent analysis lanes share only the
// read-only reference. Encoder and decoder both predict through here, so
// they cannot disagree on a sample.
func predWindow(tile, ref *frame.Plane, x, y int, mv mvfield.MV) (p *frame.Plane, px, py int) {
	if mv.X&1 == 0 && mv.Y&1 == 0 {
		sx, sy := x+mv.X/2, y+mv.Y/2
		if ref.InBounds(sx, sy, 8, 8) {
			return ref, sx, sy
		}
	}
	frame.HalfPelBlock(tile.Pix, ref, 2*x+mv.X, 2*y+mv.Y, 8, 8)
	return tile, 0, 0
}

// tilePlane wraps buf as the tight 8×8 plane predWindow fills.
func tilePlane(buf *[64]uint8) frame.Plane {
	return frame.Plane{W: 8, H: 8, Stride: 8, Pix: buf[:]}
}

// predBlock fetches the 8×8 motion-compensated prediction for the block
// anchored at (x, y) with vector mv (half-pel units), widened into b.
func predBlock(b *dct.Block, ref *frame.Plane, x, y int, mv mvfield.MV) {
	var buf [64]uint8
	tile := tilePlane(&buf)
	pp, px, py := predWindow(&tile, ref, x, y, mv)
	loadBlock(b, pp, px, py)
}

// copyBlock copies the 8×8 samples of src anchored at (sx, sy) to dst at
// (x, y).
func copyBlock(dst *frame.Plane, x, y int, src *frame.Plane, sx, sy int) {
	for r := 0; r < 8; r++ {
		copy(dst.Pix[(y+r)*dst.Stride+x:(y+r)*dst.Stride+x+8],
			src.Pix[(sy+r)*src.Stride+sx:(sy+r)*src.Stride+sx+8])
	}
}

// storePredBlock writes the motion-compensated prediction for an uncoded
// block straight into p as bytes. The reconstruction of an uncoded block
// is exactly its prediction and prediction samples are already 8-bit, so
// this equals predBlock + reconInterBlock(coded=false) + storeBlock while
// skipping both int32 conversions and the clamp.
func storePredBlock(p *frame.Plane, x, y int, ref *frame.Plane, mv mvfield.MV) {
	var buf [64]uint8
	tile := tilePlane(&buf)
	pp, px, py := predWindow(&tile, ref, x, y, mv)
	copyBlock(p, x, y, pp, px, py)
}

// encodeInterBlock transforms and quantises the residual cur−pred. It
// returns whether any quantised level is non-zero and how many coefficient
// columns needed their column pass (dct.ForwardQuantizeInter).
func encodeInterBlock(levels *dct.Block, cur, pred *dct.Block, qp int) (coded bool, liveCols int) {
	var resid dct.Block
	for i := range resid {
		resid[i] = cur[i] - pred[i]
	}
	return dct.ForwardQuantizeInter(levels, &resid, qp)
}

// mbScratch is the state one analysis worker reuses across macroblocks,
// so that neither the search problem nor the residual path allocates per
// macroblock: the searcher's Input, and the tile predWindow fills for
// half-pel vectors. Both are handed to code the compiler cannot see
// through (the Searcher interface, the metrics kernel table), so they
// must live on the heap once rather than on a stack per call.
type mbScratch struct {
	in      search.Input
	tile    frame.Plane // tight 8×8 view of tileBuf
	tileBuf [64]uint8
}

// init points the tile at its buffer; call it once the scratch has its
// final address.
func (sc *mbScratch) init() {
	sc.tile = tilePlane(&sc.tileBuf)
}

// codeInterBlock runs the residual path for block i of an inter
// macroblock: the 8×8 samples of src at (x, y), predicted from the
// reference plane ref with vector mv, reconstructed into recon. It sets
// r.coded[i] and, for a coded block, r.levels[i]; the levels of an uncoded
// block are never read.
//
// The path matches its traffic, one route with early exits. The residual
// energy is taken on plane bytes first, and a block at or below
// dct.InterZeroBound is provably all-zero after Forward + QuantizeInter
// (see the bound's derivation), so its outcome — uncoded, reconstruction =
// prediction — is recorded with a byte copy and nothing is widened,
// transformed or quantised. A block above the bound is loaded into
// dct.Blocks and transformed by dct.ForwardQuantizeInter, which applies
// the same bound per coefficient column after the row pass and runs the
// column pass only where a level can be non-zero; most survivors end
// there, uncoded, after half a transform. Only a block that keeps a level
// is dequantised, inverse-transformed and clamped. Each exit changes
// which work is done, never its result: coded flags, levels and every
// reconstructed sample equal what the full route alone would produce.
func (e *Encoder) codeInterBlock(sc *mbScratch, r *mbResult, i int, src, recon *frame.Plane, x, y int, ref *frame.Plane, mv mvfield.MV) {
	pp, px, py := predWindow(&sc.tile, ref, x, y, mv)
	if metrics.SSE(src, x, y, pp, px, py, 8, 8) <= dct.InterZeroBound(e.curQp) {
		r.coded[i] = false
		r.gated++
		copyBlock(recon, x, y, pp, px, py)
		return
	}
	var cur, pred dct.Block
	loadBlock(&cur, src, x, y)
	loadBlock(&pred, pp, px, py)
	coded, liveCols := encodeInterBlock(&r.levels[i], &cur, &pred, e.curQp)
	r.coded[i] = coded
	if liveCols == 0 {
		r.rowOnly++
	}
	if !coded {
		copyBlock(recon, x, y, pp, px, py)
		return
	}
	reconInterBlock(&cur, &pred, &r.levels[i], true, e.curQp) // cur is spent: reuse it
	storeBlock(recon, x, y, &cur)
}

// codeInterBlocks runs codeInterBlock over the six blocks of macroblock
// (mbx, mby): the four luma blocks with their own vectors (all equal for
// a one-vector macroblock) and both chroma blocks with cmv.
func (e *Encoder) codeInterBlocks(sc *mbScratch, r *mbResult, src, recon *frame.Frame, mbx, mby int, lumaMV [4]mvfield.MV, cmv mvfield.MV) {
	r.gated, r.rowOnly = 0, 0
	for i, off := range lumaBlockOffsets {
		e.codeInterBlock(sc, r, i, src.Y, recon.Y, 16*mbx+off[0], 16*mby+off[1], e.recon.Y, lumaMV[i])
	}
	e.codeInterBlock(sc, r, 4, src.Cb, recon.Cb, 8*mbx, 8*mby, e.recon.Cb, cmv)
	e.codeInterBlock(sc, r, 5, src.Cr, recon.Cr, 8*mbx, 8*mby, e.recon.Cr, cmv)
}

// reconInterBlock reconstructs an inter block from its prediction and
// quantised levels (coded == false means all-zero levels).
func reconInterBlock(out, pred, levels *dct.Block, coded bool, qp int) {
	if !coded {
		*out = *pred
		return
	}
	var coef dct.Block
	dct.DequantizeInter(&coef, levels, qp)
	dct.Inverse(&coef, &coef)
	for i := range out {
		out[i] = pred[i] + coef[i]
	}
}

// encodeIntraBlock transforms and quantises raw samples.
func encodeIntraBlock(levels *dct.Block, cur *dct.Block, qp int) {
	var coef dct.Block
	dct.Forward(&coef, cur)
	dct.QuantizeIntra(levels, &coef, qp)
}

// reconIntraBlock reconstructs an intra block from quantised levels.
func reconIntraBlock(out, levels *dct.Block, qp int) {
	var coef dct.Block
	dct.DequantizeIntra(&coef, levels, qp)
	dct.Inverse(out, &coef)
}

// acCoded reports whether any AC coefficient (index > 0) is non-zero.
func acCoded(levels *dct.Block) bool {
	for i := 1; i < len(levels); i++ {
		if levels[i] != 0 {
			return true
		}
	}
	return false
}

// chromaMV derives the chroma-plane motion vector from a luma vector,
// halving each component and rounding away from zero to the nearest
// half-pel position (the H.263 derivation up to rounding convention).
func chromaMV(mv mvfield.MV) mvfield.MV {
	h := func(v int) int {
		switch {
		case v > 0:
			return (v + 1) / 2
		case v < 0:
			return -((-v + 1) / 2)
		}
		return 0
	}
	return mvfield.MV{X: h(mv.X), Y: h(mv.Y)}
}

// lumaBlockOffsets are the four 8×8 luma blocks of a macroblock in coding
// order (top-left, top-right, bottom-left, bottom-right).
var lumaBlockOffsets = [4][2]int{{0, 0}, {8, 0}, {0, 8}, {8, 8}}
