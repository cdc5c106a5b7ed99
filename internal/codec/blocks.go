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

// predictInterMB writes the motion-compensated prediction of inter
// macroblock (mbx, mby) straight into recon, the frame being
// reconstructed, from the reference ref: the luma as one 16×16 fetch at
// mv, each chroma plane as one 8×8 fetch at chromaMV(mv). Vectors are in
// half-pel units. metrics.PredictBlock computes frame.HalfPelBlock's
// samples and writes exactly the window it is given, so a macroblock's
// analysis still touches only its own 16×16 luma and 8×8 chroma region of
// recon — the wavefront's write rule — and reads only the read-only
// reference.
//
// After this call every block of the macroblock is finished if it turns out
// uncoded (its reconstruction is its prediction), and a coded block's
// prediction is what recon holds at the block's own coordinates. Encoder
// and decoder both predict through here and both finish coded blocks with
// reconCodedBlock, so they cannot disagree on a sample.
func predictInterMB(recon, ref *frame.Frame, mbx, mby int, mv mvfield.MV) {
	x, y := 16*mbx, 16*mby
	metrics.PredictBlock(recon.Y, x, y, ref.Y, 2*x+mv.X, 2*y+mv.Y, 16, 16)
	cmv := chromaMV(mv)
	cx, cy := 8*mbx, 8*mby
	metrics.PredictBlock(recon.Cb, cx, cy, ref.Cb, 2*cx+cmv.X, 2*cy+cmv.Y, 8, 8)
	metrics.PredictBlock(recon.Cr, cx, cy, ref.Cr, 2*cx+cmv.X, 2*cy+cmv.Y, 8, 8)
}

// reconCodedBlock finishes a coded inter block in place: p holds the
// block's prediction at (x, y) (predictInterMB) and receives prediction +
// dequantised, inverse-transformed levels, clamped to 8 bits — one
// metrics.InverseAdd over the block's own window. levels crosses the kernel
// table's indirect call, so it must be long-lived storage (mbResult.levels,
// the decoder's scratch block), never a stack block per call.
func reconCodedBlock(p *frame.Plane, x, y int, levels *dct.Block, qp int) {
	metrics.InverseAdd(p, x, y, p, x, y, levels, qp, false)
}

// mbScratch is the state one analysis worker reuses across macroblocks,
// so that neither the search problem nor the residual path allocates per
// macroblock: the searcher's Input, and the row pass of a block being
// transformed (inter survivors and intra blocks alike). Both are handed to
// code the compiler cannot see through (the Searcher interface, the
// metrics kernel table), so they must live on the heap once rather than on
// a stack per call. The levels the column pass writes and the
// reconstruction reads are the macroblock result's, which is long-lived
// already. sums is the lane's cache of the reference's 4×4 box sums, which
// the full search fills as its windows need them; analyzeFrame resets it
// onto each P-frame's reference, and finalise hands its storage back to
// metrics' pool for the next session.
type mbScratch struct {
	in   search.Input
	rows dct.RowPass
	sums metrics.BoxSums
}

// zeroBlock is the 8×8 block of zeros an intra block's samples are taken
// against, so that metrics.ResidualRows — the residual path's row-pass
// kernel — runs the intra transform's row pass too, and the prediction
// metrics.InverseAdd adds to an intra block's reconstruction. Read-only,
// shared by every lane and by the decoder.
var zeroBlock = frame.NewPlane(8, 8)

// codeInterBlocks predicts macroblock (mbx, mby) in place at mv and runs
// the residual path over its six blocks. It sets r.coded and, for a coded
// block, r.levels[i]; the levels of an uncoded block are never read.
//
// The path matches its traffic, one route with early exits. The six
// residual energies are taken on plane bytes first, in one
// metrics.MacroblockSSE call once the prediction is in place. That is exact
// for every block, not just the first: coding block i writes only block i
// of recon, and no other block's energy reads it. A block at or below
// dct.InterZeroBound is provably all-zero after Forward + QuantizeInter
// (see the bound's derivation), so its outcome — uncoded, reconstruction =
// the prediction already in place — is recorded and nothing is widened,
// transformed, quantised or copied. The rest take codeInterBlock.
func (e *Encoder) codeInterBlocks(sc *mbScratch, r *mbResult, src, recon *frame.Frame, mbx, mby int, mv mvfield.MV) {
	predictInterMB(recon, e.recon, mbx, mby, mv)
	energy := metrics.MacroblockSSE(src, recon, mbx, mby)
	bound := dct.InterZeroBound(e.curQp)
	r.gated, r.rowOnly = 0, 0
	for i, en := range energy {
		if en <= bound {
			r.coded[i] = false
			r.gated++
			continue
		}
		sp, x, y := mbBlock(src, mbx, mby, i)
		rp, _, _ := mbBlock(recon, mbx, mby, i)
		e.codeInterBlock(sc, r, i, sp, rp, x, y)
	}
}

// codeInterBlock finishes block i of an inter macroblock that survived the
// zero-block gate: the 8×8 samples of src at (x, y) against the prediction
// predictInterMB left in recon at the same coordinates. The block takes
// the forward transform's row pass straight from the two byte blocks
// (metrics.ResidualRows) and metrics.ColQuant — dct.QuantizeInterRows on
// the kernel table — applies the gate's bound per coefficient column,
// running the column pass only where a level can be non-zero; most
// survivors end there, uncoded, after half a transform. Only a block that
// keeps a level is dequantised, inverse-transformed and clamped
// (reconCodedBlock). Each exit changes which work is done, never its
// result: coded flags, levels and every reconstructed sample equal what
// the full route alone would produce.
func (e *Encoder) codeInterBlock(sc *mbScratch, r *mbResult, i int, src, recon *frame.Plane, x, y int) {
	metrics.ResidualRows(&sc.rows, src, x, y, recon, x, y)
	coded, liveCols := metrics.ColQuant(&r.levels[i], &sc.rows, e.curQp, false)
	r.coded[i] = coded
	if liveCols == 0 {
		r.rowOnly++
	}
	if coded {
		reconCodedBlock(recon, x, y, &r.levels[i], e.curQp)
	}
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

// mbBlock locates block i of macroblock (mbx, mby) in f, in coding order:
// the four luma blocks, then Cb, then Cr.
func mbBlock(f *frame.Frame, mbx, mby, i int) (p *frame.Plane, x, y int) {
	switch i {
	case 4:
		return f.Cb, 8 * mbx, 8 * mby
	case 5:
		return f.Cr, 8 * mbx, 8 * mby
	}
	return f.Y, 16*mbx + lumaBlockOffsets[i][0], 16*mby + lumaBlockOffsets[i][1]
}

// lumaBlockOffsets are the four 8×8 luma blocks of a macroblock in coding
// order (top-left, top-right, bottom-left, bottom-right).
var lumaBlockOffsets = [4][2]int{{0, 0}, {8, 0}, {0, 8}, {8, 8}}
