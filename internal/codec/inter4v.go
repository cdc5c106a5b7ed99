package codec

import (
	"repro/internal/frame"
	"repro/internal/mvfield"
	"repro/internal/search"
)

// Four-vector (advanced prediction) inter macroblocks: one motion vector
// per 8×8 luma block, following H.263 Annex F's motion model (without
// OBMC). The chroma vector derives from the rounded average of the four
// luma vectors, and the macroblock contributes that average to the motion
// field used for prediction — the encoder and decoder share these rules.

// refineSubBlock finds an 8×8 vector by a short integer-pel descent from
// the macroblock vector followed by a half-pel ring, mirroring Annex F
// encoders that only refine around the 16×16 result.
func refineSubBlock(in *search.Input, start mvfield.MV) (mvfield.MV, int, int) {
	best := in.ClampMV(start)
	bestSAD := in.SAD(best)
	pts := 1
	// The probe budget is ≤ 17 positions: dedup with a linear scan over a
	// stack-allocated list instead of a per-block map.
	var visited [18]mvfield.MV
	visited[0] = best
	nv := 1
	seen := func(mv mvfield.MV) bool {
		for i := 0; i < nv; i++ {
			if visited[i] == mv {
				return true
			}
		}
		return false
	}
	for step := 0; step < 2; step++ {
		improved := false
		for _, d := range [4]mvfield.MV{{X: 2}, {X: -2}, {Y: 2}, {Y: -2}} {
			mv := best.Add(d)
			if seen(mv) || !in.Legal(mv) || mv.Linf() > 2*in.Range {
				continue
			}
			visited[nv] = mv
			nv++
			pts++
			if s := in.SADCapped(mv, bestSAD); s < bestSAD {
				best, bestSAD, improved = mv, s, true
			}
		}
		if !improved {
			break
		}
	}
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			mv := best.Add(mvfield.MV{X: dx, Y: dy})
			if seen(mv) || !in.Legal(mv) {
				continue
			}
			visited[nv] = mv
			nv++
			pts++
			if s := in.SADCapped(mv, bestSAD); s < bestSAD {
				best, bestSAD = mv, s
			}
		}
	}
	return best, bestSAD, pts
}

// avgMV is the rounded (away from zero) component-wise average of the
// four sub-block vectors; it feeds both the chroma derivation and the
// motion field entry.
func avgMV(mvs [4]mvfield.MV) mvfield.MV {
	div4 := func(v int) int {
		switch {
		case v > 0:
			return (v + 2) / 4
		case v < 0:
			return -((-v + 2) / 4)
		}
		return 0
	}
	var sx, sy int
	for _, m := range mvs {
		sx += m.X
		sy += m.Y
	}
	return mvfield.MV{X: div4(sx), Y: div4(sy)}
}

// analyzeInter4VMB codes and reconstructs a four-vector macroblock,
// recording levels and coded flags in r for the write phase (writeInterMB
// emits the flags, the four MVDs against the shared median predictor, the
// CBP and the coefficients).
func (e *Encoder) analyzeInter4VMB(sc *mbScratch, src, recon *frame.Frame, mbx, mby int, subMV [4]mvfield.MV, r *mbResult) {
	r.mode = mbInter
	r.four = true
	r.subMV = subMV
	e.codeInterBlocks(sc, r, src, recon, mbx, mby, subMV, chromaMV(avgMV(subMV)))
}

// decodeInter4VMB mirrors codeInter4VMB after the inter4v flag has been
// consumed.
func (d *Decoder) decodeInter4VMB(recon *frame.Frame, curField *mvfield.Field, qp, mbx, mby int) error {
	pred := curField.MedianPredictor(mbx, mby)
	var subMV [4]mvfield.MV
	for i := range subMV {
		dx, err := d.sr.SE(sctxMVX)
		if err != nil {
			return err
		}
		dy, err := d.sr.SE(sctxMVY)
		if err != nil {
			return err
		}
		subMV[i] = pred.Add(mvfield.MV{X: int(dx), Y: int(dy)})
	}
	var coded [6]bool
	for i := range coded {
		var err error
		coded[i], err = d.sr.Flag(sctxCBP)
		if err != nil {
			return err
		}
	}
	avg := avgMV(subMV)
	if err := d.reconInterMB(recon, qp, mbx, mby, subMV, chromaMV(avg), coded); err != nil {
		return err
	}
	curField.Set(mbx, mby, avg)
	return nil
}
