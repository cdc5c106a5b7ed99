package search

import (
	"math"

	"repro/internal/metrics"
	"repro/internal/mvfield"
)

// FSBM is the full search block matching algorithm (§2.3): it evaluates
// every integer position within ±Range and then the 8 half-pel neighbours
// of the winner — (2p+1)²+8 = 969 candidates for the paper's p=15.
// It is the quality reference and the cost ceiling of the study.
type FSBM struct {
	// NoHalfPel disables the half-pel refinement step (integer-only
	// search), used by the Fig. 4 study and ablation benches.
	NoHalfPel bool
}

// Name implements Searcher.
func (f *FSBM) Name() string {
	if f.NoHalfPel {
		return "FSBM-int"
	}
	return "FSBM"
}

// Search implements Searcher. Candidates are scanned centre-outward (the
// spiral order of spiral.go) with ties broken toward the shorter vector;
// the result is deterministic, matches the exhaustive minimum of the SAD
// surface, and is identical — winner and Points — to a raster scan.
//
// Macroblocks hand the whole window to one best-of-candidates kernel call.
// The per-point scan remains where the individual SADs are the product
// (Collect), where the kernel does not apply (other block shapes), and as
// the oracle the kernel path is tested against.
func (f *FSBM) Search(in *Input) Result {
	var best mvfield.MV
	var bestSAD, pts int
	if in.W == 16 && in.H == 16 && in.Collect == nil {
		best, bestSAD, pts = fullSearchBatch(in)
	} else {
		best, bestSAD, pts = fullSearchPerPoint(in)
	}
	if pts == 0 {
		// Degenerate: no legal candidate (cannot happen for in-frame
		// blocks since (0,0) is always legal); report the zero vector.
		return Result{MV: mvfield.Zero, SAD: in.SAD(mvfield.Zero), Points: 1}
	}
	return finish(in, best, bestSAD, pts, f.NoHalfPel)
}

// fullSearchBatch is the integer full search as one kernel call: the legal
// candidates of ±Range form a rectangle (the window clipped to the frame),
// its area is the point count, and metrics.SADBest returns the first
// strictly-best candidate of the spiral table inside it.
func fullSearchBatch(in *Input) (best mvfield.MV, bestSAD, pts int) {
	clip := in.window()
	offs := spiralOffsets(in.Range)
	i, sad := metrics.SADBest(in.Cur, in.BX, in.BY, in.Ref, in.BX, in.BY, in.W, in.H, offs, clip, math.MaxInt)
	if i < 0 {
		return mvfield.Zero, 0, 0 // empty window: the block is not inside the frame
	}
	return offsetMV(offs[i]), sad, (clip.MaxX - clip.MinX + 1) * (clip.MaxY - clip.MinY + 1)
}

// fullSearchPerPoint is the integer full search one candidate at a time.
func fullSearchPerPoint(in *Input) (best mvfield.MV, bestSAD, pts int) {
	bestSAD = -1
	for _, o := range spiralOffsets(in.Range) {
		mv := offsetMV(o)
		if !in.Legal(mv) {
			continue
		}
		pts++
		if bestSAD < 0 {
			best, bestSAD = mv, in.SAD(mv)
			continue
		}
		s := in.SADCapped(mv, bestSAD)
		if better(s, mv, bestSAD, best) {
			best, bestSAD = mv, s
		}
	}
	return best, bestSAD, pts
}
