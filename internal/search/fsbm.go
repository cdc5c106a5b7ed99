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
// spiral order of metrics.Spiral) with ties broken toward the shorter vector;
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
// strictly-best candidate of the spiral scan inside it.
func fullSearchBatch(in *Input) (best mvfield.MV, bestSAD, pts int) {
	return fullSearchBelow(in, math.MaxInt)
}

// fullSearchBelow is fullSearchBatch with the running minimum starting at
// bar instead of +∞. With bar above the window's minimum SAD the winner is
// the same: the first strictly-smallest SAD along the spiral is the first
// one equal to the minimum, whatever bar it had to beat. A bar at or below
// the minimum finds nothing and reports no point.
func fullSearchBelow(in *Input, bar int) (best mvfield.MV, bestSAD, pts int) {
	clip := in.window()
	o, sad, ok := metrics.SADBest(in.Cur, in.BX, in.BY, in.Ref, in.BX, in.BY, in.W, in.H, clip, bar, in.Sums)
	if !ok {
		return mvfield.Zero, 0, 0 // empty window: the block is not inside the frame
	}
	return offsetMV(o), sad, (clip.MaxX - clip.MinX + 1) * (clip.MaxY - clip.MinY + 1)
}

// Escalate is Search for a block PBM has already searched — ACBM's
// critical blocks, where the full search follows the predictive one. Its
// result equals Search's; the stage only saves work:
//
//   - PBM's integer winner lies in the same window, so the window minimum
//     is at most its SAD, and the full search starts with the bar at that
//     SAD + 1 (fullSearchBelow) instead of +∞;
//   - when the full search's integer winner is PBM's, the half-pel
//     refinement would run the same ring around the same centre with the
//     same centre SAD, so PBM's refined result is reused with its points.
//
// st must come from PBM.SearchStaged on the same in. A stage from a route
// that records none (Collect, other block shapes) falls back to Search.
func (f *FSBM) Escalate(in *Input, st Stage) Result {
	if !st.ok {
		return f.Search(in)
	}
	best, bestSAD, pts := fullSearchBelow(in, st.sad+1)
	if best == st.mv && !f.NoHalfPel && st.refined {
		return Result{MV: st.final.MV, SAD: st.final.SAD, Points: pts + st.refinePts}
	}
	return finish(in, best, bestSAD, pts, f.NoHalfPel)
}

// fullSearchPerPoint is the integer full search one candidate at a time.
func fullSearchPerPoint(in *Input) (best mvfield.MV, bestSAD, pts int) {
	bestSAD = -1
	for _, o := range metrics.Spiral(in.Range) {
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

// offsetMV is the motion vector of a full-pel table displacement.
func offsetMV(o metrics.Offset) mvfield.MV {
	return mvfield.FromFullPel(int(o.DX), int(o.DY))
}
