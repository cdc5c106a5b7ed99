// Package search implements block-matching motion search algorithms over
// the frame substrate: the exhaustive FSBM and predictive PBM algorithms
// the paper builds on, the shared half-pel refinement step, and the
// classical fast-search baselines of the paper's related work (TSS, NTSS,
// 4SS, DS, CDS, HEXBS). The fast searches are pattern schedules over one
// probe loop (probe.go): each Search body lists its patterns — squares,
// diamonds, a cross, a hexagon — and when to repeat or stop, and the probe
// owns the incumbent, the visited set, the point count, the range and
// legality skips, the tie-break and the half-pel finish.
//
// Every searcher reports the number of candidate positions it evaluated —
// the computational-complexity metric of the paper's Table 1.
package search

import (
	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/mvfield"
)

// Input describes one block-matching problem: find the motion vector for
// the W×H block of Cur anchored at (BX, BY), matching into Ref, within
// ±Range full pels.
type Input struct {
	Cur *frame.Plane
	// Ref is the integer reference plane. Half-pel candidates are
	// evaluated by kernels that fuse the H.263 bilinear interpolation
	// into the SAD directly against it, so no half-pel grid is needed.
	Ref *frame.Plane

	BX, BY int // block anchor in pels
	W, H   int // block size (16×16 for macroblocks)
	Range  int // p: maximum displacement in full pels

	Qp int // quantiser, used by rate-aware searchers and ACBM

	// Predictive context: the motion fields of the current (partially
	// computed) and previous frame, and this block's field coordinates.
	CurField, PrevField *mvfield.Field
	MBX, MBY            int

	// Seed, when non-nil, contributes cross-layer candidates to the
	// predictor set (simulcast ladder: the rung above's scaled motion
	// field). PBM then drops its temporal predictors — the seed layer
	// carries that history — which is the ladder's points/block saving.
	Seed LayerSeed

	// IntraSAD, when HasIntraSAD is set, is metrics.IntraSAD of the Cur
	// block — handed over by a caller that needs the value itself (the
	// encoder's intra/inter decision), so a searcher that also uses it
	// (ACBM's conditions 1–2) does not compute it again. The flag is
	// explicit because 0 is a legal value (a flat block); searchers fall
	// back to their own call when it is unset.
	IntraSAD    int
	HasIntraSAD bool

	// Collect, when non-nil, accumulates the SAD of every evaluated
	// candidate for the SAD_deviation statistic of the Fig. 4 study.
	Collect *metrics.Deviation

	// Sums, when non-nil, is the caller's cache of Ref's 4×4 box sums,
	// Reset onto Ref at this search range since Ref last changed: the full
	// search reads its elimination bounds from it and fills what is
	// missing. The encoder keeps one per analysis lane and resets it each
	// frame; without one every full search computes its window's sums.
	Sums *metrics.BoxSums
}

// Class says how an adaptive searcher resolved a block — the decision mix
// that swings ACBM's cost between PBM's and FSBM's. Searchers that make no
// such decision leave it Unclassified.
type Class uint8

const (
	Unclassified   Class = iota
	ClassEasy            // ACBM condition 1: predictive vector accepted
	ClassGoodMatch       // ACBM condition 2: predictive vector accepted
	ClassCritical        // both conditions failed: full search ran
)

// Result is the outcome of one block search.
type Result struct {
	MV     mvfield.MV // best motion vector, half-pel units
	SAD    int        // its matching error
	Points int        // candidate positions evaluated (Table 1 metric)
	Class  Class      // how an adaptive searcher decided; zero otherwise
}

// Searcher is a block-matching motion estimation algorithm.
type Searcher interface {
	// Name identifies the algorithm in tables and plots.
	Name() string
	// Search solves one block-matching problem.
	Search(in *Input) Result
}

// Legal reports whether candidate mv (half-pel units) keeps the whole
// prediction block inside the reference frame's half-pel grid.
func (in *Input) Legal(mv mvfield.MV) bool {
	hx := 2*in.BX + mv.X
	hy := 2*in.BY + mv.Y
	return hx >= 0 && hy >= 0 &&
		hx+2*(in.W-1) <= 2*(in.Ref.W-1) &&
		hy+2*(in.H-1) <= 2*(in.Ref.H-1)
}

// window returns the legal full-pel displacements of the block as one
// rectangle: ±Range clipped to the frame. A full-pel candidate is inside
// exactly when it is within range and Legal, so batch searchers compute
// this once per block instead of testing both per point. It is empty when
// the block itself is not inside the frame.
func (in *Input) window() metrics.Rect {
	return metrics.Rect{
		MinX: max(-in.Range, -in.BX), MaxX: min(in.Range, in.Ref.W-in.W-in.BX),
		MinY: max(-in.Range, -in.BY), MaxY: min(in.Range, in.Ref.H-in.H-in.BY),
	}
}

// ClampMV limits mv to the search range and to legal positions, moving it
// the minimum distance needed. Used to sanitise predictors that point
// outside the window.
func (in *Input) ClampMV(mv mvfield.MV) mvfield.MV {
	lim := 2 * in.Range
	mv = mv.Clamp(lim)
	c := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	mv.X = c(mv.X, -2*in.BX, 2*(in.Ref.W-in.W-in.BX))
	mv.Y = c(mv.Y, -2*in.BY, 2*(in.Ref.H-in.H-in.BY))
	return mv
}

// SAD evaluates candidate mv. Integer candidates read the reference plane
// directly; half-pel candidates fuse the interpolation into the kernel,
// reading the same plane. The candidate must be Legal.
func (in *Input) SAD(mv mvfield.MV) int {
	var s int
	if mv.IsFullPel() {
		fx, fy := mv.FullPel()
		s = metrics.SAD(in.Cur, in.BX, in.BY, in.Ref, in.BX+fx, in.BY+fy, in.W, in.H)
	} else {
		s = metrics.SADHalfPelPlane(in.Cur, in.BX, in.BY, in.Ref, 2*in.BX+mv.X, 2*in.BY+mv.Y, in.W, in.H)
	}
	if in.Collect != nil {
		in.Collect.Add(s)
	}
	return s
}

// SADCapped is SAD with early termination; the returned value is only
// exact when ≤ cap. Half-pel candidates run the capped fused kernels.
// Collect still records the exact SAD when enabled (the Fig. 4 study
// needs unbiased deviations).
func (in *Input) SADCapped(mv mvfield.MV, cap int) int {
	if in.Collect != nil || cap < 0 {
		return in.SAD(mv)
	}
	if mv.IsFullPel() {
		fx, fy := mv.FullPel()
		return metrics.SADCapped(in.Cur, in.BX, in.BY, in.Ref, in.BX+fx, in.BY+fy, in.W, in.H, cap)
	}
	return metrics.SADHalfPelPlaneCapped(in.Cur, in.BX, in.BY, in.Ref, 2*in.BX+mv.X, 2*in.BY+mv.Y, in.W, in.H, cap)
}

// better reports whether (sad, mv) improves on (bestSAD, bestMV), breaking
// SAD ties toward the shorter vector so all searchers prefer coherent,
// cheap-to-code motion.
func better(sad int, mv mvfield.MV, bestSAD int, bestMV mvfield.MV) bool {
	if sad != bestSAD {
		return sad < bestSAD
	}
	return mv.L1() < bestMV.L1()
}

// refineHalfPel evaluates the Legal ones among the 8 half-pel neighbours of
// center and returns the best position along with the number of candidates
// evaluated. This is the refinement step shared by every integer-precision
// searcher (H.263 half-pel motion).
//
// A full-pel centre whose ±1 neighbourhood lies inside the reference's
// apron — every macroblock of an encode, whose luma apron is SearchRange+1,
// and on a tight plane every block whose ring is in-plane — scores all
// eight neighbours up front in one fused ring pass that shares the current
// block and reference rows across the probes; an edge block's ring reads
// the replicated apron for the neighbours it may not use, and the loop
// skips those as it skips them on the per-probe route. Otherwise — for
// Collect (which records every SAD), half-pel centres, other block shapes
// and planes whose apron cannot hold the ring — each neighbour is probed
// with the capped fused kernels: a loser aborts within a few rows, and the
// returned bestSAD is always exact (truncation only happens above the
// incumbent; ties fold to the exact value), so both routes pick the same
// neighbour.
func refineHalfPel(in *Input, center mvfield.MV, centerSAD int) (mvfield.MV, int, int) {
	best, bestSAD, pts := center, centerSAD, 0
	fx, fy := center.FullPel()
	var ring [9]int
	onRing := center.IsFullPel() && in.Collect == nil && in.W%8 == 0 && in.W*in.H <= 256 &&
		in.Ref.InApron(in.BX+fx-1, in.BY+fy-1, in.W+2, in.H+2)
	if onRing {
		metrics.SADHalfPelRing(in.Cur, in.BX, in.BY, in.Ref, in.BX+fx, in.BY+fy, in.W, in.H, &ring)
	}
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			mv := center.Add(mvfield.MV{X: dx, Y: dy})
			if dx == 0 && dy == 0 || !in.Legal(mv) {
				continue
			}
			pts++
			s := ring[(dy+1)*3+dx+1]
			if !onRing {
				s = in.SADCapped(mv, bestSAD)
			}
			if better(s, mv, bestSAD, best) {
				best, bestSAD = mv, s
			}
		}
	}
	return best, bestSAD, pts
}
