package search

import (
	"math"

	"repro/internal/entropy"
	"repro/internal/metrics"
	"repro/internal/mvfield"
)

// RCFSBM is a rate-constrained full search: it minimises the Lagrangian
// cost of §2.1 of the paper,
//
//	J(mv) = SAD(mv) + λ·R(mv)
//
// where R is the bit cost of coding mv differentially against the median
// predictor and λ is proportional to the quantiser (metrics.LambdaSAD).
// Compared to plain FSBM it trades a little matching error for a much
// more coherent, cheaper-to-code motion field — the deficiency of plain
// FSBM that §2.3 describes.
type RCFSBM struct {
	NoHalfPel bool
}

// Name implements Searcher.
func (f *RCFSBM) Name() string { return "RC-FSBM" }

// Search implements Searcher. A probe can win or tie only if its cost is
// at most the incumbent's, that is its SAD at most bestCost − λ·R(mv), so
// every SAD is computed capped there: a loser leaves after a few rows, and
// one whose rate alone exceeds the bar is not read at all. Before the scan
// the bar is set by the median predictor's full-pel position, one exact
// SAD: it is in the window, so the winner's cost is at most its cost, and
// the first candidates of the raster scan already meet a low bar. (With
// Collect set there is no seed, whose SAD would be recorded twice, and a
// skipped probe's exact SAD is still recorded.) The winner, its SAD and
// Points are those of scoring every probe exactly.
func (f *RCFSBM) Search(in *Input) Result {
	pred := mvfield.Zero
	if in.CurField != nil {
		pred = in.CurField.MedianPredictor(in.MBX, in.MBY)
	}
	b := rcBest{cost: math.MaxInt}
	fx, fy := in.ClampMV(pred).FullPel()
	if seed := mvfield.FromFullPel(fx, fy); in.Collect == nil && in.Legal(seed) {
		b.cost = in.SAD(seed) + in.rate(seed, pred)
	}
	pts := 0
	for v := -in.Range; v <= in.Range; v++ {
		for u := -in.Range; u <= in.Range; u++ {
			mv := mvfield.FromFullPel(u, v)
			if !in.Legal(mv) {
				continue
			}
			pts++
			b.try(in, mv, pred)
		}
	}
	if !b.ok {
		sad := in.SAD(mvfield.Zero)
		return Result{MV: mvfield.Zero, SAD: sad, Points: 1}
	}
	if !f.NoHalfPel {
		// Each neighbour is taken from the current incumbent, which may move
		// during the ring.
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				mv := b.mv.Add(mvfield.MV{X: dx, Y: dy})
				if !in.Legal(mv) {
					continue
				}
				pts++
				b.try(in, mv, pred)
			}
		}
	}
	return Result{MV: b.mv, SAD: b.sad, Points: pts}
}

// rate is λ·R(mv), the rate term of J for coding mv against pred.
func (in *Input) rate(mv, pred mvfield.MV) int {
	return metrics.RDCost(0, entropy.MVDBits(mv, pred), in.Qp)
}

// rcBest is RCFSBM's incumbent: the lowest J so far, ties to the shorter
// vector. Before the first candidate is kept, cost is the bar a candidate
// must meet.
type rcBest struct {
	mv        mvfield.MV
	sad, cost int
	ok        bool // a candidate has been kept
}

// try scores mv against pred and keeps it if it beats the incumbent.
func (b *rcBest) try(in *Input, mv, pred mvfield.MV) {
	rate := in.rate(mv, pred)
	limit := b.cost - rate
	if limit < 0 {
		if in.Collect != nil {
			in.SAD(mv)
		}
		return
	}
	sad := in.SADCapped(mv, limit)
	if sad > limit {
		return
	}
	// sad ≤ limit: the cost is at most the incumbent's (or the bar).
	if j := sad + rate; !b.ok || j < b.cost || mv.L1() < b.mv.L1() {
		*b = rcBest{mv: mv, sad: sad, cost: j, ok: true}
	}
}
