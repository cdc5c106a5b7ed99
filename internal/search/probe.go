package search

import "repro/internal/mvfield"

// probe is a per-point search in progress, the loop TSS, NTSS, 4SS, DS, CDS,
// HEXBS and PBM's per-point route share: those searchers are schedules of
// its steps — try one vector, probe a pattern around a fixed centre or walk
// it from the moving incumbent, repeat a pattern until the centre wins —
// and differ only in their patterns.
//
// It owns the incumbent (vector and exact SAD), the positions evaluated and
// their count. A candidate outside ±Range, not Legal or already evaluated is
// skipped uncounted; the rest are evaluated with the SAD capped at the
// incumbent and replace it by better's rule, so an exact (SAD, L1) tie keeps
// the first-seen vector. The cap cannot change the outcome: a capped value
// exceeds the incumbent only for a loser, and a tie comes back exact.
type probe struct {
	in      *Input
	best    mvfield.MV
	bestSAD int
	pts     int
	visited visitedSet
}

// newProbe starts a search at the zero vector, the first candidate of every
// searcher here, evaluated exactly.
func newProbe(in *Input) probe {
	p := probe{in: in, bestSAD: in.SAD(mvfield.Zero), pts: 1}
	p.visited.add(mvfield.Zero)
	return p
}

// try evaluates mv, which becomes the incumbent if it is better.
func (p *probe) try(mv mvfield.MV) {
	if mv.Linf() > 2*p.in.Range || !p.in.Legal(mv) || p.visited.seen(mv) {
		return
	}
	p.visited.add(mv)
	p.pts++
	if s := p.in.SADCapped(mv, p.bestSAD); better(s, mv, p.bestSAD, p.best) {
		p.best, p.bestSAD = mv, s
	}
}

// around tries c + each offset of pattern in order; the centre stays c while
// the incumbent moves.
func (p *probe) around(c mvfield.MV, pattern []mvfield.MV) {
	for _, off := range pattern {
		p.try(c.Add(off))
	}
}

// walk tries each offset of pattern from the incumbent as it stands when the
// offset comes up.
func (p *probe) walk(pattern []mvfield.MV) {
	for _, off := range pattern {
		p.try(p.best.Add(off))
	}
}

// descend repeats pattern around the incumbent until the centre wins, at
// most maxIter times — Range times when maxIter ≤ 0, since every repeat
// moves at least one pel toward the target.
func (p *probe) descend(pattern []mvfield.MV, maxIter int) {
	if maxIter <= 0 {
		maxIter = p.in.Range
	}
	for i := 0; i < maxIter; i++ {
		c := p.best
		p.around(c, pattern)
		if p.best == c {
			return
		}
	}
}

// result ends the search with the half-pel refinement unless noHalfPel.
func (p *probe) result(noHalfPel bool) Result {
	return finish(p.in, p.best, p.bestSAD, p.pts, noHalfPel)
}

// finish is the last step of every integer-precision searcher: the half-pel
// refinement around its winner, unless noHalfPel.
func finish(in *Input, best mvfield.MV, bestSAD, pts int, noHalfPel bool) Result {
	if !noHalfPel {
		mv, sad, extra := refineHalfPel(in, best, bestSAD)
		best, bestSAD, pts = mv, sad, pts+extra
	}
	return Result{MV: best, SAD: bestSAD, Points: pts}
}

// visitedSet deduplicates the small candidate sets of the per-point
// searchers. The probe budget is a few dozen positions, so a linear scan
// over a stack-allocated array beats a per-block map allocation; an
// overflow map keeps the semantics exact for oversized budgets.
type visitedSet struct {
	n    int
	mvs  [48]mvfield.MV
	over map[mvfield.MV]bool
}

func (v *visitedSet) seen(mv mvfield.MV) bool {
	for i := 0; i < v.n; i++ {
		if v.mvs[i] == mv {
			return true
		}
	}
	return v.over != nil && v.over[mv]
}

func (v *visitedSet) add(mv mvfield.MV) {
	if v.n < len(v.mvs) {
		v.mvs[v.n] = mv
		v.n++
		return
	}
	if v.over == nil {
		v.over = make(map[mvfield.MV]bool, 16)
	}
	v.over[mv] = true
}
