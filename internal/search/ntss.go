package search

import "repro/internal/mvfield"

// NTSS is the new three-step search (Li, Zeng, Liou 1994): TSS augmented
// with a centre-biased first step that also checks the 8 unit neighbours,
// and a halfway-stop for quasi-stationary blocks. Included as a classical
// baseline alongside TSS.
type NTSS struct {
	NoHalfPel bool
}

// Name implements Searcher.
func (n *NTSS) Name() string { return "NTSS" }

// Search implements Searcher. The first step probes the unit square and the
// TSS square, each neighbour's unit point first. If the centre wins the
// search stops; if a unit point wins (Linf 2 in half pels: a step point is
// farther, or at step 1 a revisit) its own unit square ends the search;
// otherwise TSS continues at half the step.
func (n *NTSS) Search(in *Input) Result {
	p := newProbe(in)
	step := firstStep(in.Range)
	unit, far := square(1), square(step)
	var first [16]mvfield.MV
	for i := range unit {
		first[2*i], first[2*i+1] = unit[i], far[i]
	}
	p.around(mvfield.Zero, first[:])
	switch {
	case p.best == mvfield.Zero:
	case p.best.Linf() == 2:
		p.around(p.best, unit[:])
	default:
		for step /= 2; step >= 1; step /= 2 {
			sq := square(step)
			p.around(p.best, sq[:])
		}
	}
	return p.result(n.NoHalfPel)
}

// HEXBS is the hexagon-based search (Zhu, Lin, Chau 2002): large-hexagon
// gradient descent followed by a small cross refinement; typically fewer
// points than diamond search for the same quality.
type HEXBS struct {
	NoHalfPel bool
	MaxIter   int
}

// Name implements Searcher.
func (h *HEXBS) Name() string { return "HEXBS" }

var hexLarge = []mvfield.MV{
	{X: 4, Y: 0}, {X: 2, Y: -4}, {X: -2, Y: -4},
	{X: -4, Y: 0}, {X: -2, Y: 4}, {X: 2, Y: 4},
}

// Search implements Searcher: the large hexagon until its centre wins, then
// one walk of the small diamond.
func (h *HEXBS) Search(in *Input) Result {
	p := newProbe(in)
	p.descend(hexLarge, h.MaxIter)
	p.walk(sdsp)
	return p.result(h.NoHalfPel)
}
