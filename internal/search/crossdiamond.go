package search

import "repro/internal/mvfield"

// CrossDiamond is the cross-diamond search of Cheung and Po [5]: a
// cross-shaped pattern exploits the centre-biased, axis-aligned motion of
// real sequences before switching to diamond refinement. Included as a
// classical fast-search baseline.
type CrossDiamond struct {
	NoHalfPel bool
	MaxIter   int
}

// Name implements Searcher.
func (c *CrossDiamond) Name() string { return "CDS" }

var crossLarge = []mvfield.MV{
	{X: 0, Y: -4}, {X: 0, Y: -2}, {X: 0, Y: 2}, {X: 0, Y: 4},
	{X: -4, Y: 0}, {X: -2, Y: 0}, {X: 2, Y: 0}, {X: 4, Y: 0},
}

// Search implements Searcher: the large cross; unless its centre survives
// (the first-step stop for stationary blocks), the large diamond as in DS;
// then one walk of the small diamond.
func (c *CrossDiamond) Search(in *Input) Result {
	p := newProbe(in)
	p.around(mvfield.Zero, crossLarge)
	if p.best != mvfield.Zero {
		p.descend(ldsp, c.MaxIter)
	}
	p.walk(sdsp)
	return p.result(c.NoHalfPel)
}
