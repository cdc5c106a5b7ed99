package search

import "repro/internal/mvfield"

// Diamond is the diamond search (DS) algorithm: a large diamond search
// pattern (LDSP) iterated until the centre wins, then one small diamond
// (SDSP) pass. A classical unrestricted-centre-biased baseline.
type Diamond struct {
	NoHalfPel bool
	// MaxIter bounds LDSP iterations (default: enough to cross Range).
	MaxIter int
}

// Name implements Searcher.
func (d *Diamond) Name() string { return "DS" }

var ldsp = []mvfield.MV{
	{X: 0, Y: -4}, {X: 2, Y: -2}, {X: 4, Y: 0}, {X: 2, Y: 2},
	{X: 0, Y: 4}, {X: -2, Y: 2}, {X: -4, Y: 0}, {X: -2, Y: -2},
}

var sdsp = []mvfield.MV{
	{X: 0, Y: -2}, {X: 2, Y: 0}, {X: 0, Y: 2}, {X: -2, Y: 0},
}

// Search implements Searcher: the large diamond until its centre wins, then
// one walk of the small diamond, each probe from the current best.
func (d *Diamond) Search(in *Input) Result {
	p := newProbe(in)
	p.descend(ldsp, d.MaxIter)
	p.walk(sdsp)
	return p.result(d.NoHalfPel)
}
