package search

// FSS is the four-step search of Po and Ma [4]: a 5×5 window pattern that
// shrinks to 3×3 for the final step, biased toward the centre. Included
// as a classical fast-search baseline.
type FSS struct {
	NoHalfPel bool
}

// Name implements Searcher.
func (f *FSS) Name() string { return "4SS" }

// Search implements Searcher: the 5×5 square (step 2 pels) re-centred on
// its winner at most three times, stopping early when the centre wins,
// then the 3×3 square once.
func (f *FSS) Search(in *Input) Result {
	p := newProbe(in)
	sq := square(2)
	p.descend(sq[:], 3)
	sq = square(1)
	p.around(p.best, sq[:])
	return p.result(f.NoHalfPel)
}
