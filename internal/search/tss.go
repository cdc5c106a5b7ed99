package search

import "repro/internal/mvfield"

// TSS is the three-step search of Liu, Zeng and Liou [3]: a logarithmic
// coarse-to-fine pattern search evaluating the centre and its 8 neighbours
// at halving step sizes. Included as a classical fast-search baseline.
type TSS struct {
	NoHalfPel bool
}

// Name implements Searcher.
func (t *TSS) Name() string { return "TSS" }

// Search implements Searcher: the square at each halving step around the
// previous step's winner.
func (t *TSS) Search(in *Input) Result {
	p := newProbe(in)
	for step := firstStep(in.Range); step >= 1; step /= 2 {
		sq := square(step)
		p.around(p.best, sq[:])
	}
	return p.result(t.NoHalfPel)
}

// firstStep is the three-step searches' initial step: the largest power of
// two ≤ max((Range+1)/2, 1).
func firstStep(rng int) int {
	step := 1
	for 2*step <= (rng+1)/2 {
		step *= 2
	}
	return step
}

// square is the 8-neighbour ring at ±step full pels in raster order, the
// pattern of TSS, NTSS and 4SS.
func square(step int) (sq [8]mvfield.MV) {
	i := 0
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx != 0 || dy != 0 {
				sq[i] = mvfield.FromFullPel(dx*step, dy*step)
				i++
			}
		}
	}
	return sq
}
