package search

import (
	"math"
	"slices"

	"repro/internal/metrics"
	"repro/internal/mvfield"
)

// PBM is the predictive block matching algorithm of §2.2, following the
// complexity-bounded scheme of Chimienti et al. the paper uses [9]:
//
//  1. evaluate the spatio-temporal predictor candidates (Fig. 2),
//  2. keep the candidate with the lowest SAD,
//  3. refine: a bounded integer-pel gradient descent followed by the
//     half-pel refinement step.
//
// The refinement budget bounds the worst-case complexity; the default
// matches the "very low computational cost" regime of the paper
// (a few tens of candidates per macroblock versus FSBM's 969).
//
// PBM holds configuration only: it is stateless, Fork returns the receiver
// and every lane of a parallel encode calls the same instance. What a
// search needs beyond its Input lives on Search's stack.
type PBM struct {
	// MaxRefineSteps bounds the integer-pel descent (default 4).
	MaxRefineSteps int
	// NoHalfPel disables the final half-pel refinement.
	NoHalfPel bool
}

// DefaultRefineSteps is the integer refinement budget used in the paper's
// operating point.
const DefaultRefineSteps = 4

// maxPBMCandidates bounds step 1's probe set: the zero vector plus the
// Fig. 2 neighbourhood (with a cross-layer seed: zero + 4 spatial +
// MaxSeeds, which is smaller). It must fit SADBestFew's list.
const maxPBMCandidates = mvfield.MaxPredictors + 1

var _ [metrics.FewCands - maxPBMCandidates]struct{}

// pbmProbeCap is the probe list Search keeps on its stack: the candidates
// plus four descent probes for each of eight refinement steps. A larger
// MaxRefineSteps still works — the list grows onto the heap.
const pbmProbeCap = maxPBMCandidates + 4*8

// Name implements Searcher.
func (p *PBM) Name() string { return "PBM" }

func (p *PBM) refineSteps() int {
	if p.MaxRefineSteps > 0 {
		return p.MaxRefineSteps
	}
	return DefaultRefineSteps
}

// Search implements Searcher. It requires CurField (and uses PrevField
// when present) to gather predictors; with no context it degrades to a
// small search around the zero vector.
//
// One generator (pbmCandidates) produces the step-1 probe set; two
// evaluators consume it, and which one runs depends only on what the
// input is, as in FSBM.Search. Macroblocks pay per block: the predictor
// set is one best-of-candidates kernel call and every descent probe one
// more, against a window computed once. The per-point fold remains where
// the individual SADs are the product (Collect), where the kernel does not
// apply (other block shapes, a block outside the frame), and as the oracle
// the batch route is tested against (TestPBMBatchMatchesPerPoint).
func (p *PBM) Search(in *Input) Result {
	return p.SearchStaged(in, nil)
}

// Stage is what a search hands FSBM.Escalate about the block it just
// searched: its integer winner, that winner's exact SAD, and the half-pel
// refinement's result and points. Only PBM's batch route records one.
type Stage struct {
	ok        bool
	mv        mvfield.MV
	sad       int
	refined   bool // final is refineHalfPel's result around mv
	final     Result
	refinePts int
}

// SearchStaged is Search that also records, when st is non-nil, the stage
// FSBM.Escalate takes.
func (p *PBM) SearchStaged(in *Input, st *Stage) Result {
	win := in.window()
	return p.search(in, win, in.W == 16 && in.H == 16 && in.Collect == nil && !win.Empty(), st)
}

// search is SearchStaged with the evaluator named by the caller (batch
// must be false for inputs the kernel route does not apply to).
func (p *PBM) search(in *Input, win metrics.Rect, batch bool, st *Stage) Result {
	var buf [pbmProbeCap]metrics.Offset
	seen := visited{scan: in.Range > visitRange || win.Empty()}
	probes := in.pbmCandidates(buf[:0], win, &seen)
	if !batch {
		return pbmPerPoint(in, probes, p.refineSteps(), p.NoHalfPel)
	}
	best, bestSAD, pts := pbmBatch(in, win, probes, &seen, p.refineSteps())
	res := finish(in, best, bestSAD, pts, p.NoHalfPel)
	if st != nil {
		*st = Stage{ok: true, mv: best, sad: bestSAD, refined: !p.NoHalfPel, final: res, refinePts: res.Points - pts}
	}
	return res
}

// pbmCandidates appends step 1's probe set to dst (at most
// maxPBMCandidates positions), recording each in seen: the zero vector, the
// causal spatial predictors and the temporal ones — or, with a cross-layer
// seed, the seed candidates in their place: the upper rung's field encodes
// the same history at higher accuracy, and ≤ 4 seeds stand in for ≤ 9
// temporal probes. Predictors are probes on the integer grid: each is
// snapped to full pel (truncating, like MV.FullPel), clamped into win —
// the same vector ClampMV-then-snap yields, since truncation is monotone
// and both of ClampMV's intervals contain zero — and dropped if an earlier
// one landed on the same position. The order is first-seen, which is what
// breaks exact (SAD, L1) ties. Every position is written to the next slot
// and kept by advancing past it only when it was new, so on the bitmap
// route the loop has no data-dependent branch.
func (in *Input) pbmCandidates(dst []metrics.Offset, win metrics.Rect, seen *visited) []metrics.Offset {
	var buf [maxPBMCandidates]mvfield.MV
	raw := append(buf[:0], mvfield.Zero)
	switch {
	case in.CurField != nil && in.Seed != nil:
		raw = in.CurField.AppendPredictors(raw, nil, in.MBX, in.MBY)
		sv, k := in.Seed.Seeds(in.MBX, in.MBY)
		raw = append(raw, sv[:k]...)
	case in.CurField != nil:
		raw = in.CurField.AppendPredictors(raw, in.PrevField, in.MBX, in.MBY)
	}
	n := len(dst)
	dst = slices.Grow(dst, len(raw))[:n+len(raw)]
	for _, m := range raw {
		fx, fy := m.FullPel()
		o := metrics.Offset{
			DX: int16(min(max(fx, win.MinX), win.MaxX)),
			DY: int16(min(max(fy, win.MinY), win.MaxY)),
		}
		dst[n] = o
		n += seen.add(dst[:n], o)
	}
	return dst[:n]
}

// visitRange is the largest Range whose window the visited bitmap covers:
// ±15 is 31² = 961 positions, one bit each in sixteen words.
const visitRange = 15

// visited is PBM's visited set for one block. A window within ±visitRange
// keeps it as a bitmap on Search's stack, zeroed per block; a wider Range,
// or an empty window (whose clamped positions need not lie within ±Range),
// looks positions up in the probe list instead. Only the Input picks the
// route, and both give the same answers.
type visited struct {
	bits [(2*visitRange+1)*(2*visitRange+1)/64 + 1]uint64
	scan bool
}

// add returns 1 if o was not yet visited and 0 if it was. list holds the
// positions visited so far, o not among them, and the caller keeps o by
// appending it there: the scan route looks o up in list, the bitmap route
// marks o's bit and never reads list.
func (v *visited) add(list []metrics.Offset, o metrics.Offset) int {
	if v.scan {
		for _, p := range list {
			if p == o {
				return 0
			}
		}
		return 1
	}
	i := uint(int(o.DY)+visitRange)*(2*visitRange+1) + uint(int(o.DX)+visitRange)
	w, s := i/64%uint(len(v.bits)), i%64 // the modulo only spares a bounds check
	was := v.bits[w] >> s & 1
	v.bits[w] |= 1 << s
	return int(was ^ 1)
}

// descentSteps is the small diamond of the integer descent, in probe
// order.
var descentSteps = [4]metrics.Offset{{DX: 1}, {DX: -1}, {DY: 1}, {DY: -1}}

// pbmBatch evaluates the candidates in probes, then the descent, through
// metrics.SADBestFew; probes, already recorded in seen, grows with every
// descent probe, and its length is Points.
//
// Step 1 is one call. better() orders candidates by (SAD, L1, first-seen);
// stable-sorted by L1, a later candidate is never shorter than the
// incumbent, so the winner is the first strictly-smallest SAD — SADBestFew's
// whole contract, the argument metrics.Spiral makes for the full search.
//
// The descent is a sequential walk and stays one: each probe is taken from
// the current best, which moves inside a step, so the four probes of a
// step are not known in advance. What each probe costs is a rectangle
// compare (win is ±Range ∩ frame, so inside it means in range and legal),
// a visited-set lookup (one bit on the bitmap route), and a one-candidate
// kernel call with the bar at bestSAD+1: a loser comes back -1, a tie
// comes back exact and wins only on the shorter vector.
func pbmBatch(in *Input, win metrics.Rect, probes []metrics.Offset, seen *visited, steps int) (mvfield.MV, int, int) {
	var few [metrics.FewCands]metrics.Offset
	n := copy(few[:], probes)
	for i := 1; i < n; i++ {
		o, l := few[i], few[i].L1()
		j := i
		for ; j > 0 && few[j-1].L1() > l; j-- {
			few[j] = few[j-1]
		}
		few[j] = o
	}
	i, bestSAD := metrics.SADBestFew(in.Cur, in.BX, in.BY, in.Ref, in.BX, in.BY, 16, 16, few, n, win, math.MaxInt)
	best := few[i]

	for step := 0; step < steps; step++ {
		improved := false
		for _, d := range descentSteps {
			o := metrics.Offset{DX: best.DX + d.DX, DY: best.DY + d.DY}
			if !win.Contains(o) || seen.add(probes, o) == 0 {
				continue
			}
			probes = append(probes, o)
			few[0] = o
			if hit, s := metrics.SADBestFew(in.Cur, in.BX, in.BY, in.Ref, in.BX, in.BY, 16, 16, few, 1, win, bestSAD+1); hit == 0 &&
				(s < bestSAD || o.L1() < best.L1()) {
				best, bestSAD, improved = o, s, true
			}
		}
		if !improved {
			break
		}
	}
	return offsetMV(best), bestSAD, len(probes)
}

// pbmPerPoint evaluates the candidates and the descent one at a time on a
// probe, so Collect sees every SAD and any block shape works. The descent
// walks: each probe is taken from the current best, which moves inside a
// step, and a step that moves nothing ends it.
func pbmPerPoint(in *Input, cands []metrics.Offset, steps int, noHalfPel bool) Result {
	p := newProbe(in)
	for _, o := range cands {
		p.try(offsetMV(o))
	}
	for step := 0; step < steps; step++ {
		start := p.best
		for _, d := range descentSteps {
			p.try(p.best.Add(offsetMV(d)))
		}
		if p.best == start {
			break
		}
	}
	return p.result(noHalfPel)
}
