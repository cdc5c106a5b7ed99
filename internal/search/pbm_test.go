package search

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/mvfield"
)

// referencePBM is PBM as §2.2 states it and as it ran before the batch
// route existed, written for obviousness: its own reading of the Fig. 2
// neighbourhood, ClampMV and Legal per point, a map for the visited set,
// its own half-pel loop (no ring), exact SADs throughout. Both of
// PBM.Search's evaluators are held to it.
func referencePBM(p *PBM, in *Input) Result {
	visited := map[mvfield.MV]bool{}
	pts := 0
	eval := func(mv mvfield.MV) (int, bool) {
		if !in.Legal(mv) || visited[mv] {
			return 0, false
		}
		visited[mv] = true
		pts++
		return in.SAD(mv), true
	}

	cands := []mvfield.MV{mvfield.Zero}
	add := func(f *mvfield.Field, x, y int) {
		if f.Known(x, y) {
			cands = append(cands, f.At(x, y))
		}
	}
	if in.CurField != nil {
		for _, d := range [][2]int{{-1, 0}, {-1, -1}, {0, -1}, {1, -1}} {
			add(in.CurField, in.MBX+d[0], in.MBY+d[1])
		}
		switch {
		case in.Seed != nil:
			sv, n := in.Seed.Seeds(in.MBX, in.MBY)
			cands = append(cands, sv[:n]...)
		case in.PrevField != nil:
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					add(in.PrevField, in.MBX+dx, in.MBY+dy)
				}
			}
		}
	}

	best, bestSAD := mvfield.Zero, -1
	for _, c := range cands {
		c = in.ClampMV(c)
		c = mvfield.FromFullPel(c.X/2, c.Y/2)
		if s, ok := eval(c); ok && (bestSAD < 0 || better(s, c, bestSAD, best)) {
			best, bestSAD = c, s
		}
	}
	for step := 0; step < p.refineSteps(); step++ {
		improved := false
		for _, d := range [4]mvfield.MV{{X: 2}, {X: -2}, {Y: 2}, {Y: -2}} {
			mv := best.Add(d) // from the current best: it moves inside a step
			if mv.Linf() > 2*in.Range {
				continue
			}
			if s, ok := eval(mv); ok && better(s, mv, bestSAD, best) {
				best, bestSAD, improved = mv, s, true
			}
		}
		if !improved {
			break
		}
	}
	if !p.NoHalfPel {
		center := best
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				mv := center.Add(mvfield.MV{X: dx, Y: dy})
				if dx == 0 && dy == 0 || !in.Legal(mv) {
					continue
				}
				pts++
				if s := in.SAD(mv); better(s, mv, bestSAD, best) {
					best, bestSAD = mv, s
				}
			}
		}
	}
	return Result{MV: best, SAD: bestSAD, Points: pts}
}

// The differential problems live on a 5×4-macroblock frame: every block
// but six is on a border, and a ±15 window is clipped on all sides.
const (
	pbmTestCols, pbmTestRows = 5, 4
	pbmTestW, pbmTestH       = 16 * pbmTestCols, 16 * pbmTestRows
)

var pbmTexture = sync.OnceValue(func() *frame.Plane { return texturedPlane(pbmTestW, pbmTestH, 2005) })

// pbmProblem derives one PBM configuration and block-matching problem from
// (seed, shape). shape picks the discrete axes — content, range, descent
// budget, half-pel, context — so a table can enumerate them and the fuzzer
// can flip them; seed draws everything else: the motion, the noise, the
// block, and motion fields with unknown entries and vectors far outside
// the window. Odd seeds search an encoder-shaped reference — a Range+1
// apron, replicated — on which border and corner blocks refine on the
// ring through the apron; even seeds a tight plane, on which they refine
// one probe at a time. Ranges 16 and 24 outgrow the visited bitmap and
// take the list scan.
func pbmProblem(seed uint64, shape uint16) (*PBM, *Input, string) {
	r := rand.New(rand.NewPCG(seed, 0x2005))
	content := int(shape&3) % 3
	rng := []int{7, 15, 16, 24}[shape>>2&1|shape>>7&2]
	steps := []int{1, 4, 8, 12}[shape>>3&3] // 12 outgrows Search's stack probe list
	p := &PBM{MaxRefineSteps: steps, NoHalfPel: shape>>5&1 == 1}
	ctx := int(shape >> 6 & 3) // 0 none, 1 spatial only, 2 spatial+temporal, 3 spatial+seed

	ref := frame.NewPlane(pbmTestW, pbmTestH)
	switch content {
	case 0: // textured: one SAD minimum, a surface the descent can walk
		ref = pbmTexture()
	case 1: // flat: every candidate ties at SAD 0, only (L1, first-seen) decides
		ref.Fill(uint8(r.IntN(256)))
	case 2: // periodic: exact ties between distinct vectors of different length
		for y := 0; y < pbmTestH; y++ {
			for x := 0; x < pbmTestW; x++ {
				ref.Set(x, y, uint8(40*((x/2+y/2)%4)+20))
			}
		}
	}
	cur := ref.Shift(r.IntN(13)-6, r.IntN(13)-6)
	if content != 1 {
		for i := r.IntN(40); i > 0; i-- {
			cur.Set(r.IntN(pbmTestW), r.IntN(pbmTestH), uint8(r.IntN(256)))
		}
	}
	apron := 0
	if seed&1 == 1 {
		apron = rng + 1
		padded := frame.NewPlanePadded(pbmTestW, pbmTestH, apron)
		padded.CopyBlock(0, 0, ref, 0, 0, pbmTestW, pbmTestH)
		padded.ReplicateApron()
		ref = padded
	}

	randMV := func() mvfield.MV {
		span := 9 // near the window centre, half-pel components included
		if r.IntN(3) == 0 {
			span = 121 // up to ±60 pels: outside any window, often outside the frame
		}
		return mvfield.MV{X: r.IntN(2*span+1) - span, Y: r.IntN(2*span+1) - span}
	}
	randField := func(cols, rows int) *mvfield.Field {
		f := mvfield.NewField(cols, rows)
		for y := 0; y < rows; y++ {
			for x := 0; x < cols; x++ {
				if r.IntN(4) != 0 {
					f.Set(x, y, randMV())
				}
			}
		}
		return f
	}

	in := &Input{
		Cur: cur, Ref: ref, W: 16, H: 16, Range: rng, Qp: 16,
		MBX: r.IntN(pbmTestCols), MBY: r.IntN(pbmTestRows),
	}
	if r.IntN(3) == 0 { // corners: the window is clipped on two sides
		in.MBX, in.MBY = (pbmTestCols-1)*r.IntN(2), (pbmTestRows-1)*r.IntN(2)
	}
	in.BX, in.BY = 16*in.MBX, 16*in.MBY
	if ctx >= 1 {
		in.CurField = randField(pbmTestCols, pbmTestRows)
	}
	if ctx >= 2 {
		in.PrevField = randField(pbmTestCols, pbmTestRows)
	}
	if ctx == 3 {
		in.Seed = &FieldSeed{Field: randField(2*pbmTestCols, 2*pbmTestRows), Shift: 1}
	}
	name := fmt.Sprintf("seed=%d shape=%#x content=%d range=%d apron=%d steps=%d nohalf=%v ctx=%d mb=(%d,%d)",
		seed, shape, content, rng, apron, steps, p.NoHalfPel, ctx, in.MBX, in.MBY)
	return p, in, name
}

// checkPBMProblem holds both evaluators to the reference on one problem.
func checkPBMProblem(t *testing.T, seed uint64, shape uint16) {
	t.Helper()
	p, in, name := pbmProblem(seed, shape)
	want := referencePBM(p, in)
	if got := p.Search(in); got != want {
		t.Errorf("%s: Search {%v %d %d} != reference {%v %d %d}",
			name, got.MV, got.SAD, got.Points, want.MV, want.SAD, want.Points)
	}
	if got := p.search(in, in.window(), false, nil); got != want {
		t.Errorf("%s: per-point {%v %d %d} != reference {%v %d %d}",
			name, got.MV, got.SAD, got.Points, want.MV, want.SAD, want.Points)
	}
}

// TestPBMBatchMatchesPerPoint is the differential the content goldens are
// not: the batch route (one SADBest call for the predictor set, one per
// descent probe), the per-point fold and the reference must agree on
// vector, SAD and Points for every shape — textured, flat and periodic
// (tie-heavy) content, Range 7 and 15 (the visited bitmap) and 16 and 24
// (the list scan), descent budgets 1/4/8 (8 can fill the stack probe list,
// 14 + 32 entries) and 12 (the list may outgrow it and must stay exact),
// half-pel on and off, no context / spatial / spatio-temporal / seeded
// predictors — over random motion, border and corner blocks (refined on the
// ring through the apron for odd seeds, one probe at a time for even ones)
// and fields with unknown entries and out-of-window vectors, on every
// kernel tier. A descent that evaluates a step as the four neighbours of
// its start point — not a sequential walk — fails here within the first
// shapes (see CHANGES.md, PR 22) while passing every golden.
func TestPBMBatchMatchesPerPoint(t *testing.T) {
	for _, isa := range metrics.KernelISAs() {
		restore, err := metrics.SetKernelISA(isa)
		if err != nil {
			t.Fatal(err)
		}
		for shape := uint16(0); shape < 512; shape++ {
			if shape&3 == 3 {
				continue // the low two bits pick the content; 3 repeats 0
			}
			for seed := uint64(0); seed < 6; seed++ {
				checkPBMProblem(t, 1000*uint64(shape)+seed, shape)
			}
		}
		restore()
	}
}

// FuzzPBMBatch lets the fuzzer pick the problem: any (seed, shape) must
// satisfy the same three-way agreement.
func FuzzPBMBatch(f *testing.F) {
	f.Add(uint64(7), uint16(0x00))    // textured, range 7, 1 step, no context
	f.Add(uint64(2005), uint16(0x95)) // flat, range 15, 8 steps, spatio-temporal
	f.Add(uint64(22), uint16(0xce))   // periodic, range 15, 4 steps, seeded
	f.Add(uint64(3), uint16(0x7a))    // periodic, 12 steps, no half-pel
	f.Add(uint64(41), uint16(0x190))  // textured, range 16 (list scan), 8 steps, spatio-temporal
	f.Fuzz(func(t *testing.T, seed uint64, shape uint16) {
		checkPBMProblem(t, seed, shape)
	})
}
