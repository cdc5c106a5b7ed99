package search

import (
	"testing"

	"repro/internal/entropy"
	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/mvfield"
	"repro/internal/video"
)

// exactRCFSBM is RCFSBM scoring every probe with its exact SAD — the loop
// the capped probes replaced, kept as their reference.
func exactRCFSBM(f *RCFSBM, in *Input) Result {
	pred := mvfield.Zero
	if in.CurField != nil {
		pred = in.CurField.MedianPredictor(in.MBX, in.MBY)
	}
	best := mvfield.Zero
	bestSAD, bestCost, pts := -1, 0, 0
	try := func(mv mvfield.MV) {
		if !in.Legal(mv) {
			return
		}
		pts++
		sad := in.SAD(mv)
		j := metrics.RDCost(sad, entropy.MVDBits(mv, pred), in.Qp)
		if bestSAD < 0 || j < bestCost || (j == bestCost && mv.L1() < best.L1()) {
			best, bestSAD, bestCost = mv, sad, j
		}
	}
	for v := -in.Range; v <= in.Range; v++ {
		for u := -in.Range; u <= in.Range; u++ {
			try(mvfield.FromFullPel(u, v))
		}
	}
	if bestSAD < 0 {
		return Result{MV: mvfield.Zero, SAD: in.SAD(mvfield.Zero), Points: 1}
	}
	if !f.NoHalfPel {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx != 0 || dy != 0 {
					try(best.Add(mvfield.MV{X: dx, Y: dy}))
				}
			}
		}
	}
	return Result{MV: best, SAD: bestSAD, Points: pts}
}

// TestRCFSBMCappedProbesMatchExact holds the capped probes to exact
// scoring: for every macroblock of two Foreman frame pairs, with the
// median predictor from a causally filled field, at Range 15 and 4, with
// and without the half-pel ring and with Collect (whose count and
// deviation must see every probe), vector, SAD and Points must be equal.
func TestRCFSBMCappedProbesMatchExact(t *testing.T) {
	frames := video.Generate(video.Foreman, frame.QCIF, 3, 5)
	const cols, rows = 176 / 16, 144 / 16
	for _, nhp := range []bool{false, true} {
		f := &RCFSBM{NoHalfPel: nhp}
		for _, rng := range []int{15, 4} {
			for _, collect := range []bool{false, true} {
				for i := 1; i < len(frames); i++ {
					field := mvfield.NewField(cols, rows)
					for mby := 0; mby < rows; mby++ {
						for mbx := 0; mbx < cols; mbx++ {
							in := Input{Cur: frames[i].Y, Ref: frames[i-1].Y, BX: 16 * mbx, BY: 16 * mby, W: 16, H: 16,
								Range: rng, Qp: 12, CurField: field, MBX: mbx, MBY: mby}
							ref := in
							var dev, refDev metrics.Deviation
							if collect {
								in.Collect, ref.Collect = &dev, &refDev
							}
							got, want := f.Search(&in), exactRCFSBM(f, &ref)
							if got != want || dev != refDev {
								t.Fatalf("nohalfpel=%v range=%d collect=%v frame %d mb (%d,%d): got %+v (%d SADs), want %+v (%d SADs)",
									nhp, rng, collect, i, mbx, mby, got, dev.N(), want, refDev.N())
							}
							field.Set(mbx, mby, got.MV)
						}
					}
				}
			}
		}
	}
}

func TestRCFSBMEqualsFSBMOnExactMatch(t *testing.T) {
	// When a zero-SAD match exists it has minimal J too: both searchers
	// must land on the true motion vector.
	cur, ref := shiftedPair(6, -4, 77)
	in := newInput(cur, ref, 40, 40, 15, 16)
	in.CurField = mvfield.NewField(6, 6)
	in.MBX, in.MBY = 2, 2
	rc := (&RCFSBM{}).Search(in)
	fs := (&FSBM{}).Search(newInput(cur, ref, 40, 40, 15, 16))
	if rc.MV != fs.MV || rc.SAD != 0 {
		t.Fatalf("RC-FSBM %v (SAD %d) vs FSBM %v", rc.MV, rc.SAD, fs.MV)
	}
}

func TestRCFSBMPrefersPredictorOnAmbiguousSurface(t *testing.T) {
	// On a flat (constant) block every candidate has SAD 0; the rate term
	// must pull the choice to the median predictor.
	flat := texturedPlane(96, 96, 1)
	for y := 24; y < 72; y++ {
		for x := 24; x < 72; x++ {
			flat.Set(x, y, 128)
		}
	}
	in := newInput(flat, flat, 40, 40, 4, 16)
	fld := mvfield.NewField(6, 6)
	fld.Set(1, 2, mvfield.FromFullPel(2, 1)) // left neighbour
	fld.Set(2, 1, mvfield.FromFullPel(2, 1)) // above
	fld.Set(3, 1, mvfield.FromFullPel(2, 1)) // above-right
	in.CurField = fld
	in.MBX, in.MBY = 2, 2
	res := (&RCFSBM{}).Search(in)
	if res.MV != mvfield.FromFullPel(2, 1) {
		t.Fatalf("RC-FSBM chose %v, want the predictor (2,1)", res.MV)
	}
}

func TestRCFSBMFieldMoreCoherentThanFSBM(t *testing.T) {
	// Low-amplitude unrelated noise gives a near-flat SAD surface with
	// many near-ties; the rate term must pull RC-FSBM's field together
	// while plain FSBM scatters across the ties.
	mk := func(seed uint64) *frame.Plane {
		p := frame.NewPlane(96, 96)
		s := seed | 1
		for i := range p.Pix {
			s ^= s >> 12
			s ^= s << 25
			s ^= s >> 27
			p.Pix[i] = uint8(126 + s*2685821657736338717>>62) // 126..129
		}
		return p
	}
	cur, ref := mk(31), mk(32)
	run := func(s Searcher) float64 {
		fld := mvfield.NewField(6, 6)
		for mby := 0; mby < 6; mby++ {
			for mbx := 0; mbx < 6; mbx++ {
				in := newInput(cur, ref, 16*mbx, 16*mby, 8, 31) // max Qp → max λ
				in.CurField = fld
				in.MBX, in.MBY = mbx, mby
				fld.Set(mbx, mby, s.Search(in).MV)
			}
		}
		return fld.Smoothness()
	}
	rc, fs := run(&RCFSBM{}), run(&FSBM{})
	if rc >= fs {
		t.Fatalf("RC-FSBM field not smoother: %.2f vs FSBM %.2f", rc, fs)
	}
}

func TestRCFSBMName(t *testing.T) {
	if (&RCFSBM{}).Name() != "RC-FSBM" {
		t.Fatal("name wrong")
	}
}

func TestNTSSAndHEXBSRecoverShifts(t *testing.T) {
	for _, s := range []Searcher{&NTSS{}, &HEXBS{}} {
		// Small shift (centre-biased path) and moderate shift.
		for _, d := range [][2]int{{1, 1}, {5, -3}} {
			cur, ref := shiftedPair(d[0], d[1], 91)
			in := newInput(cur, ref, 40, 40, 15, 16)
			res := s.Search(in)
			want := mvfield.FromFullPel(-d[0], -d[1])
			if res.MV != want {
				t.Errorf("%s shift %v: MV %v, want %v", s.Name(), d, res.MV, want)
			}
			if res.SAD != 0 {
				t.Errorf("%s shift %v: SAD %d", s.Name(), d, res.SAD)
			}
		}
	}
}

func TestNTSSHalfwayStopIsCheapOnSmallMotion(t *testing.T) {
	cur, ref := shiftedPair(1, 0, 41)
	in := newInput(cur, ref, 40, 40, 15, 16)
	res := (&NTSS{}).Search(in)
	if res.Points > 40 {
		t.Fatalf("NTSS used %d points on unit motion; halfway stop broken", res.Points)
	}
}

func TestHEXBSCheaperThanDiamondOnLongMotion(t *testing.T) {
	cur, ref := shiftedPair(12, 0, 51)
	inH := newInput(cur, ref, 40, 40, 15, 16)
	inD := newInput(cur, ref, 40, 40, 15, 16)
	h := (&HEXBS{}).Search(inH)
	d := (&Diamond{}).Search(inD)
	if h.MV != d.MV {
		t.Skipf("different minima found (%v vs %v); cost comparison not meaningful", h.MV, d.MV)
	}
	if h.Points > d.Points {
		t.Fatalf("HEXBS %d points > DS %d points on long motion", h.Points, d.Points)
	}
}

func TestNewBaselinesLegalAndNamed(t *testing.T) {
	cur := texturedPlane(96, 96, 61)
	ref := texturedPlane(96, 96, 62)
	for _, s := range []Searcher{&NTSS{}, &HEXBS{}, &RCFSBM{}} {
		for _, anchor := range [][2]int{{0, 0}, {80, 80}} {
			in := newInput(cur, ref, anchor[0], anchor[1], 15, 16)
			in.CurField = mvfield.NewField(6, 6)
			res := s.Search(in)
			if !in.Legal(res.MV) {
				t.Errorf("%s: illegal MV %v", s.Name(), res.MV)
			}
			if got := in.SAD(res.MV); got != res.SAD {
				t.Errorf("%s: reported SAD %d != actual %d", s.Name(), res.SAD, got)
			}
		}
	}
	if (&NTSS{}).Name() != "NTSS" || (&HEXBS{}).Name() != "HEXBS" {
		t.Fatal("names wrong")
	}
}
