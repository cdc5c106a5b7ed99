package search

import (
	"testing"

	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/mvfield"
	"repro/internal/video"
)

// texturedPlane renders a deterministic textured luma plane large enough
// for full-range searches.
func texturedPlane(w, h int, seed uint64) *frame.Plane {
	n := video.Noise{Seed: seed, Scale: 5, Octaves: 3}
	p := frame.NewPlane(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			p.Set(x, y, frame.ClampU8(int(40+180*n.At(float64(x), float64(y)))))
		}
	}
	return p
}

// newInput builds a macroblock search input over cur/ref.
func newInput(cur, ref *frame.Plane, bx, by, rng, qp int) *Input {
	return &Input{
		Cur: cur, Ref: ref,
		BX: bx, BY: by, W: 16, H: 16, Range: rng, Qp: qp,
	}
}

// shiftedPair returns (cur, ref) where cur equals ref translated by
// (dx, dy) full pels; the true motion vector of interior blocks is (dx, dy).
func shiftedPair(dx, dy int, seed uint64) (cur, ref *frame.Plane) {
	ref = texturedPlane(96, 96, seed)
	cur = ref.Shift(dx, dy)
	return cur, ref
}

func TestLegal(t *testing.T) {
	p := texturedPlane(64, 64, 1)
	in := newInput(p, p, 16, 16, 15, 16)
	cases := []struct {
		mv   mvfield.MV
		want bool
	}{
		{mvfield.Zero, true},
		{mvfield.FromFullPel(-16, 0), true},  // exactly to the left edge
		{mvfield.FromFullPel(-17, 0), false}, // past the left edge
		{mvfield.FromFullPel(32, 32), true},  // exactly to the bottom-right corner
		{mvfield.FromFullPel(33, 32), false},
		{mvfield.MV{X: 65, Y: 0}, false}, // half-pel past the right edge
	}
	for _, c := range cases {
		if got := in.Legal(c.mv); got != c.want {
			t.Errorf("Legal(%v) = %v, want %v", c.mv, got, c.want)
		}
	}
}

func TestClampMV(t *testing.T) {
	p := texturedPlane(64, 64, 2)
	in := newInput(p, p, 0, 0, 15, 16) // corner block
	got := in.ClampMV(mvfield.FromFullPel(-10, -10))
	if !in.Legal(got) {
		t.Fatalf("clamped MV %v still illegal", got)
	}
	if got.X > 0 || got.Y > 0 {
		t.Fatalf("clamp moved too far: %v", got)
	}
	// In-range vectors must pass through unchanged.
	mv := mvfield.FromFullPel(5, 7)
	in2 := newInput(p, p, 24, 24, 15, 16)
	if in2.ClampMV(mv) != mv {
		t.Fatal("ClampMV altered a legal vector")
	}
	// Bottom-right corner block: any rightward or downward half-pel step
	// leaves the plane, so the clamp must land on the zero vector's axis.
	in3 := newInput(p, p, 48, 48, 15, 16)
	for _, c := range []struct{ mv, want mvfield.MV }{
		{mvfield.MV{X: 1, Y: 0}, mvfield.Zero},
		{mvfield.MV{X: 0, Y: 1}, mvfield.Zero},
		{mvfield.MV{X: 9, Y: 9}, mvfield.Zero},
		{mvfield.MV{X: -3, Y: 5}, mvfield.MV{X: -3, Y: 0}},
	} {
		got := in3.ClampMV(c.mv)
		if !in3.Legal(got) || got != c.want {
			t.Errorf("bottom-right ClampMV(%v) = %v (legal %v), want %v", c.mv, got, in3.Legal(got), c.want)
		}
	}
}

func TestFSBMRecoversKnownShift(t *testing.T) {
	for _, d := range [][2]int{{0, 0}, {3, -2}, {-7, 5}, {15, 15}, {-15, -15}} {
		cur, ref := shiftedPair(d[0], d[1], 42)
		in := newInput(cur, ref, 40, 40, 15, 16)
		res := (&FSBM{}).Search(in)
		// Shift(dx,dy) moves content right/down: the block at (40,40) in
		// cur equals the block at (40-dx, 40-dy) in ref, so MV = (-dx,-dy).
		want := mvfield.FromFullPel(-d[0], -d[1])
		if res.MV != want {
			t.Errorf("shift %v: MV = %v, want %v", d, res.MV, want)
		}
		if res.SAD != 0 {
			t.Errorf("shift %v: SAD = %d, want 0", d, res.SAD)
		}
	}
}

func TestFSBMPointCountInterior(t *testing.T) {
	cur, ref := shiftedPair(1, 1, 7)
	in := newInput(cur, ref, 40, 40, 15, 16)
	res := (&FSBM{}).Search(in)
	if res.Points != 31*31+8 {
		t.Fatalf("interior FSBM points = %d, want 969", res.Points)
	}
	resInt := (&FSBM{NoHalfPel: true}).Search(in)
	if resInt.Points != 31*31 {
		t.Fatalf("integer FSBM points = %d, want 961", resInt.Points)
	}
}

func TestFSBMPointCountAtBorder(t *testing.T) {
	cur, ref := shiftedPair(0, 0, 9)
	in := newInput(cur, ref, 0, 0, 15, 16) // top-left corner block
	res := (&FSBM{NoHalfPel: true}).Search(in)
	if res.Points != 16*16 { // only u,v in [0,15]
		t.Fatalf("corner FSBM points = %d, want 256", res.Points)
	}
}

func TestFSBMMatchesBruteForceMinimum(t *testing.T) {
	cur := texturedPlane(96, 96, 5)
	ref := texturedPlane(96, 96, 6) // unrelated planes: nontrivial surface
	in := newInput(cur, ref, 40, 40, 8, 16)
	res := (&FSBM{NoHalfPel: true}).Search(in)
	bestSAD := 1 << 30
	for v := -8; v <= 8; v++ {
		for u := -8; u <= 8; u++ {
			s := metrics.SAD(cur, 40, 40, ref, 40+u, 40+v, 16, 16)
			if s < bestSAD {
				bestSAD = s
			}
		}
	}
	if res.SAD != bestSAD {
		t.Fatalf("FSBM SAD %d != brute force %d", res.SAD, bestSAD)
	}
}

func TestFSBMPrefersShortVectorOnTies(t *testing.T) {
	flat := frame.NewPlane(96, 96)
	flat.Fill(128)
	in := newInput(flat, flat, 40, 40, 15, 16)
	res := (&FSBM{}).Search(in)
	if res.MV != mvfield.Zero {
		t.Fatalf("constant plane MV = %v, want zero", res.MV)
	}
}

func TestHalfPelRefinementFindsSubpixelShift(t *testing.T) {
	ref := texturedPlane(96, 96, 13)
	ip := frame.Interpolate(ref)
	// cur = ref sampled at a (+1, -1) half-pel offset.
	cur := frame.NewPlane(96, 96)
	for y := 0; y < 96; y++ {
		for x := 0; x < 96; x++ {
			cur.Set(x, y, ip.AtClamped(2*x+1, 2*y-1))
		}
	}
	in := newInput(cur, ref, 40, 40, 15, 16)
	res := (&FSBM{}).Search(in)
	if res.MV != (mvfield.MV{X: 1, Y: -1}) {
		t.Fatalf("MV = %v, want (+0.5,-0.5)", res.MV)
	}
	if res.SAD != 0 {
		t.Fatalf("SAD = %d, want 0", res.SAD)
	}
}

func TestPBMUsesTemporalPredictor(t *testing.T) {
	cur, ref := shiftedPair(9, -6, 21)
	in := newInput(cur, ref, 40, 40, 15, 16)
	prev := mvfield.NewField(6, 6)
	for by := 0; by < 6; by++ {
		for bx := 0; bx < 6; bx++ {
			prev.Set(bx, by, mvfield.FromFullPel(-9, 6)) // the true vector
		}
	}
	in.CurField = mvfield.NewField(6, 6)
	in.PrevField = prev
	in.MBX, in.MBY = 2, 2
	res := (&PBM{}).Search(in)
	if res.MV != mvfield.FromFullPel(-9, 6) {
		t.Fatalf("PBM MV = %v, want (-9,6)", res.MV)
	}
	if res.SAD != 0 {
		t.Fatalf("PBM SAD = %d", res.SAD)
	}
	if res.Points >= 100 {
		t.Fatalf("PBM evaluated %d points, expected a few dozen at most", res.Points)
	}
}

func TestPBMDescentFindsNearbyMotionWithoutPredictors(t *testing.T) {
	cur, ref := shiftedPair(2, 1, 33)
	in := newInput(cur, ref, 40, 40, 15, 16)
	in.CurField = mvfield.NewField(6, 6)
	in.MBX, in.MBY = 2, 2
	res := (&PBM{}).Search(in)
	if res.MV != mvfield.FromFullPel(-2, -1) {
		t.Fatalf("PBM MV = %v, want (-2,-1)", res.MV)
	}
}

func TestPBMBoundedComplexity(t *testing.T) {
	// Even on hostile content PBM must stay well below FSBM's cost.
	cur := texturedPlane(96, 96, 1)
	ref := texturedPlane(96, 96, 2)
	in := newInput(cur, ref, 40, 40, 15, 16)
	in.CurField = mvfield.NewField(6, 6)
	in.MBX, in.MBY = 2, 2
	res := (&PBM{}).Search(in)
	if res.Points > 60 {
		t.Fatalf("PBM points = %d, want ≤ 60", res.Points)
	}
	if !in.Legal(res.MV) {
		t.Fatalf("PBM returned illegal MV %v", res.MV)
	}
}

func TestPBMNoContextFallsBackToZeroNeighbourhood(t *testing.T) {
	cur, ref := shiftedPair(0, 0, 3)
	in := newInput(cur, ref, 40, 40, 15, 16)
	res := (&PBM{}).Search(in)
	if res.MV != mvfield.Zero || res.SAD != 0 {
		t.Fatalf("PBM on identical frames: MV %v SAD %d", res.MV, res.SAD)
	}
}

func TestFastSearchersRecoverModerateShift(t *testing.T) {
	searchers := []Searcher{&TSS{}, &FSS{}, &Diamond{}, &CrossDiamond{}}
	cur, ref := shiftedPair(4, 3, 55)
	want := mvfield.FromFullPel(-4, -3)
	for _, s := range searchers {
		in := newInput(cur, ref, 40, 40, 15, 16)
		res := s.Search(in)
		if res.MV != want {
			t.Errorf("%s: MV = %v, want %v", s.Name(), res.MV, want)
		}
		if res.SAD != 0 {
			t.Errorf("%s: SAD = %d", s.Name(), res.SAD)
		}
		if res.Points >= 200 {
			t.Errorf("%s: %d points, expected far fewer than FSBM's 969", s.Name(), res.Points)
		}
	}
}

func TestAllSearchersReturnLegalVectors(t *testing.T) {
	searchers := []Searcher{&FSBM{}, &PBM{}, &TSS{}, &FSS{}, &Diamond{}, &CrossDiamond{}}
	cur := texturedPlane(96, 96, 71)
	ref := texturedPlane(96, 96, 72)
	for _, s := range searchers {
		for _, anchor := range [][2]int{{0, 0}, {80, 80}, {0, 80}, {40, 0}} {
			in := newInput(cur, ref, anchor[0], anchor[1], 15, 16)
			in.CurField = mvfield.NewField(6, 6)
			res := s.Search(in)
			if !in.Legal(res.MV) {
				t.Errorf("%s at %v: illegal MV %v", s.Name(), anchor, res.MV)
			}
			if res.Points <= 0 {
				t.Errorf("%s at %v: nonpositive point count %d", s.Name(), anchor, res.Points)
			}
			// The reported SAD must equal the actual SAD at the vector.
			if got := in.SAD(res.MV); got != res.SAD {
				t.Errorf("%s at %v: reported SAD %d != actual %d", s.Name(), anchor, res.SAD, got)
			}
		}
	}
}

func TestSearcherNames(t *testing.T) {
	if (&FSBM{}).Name() != "FSBM" || (&FSBM{NoHalfPel: true}).Name() != "FSBM-int" {
		t.Fatal("FSBM names wrong")
	}
	if (&PBM{}).Name() != "PBM" || (&TSS{}).Name() != "TSS" || (&FSS{}).Name() != "4SS" {
		t.Fatal("searcher names wrong")
	}
	if (&Diamond{}).Name() != "DS" || (&CrossDiamond{}).Name() != "CDS" {
		t.Fatal("diamond names wrong")
	}
}

func TestCollectDeviationCountsAllCandidates(t *testing.T) {
	cur, ref := shiftedPair(2, 2, 77)
	in := newInput(cur, ref, 40, 40, 15, 16)
	var dev metrics.Deviation
	in.Collect = &dev
	res := (&FSBM{NoHalfPel: true}).Search(in)
	if dev.N() != res.Points {
		t.Fatalf("deviation recorded %d candidates, points %d", dev.N(), res.Points)
	}
	if dev.Min() != res.SAD {
		t.Fatalf("deviation min %d != best SAD %d", dev.Min(), res.SAD)
	}
	if dev.Value() <= 0 {
		t.Fatal("deviation must be positive on a textured block")
	}
}

func TestFSBMDegenerateSmallFrame(t *testing.T) {
	// A frame exactly one block wide: only the zero vector is legal.
	p := texturedPlane(16, 16, 4)
	in := newInput(p, p, 0, 0, 15, 16)
	res := (&FSBM{}).Search(in)
	if res.MV != mvfield.Zero || res.SAD != 0 {
		t.Fatalf("degenerate search: MV %v SAD %d", res.MV, res.SAD)
	}
}
