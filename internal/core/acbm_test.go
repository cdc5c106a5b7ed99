package core

import (
	"testing"

	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/mvfield"
	"repro/internal/search"
	"repro/internal/video"
)

func texturedPlane(w, h int, seed uint64, scale float64, amp int) *frame.Plane {
	n := video.Noise{Seed: seed, Scale: scale, Octaves: 3}
	p := frame.NewPlane(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			p.Set(x, y, frame.ClampU8(128+int(float64(amp)*(n.At(float64(x), float64(y))-0.5))))
		}
	}
	return p
}

func newInput(cur, ref *frame.Plane, bx, by, qp int) *search.Input {
	in := &search.Input{
		Cur: cur, Ref: ref,
		BX: bx, BY: by, W: 16, H: 16, Range: 15, Qp: qp,
		CurField: mvfield.NewField(6, 6), MBX: 2, MBY: 2,
	}
	return in
}

func TestDefaultParamsMatchPaper(t *testing.T) {
	p := DefaultParams
	if p.Alpha != 1000 || p.Beta != 8 || p.GammaNum != 1 || p.GammaDen != 4 {
		t.Fatalf("defaults %+v do not match the paper's α=1000 β=8 γ=1/4", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Alpha: 1000, Beta: 8, GammaNum: 1, GammaDen: 0},
		{Alpha: -1, Beta: 8, GammaNum: 1, GammaDen: 4},
		{Alpha: 1000, Beta: -2, GammaNum: 1, GammaDen: 4},
	}
	for _, p := range bad {
		if p.Validate() == nil {
			t.Errorf("Validate accepted %+v", p)
		}
	}
}

func TestNewZeroParamsFallsBackToDefaults(t *testing.T) {
	a := New(Params{})
	if a.Params != DefaultParams {
		t.Fatalf("New(Params{}).Params = %+v", a.Params)
	}
	if a.Name() != "ACBM" {
		t.Fatal("name wrong")
	}
}

func TestSmoothWellMatchedBlockIsEasy(t *testing.T) {
	// A smooth static block at high Qp: condition 1 must accept the PBM
	// vector and skip FSBM entirely.
	ref := texturedPlane(96, 96, 3, 40, 10) // gentle texture
	cur := ref.Clone()
	in := newInput(cur, ref, 40, 40, 30)
	a := New(DefaultParams)
	res, tr := a.SearchTrace(in)
	if tr.Decision != AcceptedEasy {
		t.Fatalf("decision = %v (intra=%d pbm=%d thr=%d)", tr.Decision, tr.IntraSAD, tr.PBMSAD, tr.Threshold1)
	}
	if tr.FSBMPoints != 0 {
		t.Fatal("FSBM ran on an easy block")
	}
	if res.Points >= 100 {
		t.Fatalf("easy block cost %d points", res.Points)
	}
	if res.MV != mvfield.Zero {
		t.Fatalf("MV = %v, want zero", res.MV)
	}
}

func TestTexturedWellMatchedBlockIsGoodMatch(t *testing.T) {
	// Heavy texture (condition 1 fails at low Qp) but a perfect temporal
	// predictor: condition 2 accepts the PBM match.
	ref := texturedPlane(96, 96, 7, 4, 160)
	cur := ref.Shift(5, 4)
	in := newInput(cur, ref, 40, 40, 4) // low Qp → tight threshold 1
	prev := mvfield.NewField(6, 6)
	for by := 0; by < 6; by++ {
		for bx := 0; bx < 6; bx++ {
			prev.Set(bx, by, mvfield.FromFullPel(-5, -4))
		}
	}
	in.PrevField = prev
	a := New(DefaultParams)
	res, tr := a.SearchTrace(in)
	if tr.Decision != AcceptedGoodMatch {
		t.Fatalf("decision = %v (intra=%d pbm=%d thr1=%d)", tr.Decision, tr.IntraSAD, tr.PBMSAD, tr.Threshold1)
	}
	if res.MV != mvfield.FromFullPel(-5, -4) {
		t.Fatalf("MV = %v", res.MV)
	}
	if tr.FSBMPoints != 0 {
		t.Fatal("FSBM ran on a good-match block")
	}
}

func TestUnmatchedTexturedBlockIsCritical(t *testing.T) {
	// Unrelated textured frames at low Qp: both conditions fail, FSBM runs.
	ref := texturedPlane(96, 96, 11, 4, 160)
	cur := texturedPlane(96, 96, 12, 4, 160)
	in := newInput(cur, ref, 40, 40, 4)
	a := New(DefaultParams)
	res, tr := a.SearchTrace(in)
	if tr.Decision != Critical {
		t.Fatalf("decision = %v (intra=%d pbm=%d)", tr.Decision, tr.IntraSAD, tr.PBMSAD)
	}
	if tr.FSBMPoints < 900 {
		t.Fatalf("FSBM points = %d, expected full search", tr.FSBMPoints)
	}
	if res.Points != tr.PBMPoints+tr.FSBMPoints {
		t.Fatalf("points %d != pbm %d + fsbm %d", res.Points, tr.PBMPoints, tr.FSBMPoints)
	}
	if res.SAD > tr.PBMSAD {
		t.Fatal("critical path returned a worse match than PBM")
	}
}

func TestACBMNeverWorseThanPBM(t *testing.T) {
	// On every decision path the returned SAD is ≤ the PBM SAD.
	seeds := []uint64{1, 2, 3, 4, 5}
	a := New(DefaultParams)
	for _, s := range seeds {
		ref := texturedPlane(96, 96, s, 6, 120)
		cur := texturedPlane(96, 96, s+100, 6, 120)
		in := newInput(cur, ref, 40, 40, 16)
		res, tr := a.SearchTrace(in)
		if res.SAD > tr.PBMSAD {
			t.Fatalf("seed %d: ACBM SAD %d > PBM SAD %d", s, res.SAD, tr.PBMSAD)
		}
	}
}

func TestQpControlsEscalation(t *testing.T) {
	// The same moderately mismatched block must escalate at low Qp and be
	// accepted at high Qp — the adaptive-cost property of §3.2.
	ref := texturedPlane(96, 96, 21, 8, 60)
	cur := ref.Shift(3, 2)
	// Perturb the block so the PBM match is imperfect.
	for y := 40; y < 56; y++ {
		for x := 40; x < 56; x++ {
			cur.Set(x, y, frame.ClampU8(int(cur.At(x, y))+int(3*((x+y)%3))))
		}
	}
	runAt := func(qp int) Decision {
		in := newInput(cur, ref, 40, 40, qp)
		a := New(DefaultParams)
		_, tr := a.SearchTrace(in)
		return tr.Decision
	}
	if runAt(30) == Critical {
		t.Fatal("block critical even at Qp 30")
	}
	if runAt(1) != Critical {
		t.Fatal("block not critical at Qp 1")
	}
}

func TestGammaKnob(t *testing.T) {
	// γ=0 disables condition 2; a huge γ accepts any textured match.
	ref := texturedPlane(96, 96, 31, 4, 160)
	cur := ref.Shift(2, 2)
	in := func() *search.Input { return newInput(cur, ref, 40, 40, 1) }
	strict := New(Params{Alpha: 0, Beta: 0, GammaNum: 0, GammaDen: 1})
	_, tr := strict.SearchTrace(in())
	if tr.Decision != Critical {
		t.Fatalf("γ=0, α=β=0 should force FSBM everywhere, got %v", tr.Decision)
	}
	loose := New(Params{Alpha: 0, Beta: 0, GammaNum: 100, GammaDen: 1})
	_, tr = loose.SearchTrace(in())
	if tr.Decision != AcceptedGoodMatch {
		t.Fatalf("huge γ should accept, got %v", tr.Decision)
	}
}

func TestStatsAccumulation(t *testing.T) {
	a := New(DefaultParams)
	ref := texturedPlane(96, 96, 41, 6, 120)
	cur := ref.Clone()
	for i := 0; i < 3; i++ {
		a.Search(newInput(cur, ref, 40, 40, 30))
	}
	st := a.Stats()
	if st.Blocks != 3 {
		t.Fatalf("Blocks = %d", st.Blocks)
	}
	if st.Easy+st.GoodMatch+st.CriticalCnt != st.Blocks {
		t.Fatal("decision counts do not partition blocks")
	}
	if st.AvgPoints() <= 0 {
		t.Fatal("AvgPoints must be positive")
	}
	a.ResetStats()
	if a.Stats().Blocks != 0 {
		t.Fatal("ResetStats did not clear")
	}

	var merged Stats
	merged.Add(st)
	merged.Add(st)
	if merged.Blocks != 6 || merged.Points != 2*st.Points {
		t.Fatal("Stats.Add wrong")
	}
}

func TestStatsZeroDivision(t *testing.T) {
	var s Stats
	if s.AvgPoints() != 0 || s.FSBMRate() != 0 {
		t.Fatal("empty stats must report zeros")
	}
}

func TestDecisionString(t *testing.T) {
	if AcceptedEasy.String() != "easy" || AcceptedGoodMatch.String() != "good-match" || Critical.String() != "critical" {
		t.Fatal("decision names wrong")
	}
	if Decision(9).String() == "" {
		t.Fatal("unknown decision must format")
	}
}

func TestForceFullSearchParams(t *testing.T) {
	// The paper notes the algorithm can be adjusted to avoid FSBM for all
	// blocks: with α huge every block is easy.
	a := New(Params{Alpha: 1 << 30, Beta: 0, GammaNum: 0, GammaDen: 1})
	ref := texturedPlane(96, 96, 51, 4, 160)
	cur := texturedPlane(96, 96, 52, 4, 160)
	_, tr := a.SearchTrace(newInput(cur, ref, 40, 40, 1))
	if tr.Decision != AcceptedEasy {
		t.Fatalf("huge α: decision %v", tr.Decision)
	}
	if a.Stats().FSBMRate() != 0 {
		t.Fatal("FSBM rate must be zero")
	}
}

// TestIntraSADHandOver pins the hand-over on search.Input: a caller that
// has already computed the block's IntraSAD (the encoder, for its
// intra/inter decision) passes it in, and ACBM must reach the very same
// evidence, decisions and totals as when it computes the value itself —
// across all three classes, and for a flat block, whose IntraSAD of 0 is
// the reason the flag is explicit.
func TestIntraSADHandOver(t *testing.T) {
	frames := video.Generate(video.Foreman, frame.QCIF, 3, 5)
	flat := frame.NewPlane(frame.QCIF.W, frame.QCIF.H)
	flat.Fill(90)
	pairs := [][2]*frame.Plane{
		{frames[1].Y, frames[0].Y},
		{frames[2].Y, frames[0].Y}, // a two-frame gap: harder matches
		{flat, frames[0].Y},
	}
	own, handed := New(DefaultParams), New(DefaultParams)
	classes := map[Decision]int{}
	for _, qp := range []int{10, 30} {
		for _, pr := range pairs {
			for mby := 0; mby < frame.QCIF.MacroblockRows(); mby++ {
				for mbx := 0; mbx < frame.QCIF.MacroblockCols(); mbx++ {
					in := newInput(pr[0], pr[1], 16*mbx, 16*mby, qp)
					in.MBX, in.MBY = mbx, mby
					in.CurField = mvfield.NewField(frame.QCIF.MacroblockCols(), frame.QCIF.MacroblockRows())
					wantRes, wantTr := own.SearchTrace(in)

					in.IntraSAD, in.HasIntraSAD = metrics.IntraSAD(in.Cur, in.BX, in.BY, in.W, in.H), true
					gotRes, gotTr := handed.SearchTrace(in)
					if gotRes != wantRes || gotTr != wantTr {
						t.Fatalf("qp %d MB (%d,%d): handed-over %+v %+v, own %+v %+v", qp, mbx, mby, gotRes, gotTr, wantRes, wantTr)
					}
					classes[gotTr.Decision]++
				}
			}
		}
	}
	if own.Stats() != handed.Stats() {
		t.Fatalf("stats differ: own %+v, handed-over %+v", own.Stats(), handed.Stats())
	}
	for _, d := range []Decision{AcceptedEasy, AcceptedGoodMatch, Critical} {
		if classes[d] == 0 {
			t.Fatalf("no %v block in the sample (%v): the comparison is vacuous for that class", d, classes)
		}
	}

	// The handed-over value is what is used, not recomputed: a wrong one
	// shows up in the evidence.
	in := newInput(frames[1].Y, frames[0].Y, 48, 48, 30)
	in.IntraSAD, in.HasIntraSAD = 0, true
	if _, tr := New(DefaultParams).SearchTrace(in); tr.IntraSAD != 0 {
		t.Fatalf("Trace.IntraSAD = %d with a handed-over 0", tr.IntraSAD)
	}
}

// TestACBMScaleBudget pins the QoS dial on plain ACBM: ScaleBudget relaxes
// α and γ by 1/scale from the constructed Params — absolutely, never
// compounding — and scale 1 restores them exactly.
func TestACBMScaleBudget(t *testing.T) {
	p := Params{Alpha: 700, Beta: 6, GammaNum: 1, GammaDen: 3}
	a := New(p)
	for _, step := range []struct {
		scale float64
		want  Params
	}{
		{0.5, Params{Alpha: 1400, Beta: 6, GammaNum: 32, GammaDen: 48}},
		{0.125, Params{Alpha: 5600, Beta: 6, GammaNum: 128, GammaDen: 48}},
		{0, Params{Alpha: 5600, Beta: 6, GammaNum: 128, GammaDen: 48}},  // ignored
		{-1, Params{Alpha: 5600, Beta: 6, GammaNum: 128, GammaDen: 48}}, // ignored
		{1, p},
	} {
		a.ScaleBudget(step.scale)
		if a.Params != step.want {
			t.Fatalf("ScaleBudget(%g): params %+v, want %+v", step.scale, a.Params, step.want)
		}
	}

	// The dial reaches the decision: condition 1's threshold is the
	// relaxed α + β·Qp².
	a.ScaleBudget(0.125)
	ref := texturedPlane(96, 96, 11, 4, 160)
	if _, tr := a.SearchTrace(newInput(ref, ref, 40, 40, 4)); tr.Threshold1 != 5600+6*16 {
		t.Errorf("Threshold1 %d under ×8 thresholds, want %d", tr.Threshold1, 5600+6*16)
	}

	// A literal ACBM resolves to the defaults SearchTrace would use.
	lit := &ACBM{}
	lit.ScaleBudget(1)
	if lit.Params != DefaultParams {
		t.Errorf("literal ACBM at scale 1: %+v, want DefaultParams", lit.Params)
	}
	lit.ScaleBudget(0.5)
	if lit.Params.Alpha != 2*DefaultParams.Alpha {
		t.Errorf("literal ACBM at scale ½: α %d, want %d", lit.Params.Alpha, 2*DefaultParams.Alpha)
	}
}

// TestACBMScaleBudgetForks: the encoder forks the searcher at each frame
// start, so a fork taken after a scale inherits it and one taken before
// does not; a fork's own ScaleBudget stays absolute to the constructed
// Params.
func TestACBMScaleBudgetForks(t *testing.T) {
	a := New(DefaultParams)
	before := a.Fork().(*ACBM)
	a.ScaleBudget(0.125)
	after := a.Fork().(*ACBM)
	if before.Params != DefaultParams {
		t.Errorf("fork taken before the scale: %+v, want DefaultParams", before.Params)
	}
	if after.Params != a.Params || after.Params.Alpha != 8*DefaultParams.Alpha {
		t.Errorf("fork taken after the scale: %+v, want %+v", after.Params, a.Params)
	}
	after.ScaleBudget(1)
	if after.Params != DefaultParams {
		t.Errorf("fork restored to %+v, want DefaultParams", after.Params)
	}
}
