package search

import (
	"math/rand"
	"testing"

	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/mvfield"
	"repro/internal/video"
)

// rasterFSBM is the seed's raster-order full search, kept as the reference
// the spiral scan must match exactly (winner, SAD and Points), including
// the capped-SAD early-termination interplay with better().
func rasterFSBM(in *Input) Result {
	best := mvfield.Zero
	bestSAD := -1
	pts := 0
	for v := -in.Range; v <= in.Range; v++ {
		for u := -in.Range; u <= in.Range; u++ {
			mv := mvfield.FromFullPel(u, v)
			if !in.Legal(mv) {
				continue
			}
			pts++
			if bestSAD < 0 {
				best, bestSAD = mv, in.SAD(mv)
				continue
			}
			s := in.SADCapped(mv, bestSAD)
			if better(s, mv, bestSAD, best) {
				best, bestSAD = mv, s
			}
		}
	}
	if bestSAD < 0 {
		return Result{MV: mvfield.Zero, SAD: in.SAD(mvfield.Zero), Points: 1}
	}
	return Result{MV: best, SAD: bestSAD, Points: pts}
}

// TestSpiralMatchesRaster drives both scans over random content —
// including flat regions that maximise SAD ties — at interior and border
// blocks, and requires bit-identical results.
func TestSpiralMatchesRaster(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	flat := frame.NewPlane(96, 96) // all-zero: every candidate ties
	noisy := frame.NewPlane(96, 96)
	rng.Read(noisy.Pix)
	quant := frame.NewPlane(96, 96) // coarse blocks: many partial ties
	for y := 0; y < 96; y++ {
		for x := 0; x < 96; x++ {
			quant.Set(x, y, uint8((x/8+y/8)%3*40))
		}
	}
	for _, tc := range []struct {
		name     string
		cur, ref *frame.Plane
	}{
		{"flat", flat, flat},
		{"noisy", noisy, noisy},
		{"quantised", quant, quant},
		{"cross", noisy, quant},
	} {
		for _, anchor := range [][2]int{{0, 0}, {40, 40}, {80, 80}, {16, 0}, {0, 64}} {
			for _, rng := range []int{4, 15} {
				in := &Input{
					Cur: tc.cur, Ref: tc.ref,
					BX: anchor[0], BY: anchor[1], W: 16, H: 16, Range: rng,
				}
				for _, nhp := range []bool{true, false} {
					f := &FSBM{NoHalfPel: nhp}
					got := f.Search(in)
					in2 := *in
					want := rasterFSBM(&in2)
					if !nhp {
						mv, sad, extra := refineHalfPel(&in2, want.MV, want.SAD)
						want = Result{MV: mv, SAD: sad, Points: want.Points + extra}
					}
					if got != want {
						t.Errorf("%s anchor=%v range=%d nohalfpel=%v: spiral %+v != raster %+v",
							tc.name, anchor, rng, nhp, got, want)
					}
				}
			}
		}
	}
}

// TestFSBMBatchMatchesPerPoint holds the one-kernel-call full search to
// the per-candidate scan it replaced: for every macroblock anchor of a
// QCIF frame pair — corners and edges, where the window is clipped,
// included — winner, SAD and Points must be identical at small, odd and
// full ranges, on camera-like content and on a flat pair where every
// candidate ties — on every kernel tier.
func TestFSBMBatchMatchesPerPoint(t *testing.T) {
	seq := video.Generate(video.Foreman, frame.QCIF, 2, 3)
	flat := frame.NewPlane(frame.QCIF.W, frame.QCIF.H)
	flat.Fill(77)
	contents := []struct {
		name     string
		cur, ref *frame.Plane
	}{
		{"foreman", seq[1].Y, seq[0].Y},
		{"flat", flat, flat},
	}
	for _, isa := range metrics.KernelISAs() {
		restore, err := metrics.SetKernelISA(isa)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range contents {
			for _, r := range []int{1, 7, 15} {
				for by := 0; by+16 <= tc.cur.H; by += 16 {
					for bx := 0; bx+16 <= tc.cur.W; bx += 16 {
						in := &Input{Cur: tc.cur, Ref: tc.ref, BX: bx, BY: by, W: 16, H: 16, Range: r}
						gotMV, gotSAD, gotPts := fullSearchBatch(in)
						wantMV, wantSAD, wantPts := fullSearchPerPoint(in)
						if gotMV != wantMV || gotSAD != wantSAD || gotPts != wantPts {
							t.Errorf("%s %s range=%d anchor=(%d,%d): batch {%v %d %d} != per-point {%v %d %d}",
								isa, tc.name, r, bx, by, gotMV, gotSAD, gotPts, wantMV, wantSAD, wantPts)
						}
					}
				}
			}
		}
		restore()
	}
}

// TestFSBMEscalateMatchesSearch holds ACBM's escalation to the full search
// it replaces: for every macroblock of Foreman and Carphone frame pairs,
// PBM searched first (with a causally filled field, so its predictors are
// real), FSBM.Escalate with PBM's stage must return exactly FSBM.Search's
// result — at Range 15 and 7, for each NoHalfPel setting of either
// searcher. Blocks where both integer winners agree (the reused
// refinement) and where they differ must both occur.
func TestFSBMEscalateMatchesSearch(t *testing.T) {
	const cols, rows = 176 / 16, 144 / 16
	same, differ := 0, 0
	for _, p := range []video.Profile{video.Foreman, video.Carphone} {
		frames := video.Generate(p, frame.QCIF, 3, 9)
		for _, rng := range []int{15, 7} {
			for _, pbmHalf := range []bool{false, true} {
				for _, fsbmHalf := range []bool{false, true} {
					pbm, fsbm := &PBM{NoHalfPel: pbmHalf}, &FSBM{NoHalfPel: fsbmHalf}
					for i := 1; i < len(frames); i++ {
						field := mvfield.NewField(cols, rows)
						for mby := 0; mby < rows; mby++ {
							for mbx := 0; mbx < cols; mbx++ {
								in := &Input{Cur: frames[i].Y, Ref: frames[i-1].Y, BX: 16 * mbx, BY: 16 * mby, W: 16, H: 16,
									Range: rng, Qp: 16, CurField: field, MBX: mbx, MBY: mby}
								var st Stage
								res := pbm.SearchStaged(in, &st)
								want := fsbm.Search(in)
								if got := fsbm.Escalate(in, st); got != want {
									t.Fatalf("%v range %d pbm.NoHalfPel=%v fsbm.NoHalfPel=%v frame %d mb (%d,%d): Escalate %+v, Search %+v",
										p, rng, pbmHalf, fsbmHalf, i, mbx, mby, got, want)
								}
								if mv, _, _ := fullSearchBatch(in); mv == st.mv {
									same++
								} else {
									differ++
								}
								field.Set(mbx, mby, res.MV)
							}
						}
					}
				}
			}
		}
	}
	if same == 0 || differ == 0 {
		t.Fatalf("integer winners agreed on %d blocks and differed on %d: both routes must be exercised", same, differ)
	}
}
