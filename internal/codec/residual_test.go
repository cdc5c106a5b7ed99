package codec

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/mvfield"
	"repro/internal/search"
	"repro/internal/video"
)

// TestZeroBlockGateRate pins what the gate is for on one cell where ACBM
// is adaptive (Carphone, Qp 30): of the inter blocks whose prediction is
// not already exact — the ones that would otherwise all be transformed —
// at least three quarters must be settled by the gate. The test drives
// the two encoder phases by hand so it can recompute every block's
// prediction from the reference the analysis read, sample by sample off an
// eagerly interpolated view (the tile-filled oracle, not the plane-direct
// fetch the codec uses), and classify it itself.
func TestZeroBlockGateRate(t *testing.T) {
	frames := video.Generate(video.Carphone, frame.QCIF, 30, 2005)
	e := NewEncoder(Config{Qp: 30, Searcher: core.New(core.DefaultParams), Workers: 1})
	cols := frame.QCIF.MacroblockCols()
	blocks, identical, gated, transformed, coded := 0, 0, 0, 0, 0
	for _, f := range frames {
		j, err := e.analyzeFrameJob(f)
		if err != nil {
			t.Fatal(err)
		}
		if !j.intra {
			ref := j.prevRef
			ry, rcb, rcr := frame.Interpolate(ref.Y), frame.Interpolate(ref.Cb), frame.Interpolate(ref.Cr)
			exact := func(src *frame.Plane, view *frame.Interpolated, x, y int, mv mvfield.MV) bool {
				for i := 0; i < 64; i++ {
					bx, by := i%8, i/8
					if src.At(x+bx, y+by) != view.AtClamped(2*(x+bx)+mv.X, 2*(y+by)+mv.Y) {
						return false
					}
				}
				return true
			}
			for idx := range j.results {
				r := &j.results[idx]
				if r.mode == mbIntra {
					continue
				}
				mbx, mby := idx%cols, idx/cols
				cmv := chromaMV(r.mv)
				same := [6]bool{4: exact(f.Cb, rcb, 8*mbx, 8*mby, cmv), 5: exact(f.Cr, rcr, 8*mbx, 8*mby, cmv)}
				for i, off := range lumaBlockOffsets {
					same[i] = exact(f.Y, ry, 16*mbx+off[0], 16*mby+off[1], r.mv)
				}
				for i, s := range same {
					blocks++
					if s {
						identical++
						if r.coded[i] {
							t.Fatalf("frame %d MB %d block %d: exact prediction yet coded", j.index, idx, i)
						}
					}
				}
			}
			ry.Release()
			rcb.Release()
			rcr.Release()
		}
		e.writeFrame(j)
		e.frameHandoff(j)
		fs := e.stats.Frames[j.index]
		gated += fs.GatedBlocks
		transformed += fs.TransformedBlocks
		coded += fs.CodedBlocks
	}
	if gated+transformed != blocks {
		t.Fatalf("gated %d + transformed %d != %d inter blocks", gated, transformed, blocks)
	}
	// An exact prediction has energy 0, below every bound: all of the
	// identical blocks are among the gated ones.
	rest := blocks - identical
	share := float64(gated-identical) / float64(rest)
	t.Logf("inter blocks %d: identical %d, gated %d, transformed %d, coded %d; gate took %.1f%% of the %d non-identical",
		blocks, identical, gated, transformed, coded, 100*share, rest)
	if identical > gated {
		t.Fatalf("%d identical blocks but only %d gated", identical, gated)
	}
	if share < 0.75 {
		t.Fatalf("gate settled %.1f%% of non-identical inter blocks on Carphone@30, want ≥ 75%%", 100*share)
	}
}

// TestJobPSNRMatchesFramePSNR is the differential for the kernel-summed
// PSNR statistics: on real encodes and on planes large enough to span
// several kernel strips, every reported value must carry the very
// float64 bits frame.PSNR — the exported oracle — computes.
func TestJobPSNRMatchesFramePSNR(t *testing.T) {
	same := func(what string, got float64, a, b *frame.Plane) {
		t.Helper()
		want, err := frame.PSNR(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: got %v (%#x), frame.PSNR %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, size := range []frame.Size{frame.QCIF, frame.CIF} {
		e := NewEncoder(Config{Qp: 20, Searcher: &search.PBM{}, Workers: 1})
		for i, f := range video.Generate(video.Foreman, size, 3, 11) {
			fs, err := e.EncodeFrame(f)
			if err != nil {
				t.Fatal(err)
			}
			rec := e.Reconstruction()
			same("Y", fs.PSNRY, f.Y, rec.Y)
			same("Cb", fs.PSNRCb, f.Cb, rec.Cb)
			same("Cr", fs.PSNRCr, f.Cr, rec.Cr)
			if i == 0 {
				// A frame against itself reports the cap, as PSNR does.
				y, _, _ := jobPSNR(&frameJob{src: f, recon: f})
				same("identical", y, f.Y, f.Y)
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	a, b := frame.NewPlane(352, 288), frame.NewPlanePadded(352, 288, 16)
	rng.Read(a.Pix)
	for y := 0; y < b.H; y++ {
		rng.Read(b.Row(y))
	}
	for _, isa := range metrics.KernelISAs() {
		restore, err := metrics.SetKernelISA(isa)
		if err != nil {
			t.Fatal(err)
		}
		y, _, _ := jobPSNR(&frameJob{src: &frame.Frame{Y: a, Cb: a, Cr: a}, recon: &frame.Frame{Y: b, Cb: b, Cr: b}})
		restore()
		same(isa+" noise", y, a, b)
	}
}

// TestRowOnlyRate pins what the column test inside
// dct.ForwardQuantizeInter is for, on the cell TestZeroBlockGateRate uses:
// of the blocks that survive the zero-block gate and are transformed, more
// than half must be settled by the row pass alone — every coefficient
// column proved dead, no column pass run (measured 60.5 % here; nearly all
// of the rest run exactly one column, so 95 % of this cell's columns are
// dead). Those blocks are uncoded, so they and the coded ones are disjoint
// subsets of the transformed ones.
func TestRowOnlyRate(t *testing.T) {
	frames := video.Generate(video.Carphone, frame.QCIF, 30, 2005)
	st, _, err := EncodeSequence(Config{Qp: 30, Searcher: core.New(core.DefaultParams), Workers: 1}, frames)
	if err != nil {
		t.Fatal(err)
	}
	transformed, rowOnly, coded := 0, 0, 0
	for i, f := range st.Frames {
		if f.RowOnlyBlocks+f.CodedBlocks > f.TransformedBlocks {
			t.Fatalf("frame %d: row-only %d + coded %d exceed transformed %d", i, f.RowOnlyBlocks, f.CodedBlocks, f.TransformedBlocks)
		}
		transformed += f.TransformedBlocks
		rowOnly += f.RowOnlyBlocks
		coded += f.CodedBlocks
	}
	share := float64(rowOnly) / float64(transformed)
	t.Logf("transformed blocks %d: row pass only %d (%.1f%%), coded %d", transformed, rowOnly, 100*share, coded)
	if share < 0.55 {
		t.Fatalf("the row pass settled %.1f%% of gate-surviving blocks on Carphone@30, want ≥ 55%%", 100*share)
	}
}
