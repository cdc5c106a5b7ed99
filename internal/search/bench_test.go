package search

import (
	"testing"

	"repro/internal/frame"
	"repro/internal/mvfield"
	"repro/internal/video"
)

// pbmField runs p over every macroblock of cur against ref in raster
// order, as the encoder does, and returns the resulting motion field.
func pbmField(p *PBM, cur, ref *frame.Plane, prev *mvfield.Field) *mvfield.Field {
	cols, rows := cur.W/16, cur.H/16
	f := mvfield.NewField(cols, rows)
	for mby := 0; mby < rows; mby++ {
		for mbx := 0; mbx < cols; mbx++ {
			in := &Input{
				Cur: cur, Ref: ref, BX: 16 * mbx, BY: 16 * mby, W: 16, H: 16, Range: 15, Qp: 16,
				CurField: f, PrevField: prev, MBX: mbx, MBY: mby,
			}
			f.Set(mbx, mby, p.Search(in).MV)
		}
	}
	return f
}

// BenchmarkPBMSearch times PBM.Search per macroblock with the context the
// encoder gives it — the blocks of a QCIF P-frame, causal spatial
// predictors from this frame's field and temporal ones from the previous
// frame's — split by what decides a block's cost: interior blocks (full
// window, ring half-pel refinement), border blocks (clipped window,
// per-probe half-pel refinement) and a flat frame pair where every
// candidate ties and the descent stops at once. Reports ns/block and
// points/block (Table 1's metric, which must not move with the route).
func BenchmarkPBMSearch(b *testing.B) {
	seq := video.Generate(video.Foreman, frame.QCIF, 3, 2005)
	flat := frame.NewPlane(frame.QCIF.W, frame.QCIF.H)
	flat.Fill(77)
	cols, rows := frame.QCIF.MacroblockCols(), frame.QCIF.MacroblockRows()
	border := func(mbx, mby int) bool { return mbx == 0 || mby == 0 || mbx == cols-1 || mby == rows-1 }

	p := &PBM{}
	prev := pbmField(p, seq[1].Y, seq[0].Y, nil)
	for _, bc := range []struct {
		name     string
		cur, ref *frame.Plane
		want     func(mbx, mby int) bool
	}{
		{"interior", seq[2].Y, seq[1].Y, func(mbx, mby int) bool { return !border(mbx, mby) }},
		{"border", seq[2].Y, seq[1].Y, border},
		{"flat", flat, flat, func(int, int) bool { return true }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			// PBM reads only causal entries of the current field, so the
			// finished field gives every block the context it had when
			// the raster pass reached it.
			curField := pbmField(p, bc.cur, bc.ref, prev)
			in := new(Input)
			blocks, points := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for mby := 0; mby < rows; mby++ {
					for mbx := 0; mbx < cols; mbx++ {
						if !bc.want(mbx, mby) {
							continue
						}
						*in = Input{
							Cur: bc.cur, Ref: bc.ref, BX: 16 * mbx, BY: 16 * mby, W: 16, H: 16, Range: 15, Qp: 16,
							CurField: curField, PrevField: prev, MBX: mbx, MBY: mby,
						}
						points += p.Search(in).Points
						blocks++
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(blocks), "ns/block")
			b.ReportMetric(float64(points)/float64(blocks), "points/block")
		})
	}
}
