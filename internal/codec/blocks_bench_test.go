package codec

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dct"
	"repro/internal/frame"
	"repro/internal/mvfield"
	"repro/internal/video"
)

// BenchmarkCodeInterBlocks times the residual route of one inter
// macroblock — prediction in place, then six blocks through the gate, the
// row pass, the column test and, if coded, the reconstruction — with every
// block of the macroblock forced down the exit the sub-benchmark names.
// ns/op is ns per macroblock.
//
//   - gated: the source is the prediction; all six blocks stop at the
//     zero-block gate. This is 86 % of the adaptive cells' blocks.
//   - rowonly: the residual is one column of ±40 per block — above the
//     block bound, but spread over the eight coefficient columns so each
//     stays below it: six row passes, no column pass.
//   - coded: a ±60 checkerboard; every block is transformed, quantised,
//     dequantised, inverse-transformed and stored.
func BenchmarkCodeInterBlocks(b *testing.B) {
	const qp = 30
	size := frame.QCIF
	cols, rows := size.MacroblockCols(), size.MacroblockRows()
	e := NewEncoder(Config{Qp: qp, Searcher: core.New(core.DefaultParams), Workers: 1})
	if _, err := e.EncodeFrame(video.Generate(video.Carphone, size, 1, 7)[0]); err != nil {
		b.Fatal(err)
	}
	ref := e.recon
	recon := frame.GetFramePadded(size, frame.MinInterpApron, frame.MinInterpApron)
	defer recon.Release()

	// predicted renders the source whose residual against vector mv is
	// delta(x, y) everywhere (clamped to 8 bits).
	predicted := func(mv mvfield.MV, delta func(x, y int) int) *frame.Frame {
		src := frame.NewFrame(size)
		padded := frame.GetFramePadded(size, frame.MinInterpApron, frame.MinInterpApron)
		defer padded.Release()
		for mby := 0; mby < rows; mby++ {
			for mbx := 0; mbx < cols; mbx++ {
				predictInterMB(padded, ref, mbx, mby, mv)
			}
		}
		for _, pl := range [][2]*frame.Plane{{src.Y, padded.Y}, {src.Cb, padded.Cb}, {src.Cr, padded.Cr}} {
			for y := 0; y < pl[0].H; y++ {
				for x := 0; x < pl[0].W; x++ {
					pl[0].Set(x, y, frame.ClampU8(int(pl[1].At(x, y))+delta(x, y)))
				}
			}
		}
		return src
	}
	cases := []struct {
		name                   string
		mv                     mvfield.MV
		delta                  func(x, y int) int
		gated, rowOnly, nCoded int
	}{
		{"gated", mvfield.MV{X: 2, Y: -2}, func(x, y int) int { return 0 }, 6, 0, 0},
		{"rowonly", mvfield.MV{X: 2, Y: -2}, func(x, y int) int {
			if x%8 == 3 {
				return 40 - 80*(y&1)
			}
			return 0
		}, 0, 6, 0},
		{"coded", mvfield.MV{X: 2, Y: -2}, func(x, y int) int { return 60 - 120*((x+y)&1) }, 0, 0, 6},
	}
	var sc mbScratch
	var r mbResult
	for _, c := range cases {
		src := predicted(c.mv, c.delta)
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Interior macroblocks, so saturation at the frame's dark and
				// bright extremes is the same every run.
				mbx, mby := 1+i%(cols-2), 1+i/(cols-2)%(rows-2)
				e.codeInterBlocks(&sc, &r, src, recon, mbx, mby, c.mv)
			}
			b.StopTimer()
			// Every interior macroblock must take the named exit, or the
			// number is not the one the name promises.
			for mby := 1; mby < rows-1; mby++ {
				for mbx := 1; mbx < cols-1; mbx++ {
					e.codeInterBlocks(&sc, &r, src, recon, mbx, mby, c.mv)
					coded := 0
					for _, cd := range r.coded {
						if cd {
							coded++
						}
					}
					if r.gated != c.gated || r.rowOnly != c.rowOnly || coded != c.nCoded {
						b.Fatalf("MB (%d,%d): gated %d rowOnly %d coded %d, want %d/%d/%d (bound %d)",
							mbx, mby, r.gated, r.rowOnly, coded, c.gated, c.rowOnly, c.nCoded, dct.InterZeroBound(qp))
					}
				}
			}
		})
	}
}

// BenchmarkAnalyzeIntraMB times the intra route of one macroblock — six
// row passes against the zero block, the DC column and the AC columns
// above dct.IntraZeroBound, dequantisation, inverse transform and store —
// per content class. ns/op is ns per macroblock.
//
//   - carphone: the first frame of the Carphone clip at Qp 30, the I-frame
//     every adaptive_serial cell opens with.
//   - flat: mid-grey; every AC column is settled by its row-pass energy.
//   - noise: uniform random samples; every column runs.
func BenchmarkAnalyzeIntraMB(b *testing.B) {
	const qp = 30
	size := frame.QCIF
	cols, rows := size.MacroblockCols(), size.MacroblockRows()
	e := NewEncoder(Config{Qp: qp, Searcher: core.New(core.DefaultParams), Workers: 1})
	e.curQp = qp
	recon := frame.GetFramePadded(size, frame.MinInterpApron, frame.MinInterpApron)
	defer recon.Release()
	fill := func(fn func(x, y int) uint8) *frame.Frame {
		f := frame.NewFrame(size)
		for _, p := range []*frame.Plane{f.Y, f.Cb, f.Cr} {
			for y := 0; y < p.H; y++ {
				for x := 0; x < p.W; x++ {
					p.Set(x, y, fn(x, y))
				}
			}
		}
		return f
	}
	cases := []struct {
		name string
		src  *frame.Frame
	}{
		{"carphone", video.Generate(video.Carphone, size, 1, 7)[0]},
		{"flat", fill(func(x, y int) uint8 { return 128 })},
		{"noise", fill(func(x, y int) uint8 { return uint8(uint32(x*7919+y*104729) * 2654435761 >> 13) })},
	}
	var sc mbScratch
	var r mbResult
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.analyzeIntraMB(&sc, c.src, recon, i%cols, i/cols%rows, &r)
			}
		})
	}
}
