package codec

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/video"
)

// zoomOutClip renders n frames of a smooth texture shrinking towards the
// frame centre. Content at the border came from further out in the
// previous frame, so border macroblocks want vectors pointing outwards —
// which Legal allows the inner 8×8 blocks of a macroblock but not the
// outer ones. That divergence is what four-vector mode is for, and the
// averaged vector it hands the chroma planes then reads past the plane
// edge, into the reference's apron.
func zoomOutClip(size frame.Size, n int) []*frame.Frame {
	tex := func(u, v float64) uint8 {
		s := 128 + 50*math.Sin(u/5.3) + 40*math.Sin(v/4.1+u/17) + 30*math.Sin((u+v)/2.9)
		return frame.ClampU8(int(s))
	}
	frames := make([]*frame.Frame, n)
	for t := range frames {
		f := frame.NewFrame(size)
		scale := 1 + 0.03*float64(t)
		fill := func(p *frame.Plane, sub float64) {
			cx, cy := float64(p.W)/2, float64(p.H)/2
			for y := 0; y < p.H; y++ {
				for x := 0; x < p.W; x++ {
					p.Set(x, y, tex(sub*(cx+(float64(x)-cx)*scale), sub*(cy+(float64(y)-cy)*scale)))
				}
			}
		}
		fill(f.Y, 1)
		fill(f.Cb, 2)
		fill(f.Cr, 2)
		frames[t] = f
	}
	return frames
}

// inPlaceCoverage counts, over the P-frames of one encode, the macroblock
// shapes the in-place prediction route distinguishes.
type inPlaceCoverage struct {
	oneVector, fourVector, skip, intraInP int
	// chromaApron counts inter macroblocks whose chroma fetch reads at
	// least one sample outside the reference plane.
	chromaApron int
	// gated/rowOnly/coded are the residual path's three exits.
	gated, rowOnly, coded int
}

// TestInPlacePredictionRoute drives the predict-in-place residual route
// through every macroblock shape it distinguishes — one 16×16 fetch
// (one-vector and skipped macroblocks), four 8×8 fetches (four-vector
// mode), no fetch at all (intra macroblocks inside a P-frame), chroma
// fetches that reach the reference's apron — and through every exit of the
// residual path, under each executor: inline, private workers, workers +
// pipeline, shared pool. Every run must produce the inline run's bytes and
// its whole FrameStats (the Gated/Transformed/RowOnly/Coded traffic
// included), and the decoder, which predicts through the same function
// from vectors it parsed, must reproduce every frame's reconstruction byte
// for byte. Each clip asserts it still exercises what it is in the table
// for.
func TestInPlacePredictionRoute(t *testing.T) {
	cut := append(video.Generate(video.Carphone, frame.SQCIF, 3, 5), video.Generate(video.TableTennis, frame.SQCIF, 3, 5)...)
	clips := []struct {
		name   string
		frames []*frame.Frame
		cfg    Config
		covers func(c inPlaceCoverage) bool
	}{
		{"one-vector and skip", video.Generate(video.Carphone, frame.QCIF, 5, 2005), Config{Qp: 24},
			func(c inPlaceCoverage) bool {
				return c.oneVector > 0 && c.skip > 0 && c.gated > 0 && c.rowOnly > 0 && c.coded > 0
			}},
		{"four-vector", video.Generate(video.TableTennis, frame.SQCIF, 5, 1), Config{Qp: 8, AdvancedPrediction: true},
			func(c inPlaceCoverage) bool { return c.fourVector > 0 && c.oneVector > 0 && c.coded > 0 }},
		{"intra in P", cut, Config{Qp: 16, AdvancedPrediction: true},
			func(c inPlaceCoverage) bool { return c.intraInP > 0 && c.oneVector > 0 }},
		{"chroma reaches the apron", zoomOutClip(frame.SQCIF, 4), Config{Qp: 6, AdvancedPrediction: true, Deblock: true},
			func(c inPlaceCoverage) bool { return c.chromaApron > 0 && c.fourVector > 0 }},
	}
	pool := NewPool(2)
	defer pool.Close()
	for _, clip := range clips {
		t.Run(clip.name, func(t *testing.T) {
			cfg := clip.cfg
			cfg.Searcher, cfg.Workers = core.New(core.DefaultParams), 1

			// The inline reference, driven phase by phase so the analysis
			// results can be inspected before they are recycled.
			e := NewEncoder(cfg)
			cols := clip.frames[0].Size().MacroblockCols()
			var cov inPlaceCoverage
			var recons []*frame.Frame
			for _, f := range clip.frames {
				j, err := e.analyzeFrameJob(f)
				if err != nil {
					t.Fatal(err)
				}
				for idx := range j.results {
					if j.intra {
						break
					}
					r := &j.results[idx]
					switch {
					case r.mode == mbIntra:
						cov.intraInP++
						continue
					case r.mode == mbSkip:
						cov.skip++
					case r.four:
						cov.fourVector++
					default:
						cov.oneVector++
					}
					cmv := chromaMV(r.mv)
					if r.four {
						cmv = chromaMV(avgMV(r.subMV))
					}
					hx, hy := 16*(idx%cols)+cmv.X, 16*(idx/cols)+cmv.Y
					if !j.prevRef.Cb.InBounds(hx>>1, hy>>1, 8+hx&1, 8+hy&1) {
						cov.chromaApron++
					}
				}
				recons = append(recons, j.recon.Clone())
				e.writeFrame(j)
				e.frameHandoff(j)
			}
			want := e.Bitstream()
			wantStats := e.Stats()
			for _, fs := range wantStats.Frames {
				cov.gated += fs.GatedBlocks
				cov.rowOnly += fs.RowOnlyBlocks
				cov.coded += fs.CodedBlocks
			}
			if !clip.covers(cov) {
				t.Fatalf("clip no longer exercises what it is here for: %+v", cov)
			}
			t.Logf("%+v", cov)

			decoded, err := Decode(want)
			if err != nil {
				t.Fatal(err)
			}
			if len(decoded) != len(recons) {
				t.Fatalf("decoded %d frames, encoded %d", len(decoded), len(recons))
			}
			for i := range decoded {
				if !decoded[i].Equal(recons[i]) {
					t.Fatalf("frame %d: decoder reconstruction differs from the encoder's", i)
				}
			}

			for _, ex := range []Config{{Workers: 4}, {Workers: 4, Pipeline: true}, {Pool: pool}} {
				cfg := clip.cfg
				cfg.Searcher = core.New(core.DefaultParams)
				cfg.Workers, cfg.Pipeline, cfg.Pool = ex.Workers, ex.Pipeline, ex.Pool
				enc := NewEncoder(cfg)
				for i, f := range clip.frames {
					if _, err := enc.EncodeFrame(f); err != nil {
						t.Fatal(err)
					}
					// Analysis of frame i is complete when EncodeFrame returns,
					// pipelined or not, so its reconstruction is final.
					if !enc.Reconstruction().Equal(recons[i]) {
						t.Fatalf("workers=%d pipeline=%v pool=%v: frame %d reconstruction differs from the inline encode",
							ex.Workers, ex.Pipeline, ex.Pool != nil, i)
					}
				}
				if got := enc.Bitstream(); !bytes.Equal(got, want) {
					t.Fatalf("workers=%d pipeline=%v pool=%v: stream differs from the inline encode", ex.Workers, ex.Pipeline, ex.Pool != nil)
				}
				if !reflect.DeepEqual(enc.Stats(), wantStats) {
					t.Fatalf("workers=%d pipeline=%v pool=%v: FrameStats differ from the inline encode", ex.Workers, ex.Pipeline, ex.Pool != nil)
				}
			}
		})
	}
}
