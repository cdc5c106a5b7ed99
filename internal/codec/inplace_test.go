package codec

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/video"
)

// inPlaceCoverage counts, over the P-frames of one encode, the macroblock
// shapes the in-place prediction route distinguishes.
type inPlaceCoverage struct {
	oneVector, skip, intraInP int
	// gated/rowOnly/coded are the residual path's three exits.
	gated, rowOnly, coded int
}

// TestInPlacePredictionRoute drives the predict-in-place residual route
// through every macroblock shape it distinguishes — one 16×16 fetch
// (one-vector and skipped macroblocks), no fetch at all (intra macroblocks
// inside a P-frame) — and through every exit of the residual path, under
// each executor: inline, private workers, workers + pipeline, shared pool.
// Every run must produce the inline run's bytes and its whole FrameStats
// (the Gated/Transformed/RowOnly/Coded traffic included), and the decoder,
// which predicts through the same function from vectors it parsed, must
// reproduce every frame's reconstruction byte for byte. Each clip asserts
// it still exercises what it is in the table for.
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
		{"intra in P", cut, Config{Qp: 16},
			func(c inPlaceCoverage) bool { return c.intraInP > 0 && c.oneVector > 0 }},
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
					switch j.results[idx].mode {
					case mbIntra:
						cov.intraInP++
					case mbSkip:
						cov.skip++
					default:
						cov.oneVector++
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
