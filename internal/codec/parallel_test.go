package codec

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/search"
	"repro/internal/video"
)

// multiLaneSize is the test geometry of the parallel suites: 11×12
// macroblocks, the smallest QCIF-wide frame the lane rule (frameLanes)
// gives two lanes on a shared Config.Pool, where QCIF itself analyses on
// one.
var multiLaneSize = frame.Size{W: 176, H: 192}

// parallelFrames builds a seeded synthetic multiLaneSize sequence with real
// motion, some flat (skip-prone) area and a texture step, so every
// macroblock mode — skip, inter, intra — shows up in the P-frames.
func parallelFrames(n int) []*frame.Frame {
	mk := func(t int) *frame.Frame {
		f := frame.NewFrame(multiLaneSize)
		for y := 0; y < f.Y.H; y++ {
			for x := 0; x < f.Y.W; x++ {
				switch {
				case y < 48: // translating texture
					f.Y.Set(x, y, uint8((x+2*t)*5+(y+t)*3))
				case x < 80: // flat, static
					f.Y.Set(x, y, 96)
				default: // flickering texture: drives intra decisions
					f.Y.Set(x, y, uint8((x*x+y*y*7+t*61)%253))
				}
			}
		}
		for y := 0; y < f.Cb.H; y++ {
			for x := 0; x < f.Cb.W; x++ {
				f.Cb.Set(x, y, uint8(118+(x+t)%20))
				f.Cr.Set(x, y, uint8(140-(y+2*t)%20))
			}
		}
		return f
	}
	out := make([]*frame.Frame, n)
	for t := range out {
		out[t] = mk(t)
	}
	return out
}

// encodeWith encodes the shared sequence with the given worker count and
// returns bitstream, sequence stats and ACBM stats.
func encodeWith(t *testing.T, workers int, cfg Config) ([]byte, *SequenceStats, core.Stats) {
	t.Helper()
	acbm := core.New(core.DefaultParams)
	cfg.Searcher = acbm
	cfg.Workers = workers
	stats, bs, err := EncodeSequence(cfg, parallelFrames(6))
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return bs, stats, acbm.Stats()
}

// TestLaneRule pins how many lanes a frame runs on. On a shared
// Config.Pool: one per 64 macroblocks up to the pool's size — QCIF one
// however large the pool, multiLaneSize and CIF two on Pool(2), CIF six at
// most. Without one: min(Workers, the default pool's size), helpers from
// the default pool, QCIF included. Never more lanes than rows, never fewer
// than one.
func TestLaneRule(t *testing.T) {
	def := defaultPool().Size()
	pools := map[int]*Pool{}
	for _, n := range []int{1, 2, 8, 64} {
		pools[n] = NewPool(n)
		defer pools[n].Close()
	}
	for _, tc := range []struct {
		size          frame.Size
		pool, workers int // pool 0: no Config.Pool
		want          int
	}{
		{frame.QCIF, 2, 0, 1}, {frame.QCIF, 8, 0, 1}, {frame.SQCIF, 8, 0, 1},
		{multiLaneSize, 1, 0, 1}, {multiLaneSize, 2, 0, 2}, {multiLaneSize, 8, 0, 2},
		{frame.CIF, 1, 0, 1}, {frame.CIF, 2, 0, 2}, {frame.CIF, 64, 0, 6},
		{frame.Size{W: 16 * 64, H: 16}, 8, 0, 1}, // one row: one lane
		{frame.QCIF, 2, 4, 1},                    // Workers is ignored beside a pool
		{frame.QCIF, 0, 0, 1}, {frame.QCIF, 0, 1, 1},
		{frame.QCIF, 0, 2, min(2, def)}, {frame.QCIF, 0, 64, min(9, def)},
		{frame.SQCIF, 0, 64, min(6, def)},
		{frame.CIF, 0, 4, min(4, def)},
		{frame.Size{W: 16 * 64, H: 16}, 0, 4, 1},
	} {
		pool := pools[tc.pool]
		cols, rows := tc.size.MacroblockCols(), tc.size.MacroblockRows()
		got, n := frameLanes(pool, tc.workers, cols, rows)
		if n != tc.want {
			t.Errorf("%dx%d, pool %d, workers %d: %d lanes, want %d", tc.size.W, tc.size.H, tc.pool, tc.workers, n, tc.want)
		}
		switch {
		case pool != nil && got != pool:
			t.Errorf("%dx%d: helpers left Config.Pool", tc.size.W, tc.size.H)
		case pool == nil && tc.workers > 1 && got != defaultPool():
			t.Errorf("%dx%d, workers %d: helpers not on the default pool", tc.size.W, tc.size.H, tc.workers)
		}
	}
}

// encoderLanes encodes frames on a fresh encoder for cfg and returns how
// many lanes its last frame ran on.
func encoderLanes(t *testing.T, cfg Config, frames []*frame.Frame) int {
	t.Helper()
	e := NewEncoder(cfg)
	for _, f := range frames {
		if _, err := e.EncodeFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	e.Bitstream()
	return len(e.lanes)
}

// TestParallelEncoderBitIdentical is the golden guarantee of the wavefront
// design: for every worker count the bitstream, the per-frame statistics
// and the merged ACBM statistics must be byte-for-byte what the
// sequential encoder produces. Run with -race in CI (see Makefile) to
// also certify the scheduling.
func TestParallelEncoderBitIdentical(t *testing.T) {
	for _, cfg := range []Config{
		{Qp: 14, IntraPeriod: 3},
		{Qp: 22, Entropy: EntropyArith},
	} {
		refBS, refStats, refACBM := encodeWith(t, 1, cfg)
		for _, workers := range []int{2, 4, 7} {
			bs, stats, acbm := encodeWith(t, workers, cfg)
			if !bytes.Equal(bs, refBS) {
				t.Errorf("cfg=%+v workers=%d: bitstream differs from sequential (%d vs %d bytes)",
					cfg, workers, len(bs), len(refBS))
			}
			if !reflect.DeepEqual(stats, refStats) {
				t.Errorf("cfg=%+v workers=%d: sequence stats differ\n got %+v\nwant %+v", cfg, workers, stats, refStats)
			}
			if acbm != refACBM {
				t.Errorf("cfg=%+v workers=%d: ACBM stats differ\n got %+v\nwant %+v", cfg, workers, acbm, refACBM)
			}
		}
	}
}

// TestFSBMLaneSumsBitIdentical holds the full search's per-lane box-sum
// caches to the sequential bytes and statistics: each lane fills the tiles
// its own blocks need from a cache reset every P-frame, so a CIF Foreman
// encode at Workers 2 and 4 on the default pool, and on four lanes of a
// shared Pool(4), must equal Workers 1. Under -race (make test) this is
// also the proof that no lane touches another's cache.
func TestFSBMLaneSumsBitIdentical(t *testing.T) {
	frames := video.Generate(video.Foreman, frame.CIF, 3, 7)
	pool := NewPool(4)
	defer pool.Close()
	encode := func(workers int, pool *Pool) ([]byte, *SequenceStats) {
		stats, bs, err := EncodeSequence(Config{Qp: 16, Searcher: &search.FSBM{}, Workers: workers, Pool: pool}, frames)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return bs, stats
	}
	refBS, refStats := encode(1, nil)
	for _, tc := range []struct {
		workers int
		pool    *Pool
	}{{2, nil}, {4, nil}, {4, pool}} {
		bs, stats := encode(tc.workers, tc.pool)
		if !bytes.Equal(bs, refBS) {
			t.Errorf("workers=%d pool=%v: bitstream differs from sequential (%d vs %d bytes)", tc.workers, tc.pool != nil, len(bs), len(refBS))
		}
		if !reflect.DeepEqual(stats, refStats) {
			t.Errorf("workers=%d pool=%v: sequence stats differ\n got %+v\nwant %+v", tc.workers, tc.pool != nil, stats, refStats)
		}
	}
	if got := encoderLanes(t, Config{Qp: 16, Searcher: &search.FSBM{}, Workers: 4, Pool: pool}, frames[:2]); got != 4 {
		t.Errorf("shared Pool(4) analysed CIF on %d lanes, want 4", got)
	}
}

// TestParallelDecodesToSameFrames checks the parallel encoder's stream
// stays decodable and reconstructs exactly the encoder's reference loop.
func TestParallelDecodesToSameFrames(t *testing.T) {
	acbm := core.New(core.DefaultParams)
	e := NewEncoder(Config{Qp: 16, Searcher: acbm, Workers: 4})
	var lastRecon *frame.Frame
	for _, f := range parallelFrames(4) {
		if _, err := e.EncodeFrame(f); err != nil {
			t.Fatal(err)
		}
		lastRecon = e.Reconstruction()
	}
	frames, err := Decode(e.Bitstream())
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 4 {
		t.Fatalf("decoded %d frames, want 4", len(frames))
	}
	if !frames[3].Equal(lastRecon) {
		t.Error("decoded frame 3 differs from encoder reconstruction")
	}
}

// TestPipelineBitIdentical is the golden guarantee of the cross-frame
// pipeline: for every Table 1 profile and for Workers ∈ {1, 4}, the
// pipelined EncodeSequence must produce the byte-for-byte bitstream and
// statistics of a sequential EncodeFrame loop. Run with -race in CI (see
// Makefile) to also certify the analysis/entropy overlap. The clips are
// multiLaneSize, so Workers=4 analyses on two lanes.
func TestPipelineBitIdentical(t *testing.T) {
	for _, prof := range video.Profiles {
		frames := video.Generate(prof, multiLaneSize, 4, 7)
		// Serial reference: an explicit EncodeFrame loop.
		ref := NewEncoder(Config{Qp: 16, Searcher: core.New(core.DefaultParams), Workers: 1})
		for _, f := range frames {
			if _, err := ref.EncodeFrame(f); err != nil {
				t.Fatalf("%v: %v", prof, err)
			}
		}
		refBS := ref.Bitstream()
		refStats := ref.Stats()
		for _, workers := range []int{1, 4} {
			stats, bs, err := EncodeSequence(Config{
				Qp: 16, Searcher: core.New(core.DefaultParams),
				Workers: workers, Pipeline: true,
			}, frames)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", prof, workers, err)
			}
			if !bytes.Equal(bs, refBS) {
				t.Errorf("%v workers=%d: pipelined bitstream differs from serial (%d vs %d bytes)",
					prof, workers, len(bs), len(refBS))
			}
			if !reflect.DeepEqual(stats, refStats) {
				t.Errorf("%v workers=%d: pipelined stats differ\n got %+v\nwant %+v",
					prof, workers, stats, refStats)
			}
		}
	}
}

// TestPipelineModesAndRateControl covers the pipeline's edge configs: the
// arithmetic entropy backend (whose coder state spans frame boundaries),
// intra periods — and rate control, where the pipeline must
// degrade to serial and still match exactly.
func TestPipelineModesAndRateControl(t *testing.T) {
	frames := parallelFrames(6)
	for _, cfg := range []Config{
		{Qp: 14, IntraPeriod: 3},
		{Qp: 22, Entropy: EntropyArith},
		{Qp: 16, TargetKbps: 80, FPS: 30},
	} {
		serial := cfg
		serial.Workers = 1
		_, refBS, err := EncodeSequence(serial, frames)
		if err != nil {
			t.Fatal(err)
		}
		piped := cfg
		piped.Pipeline = true
		piped.Workers = 4
		_, bs, err := EncodeSequence(piped, frames)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bs, refBS) {
			t.Errorf("cfg=%+v: pipelined bitstream differs (%d vs %d bytes)", cfg, len(bs), len(refBS))
		}
	}
}

// TestPipelineFlushSemantics pins the engine's finalise in pipeline
// mode: Bitstream is idempotent, EncodeFrame after it fails, and the
// decoder reconstructs a pipelined stream exactly.
func TestPipelineFlushSemantics(t *testing.T) {
	frames := parallelFrames(3)
	e := NewEncoder(Config{Qp: 16, Workers: 2, Pipeline: true})
	for _, f := range frames {
		if _, err := e.EncodeFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	bs := e.Bitstream()
	if stats := e.Stats(); len(stats.Frames) != 3 {
		t.Fatalf("stats cover %d frames, want 3", len(stats.Frames))
	}
	if bs2 := e.Bitstream(); !bytes.Equal(bs, bs2) {
		t.Fatal("Bitstream not idempotent")
	}
	if _, err := e.EncodeFrame(frames[0]); err == nil {
		t.Fatal("EncodeFrame after Bitstream did not fail")
	}
	decoded, err := Decode(bs)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 3 {
		t.Fatalf("decoded %d frames, want 3", len(decoded))
	}
}

// noForkSearcher is a minimal external searcher that does not implement
// search.Forker, standing in for out-of-module implementations. (No
// embedding: promoted FSBM methods would satisfy Forker.)
type noForkSearcher struct{ f search.FSBM }

func (n *noForkSearcher) Name() string { return "no-fork" }

func (n *noForkSearcher) Search(in *search.Input) search.Result { return n.f.Search(in) }

// TestWorkerCountForkers verifies that every searcher the module provides
// — including the stateful core.Budgeted, whose per-frame servo now forks
// — analyses in parallel, on min(Workers, the default pool's size) lanes,
// while an external searcher without Fork/Join is
// normalised to sequential analysis (Workers=1, no shared pool) at config
// time.
func TestWorkerCountForkers(t *testing.T) {
	bd, err := core.NewBudgeted(150, core.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	frames := parallelFrames(2)
	for _, tc := range []struct {
		s    search.Searcher
		want int
	}{
		{bd, 5},
		{core.New(core.DefaultParams), 5},
		{&search.FSBM{}, 5},
		{&search.PBM{}, 5},
		{&search.TSS{}, 5},
		{&search.Diamond{}, 5},
		{&search.RCFSBM{}, 5},
		{&noForkSearcher{}, 1},
	} {
		e := NewEncoder(Config{Qp: 16, Searcher: tc.s, Workers: 5})
		if got := e.cfg.Workers; got != tc.want {
			t.Errorf("%s: Workers=%d, want %d", tc.s.Name(), got, tc.want)
		}
		wantLanes := min(tc.want, defaultPool().Size())
		if got := encoderLanes(t, Config{Qp: 16, Searcher: tc.s, Workers: 5}, frames[:2]); got != wantLanes {
			t.Errorf("%s: analysed on %d lanes, want %d", tc.s.Name(), got, wantLanes)
		}
	}
	// The pool is likewise dropped for non-Forker searchers: the session
	// encodes sequentially on its own goroutine instead.
	pool := NewPool(2)
	defer pool.Close()
	e := NewEncoder(Config{Qp: 16, Searcher: &noForkSearcher{}, Pool: pool, Workers: 5})
	if e.cfg.Pool != nil {
		t.Error("non-Forker searcher kept the shared pool")
	}
	for _, f := range frames {
		if _, err := e.EncodeFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Decode(e.Bitstream()); err != nil {
		t.Fatalf("sequential non-Forker encode undecodable: %v", err)
	}
}

// TestDecisionMixMatchesACBMStats holds FrameStats' decision mix to the
// searcher's own account of it: over the whole executor matrix — inline,
// private workers, workers + pipeline, shared pool — the per-frame
// Easy/GoodMatch/Critical counts must sum to core.ACBM.Stats() exactly
// (intra-decided macroblocks of P-frames included: ACBM classified them
// before the mode decision overruled the vector), cover every P-frame
// macroblock, stay zero on I-frames, and be the same numbers, frame by
// frame, in every mode. A searcher that does not classify reports zeros.
func TestDecisionMixMatchesACBMStats(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	frames := video.Generate(video.Carphone, frame.QCIF, 7, 2005)
	var ref *SequenceStats
	for _, cfg := range []Config{
		{Workers: 1},
		{Workers: 4},
		{Workers: 4, Pipeline: true},
		{Pool: pool},
	} {
		acbm := core.New(core.DefaultParams)
		cfg.Qp, cfg.IntraPeriod, cfg.Searcher = 24, 4, acbm
		stats, _, err := EncodeSequence(cfg, frames)
		if err != nil {
			t.Fatal(err)
		}
		easy, good, crit := stats.DecisionMix()
		want := acbm.Stats()
		if easy != want.Easy || good != want.GoodMatch || crit != want.CriticalCnt {
			t.Errorf("workers=%d pipeline=%v pool=%v: decision mix %d/%d/%d, ACBM stats %d/%d/%d",
				cfg.Workers, cfg.Pipeline, cfg.Pool != nil, easy, good, crit, want.Easy, want.GoodMatch, want.CriticalCnt)
		}
		if easy == 0 || good == 0 || crit == 0 {
			t.Errorf("degenerate mix %d/%d/%d: the clip no longer exercises every class", easy, good, crit)
		}
		for i, f := range stats.Frames {
			n := f.EasyBlocks + f.GoodMatchBlocks + f.CriticalBlocks
			if f.Type == IFrame && n != 0 || f.Type == PFrame && n != f.Macroblocks {
				t.Errorf("frame %d (%v): %d classified blocks of %d macroblocks", i, f.Type, n, f.Macroblocks)
			}
		}
		if ref == nil {
			ref = stats
		} else if !reflect.DeepEqual(stats, ref) {
			t.Errorf("workers=%d pipeline=%v pool=%v: stats differ from the inline encode", cfg.Workers, cfg.Pipeline, cfg.Pool != nil)
		}
	}

	stats, _, err := EncodeSequence(Config{Qp: 24, Searcher: &search.PBM{}}, frames[:3])
	if err != nil {
		t.Fatal(err)
	}
	if easy, good, crit := stats.DecisionMix(); easy+good+crit != 0 {
		t.Errorf("PBM reported a decision mix %d/%d/%d", easy, good, crit)
	}
}
