package codec

import (
	"testing"

	"repro/internal/frame"
	"repro/internal/search"
	"repro/internal/video"
)

// TestEncodeFrameAllocCeiling pins the steady-state allocations per
// encoded QCIF P-frame, pools warm, for each of the wavefront's executors.
// Serial: the padded-apron substrate brought the frame to ~10
// allocations (motion field, frame job, statistics growth) plus the
// wavefront's own four (schedule state, row counters, lane state, the
// macroblock callback); predicting straight from the reference plane
// took away the three half-pel views a frame used to draw (13.2 measured,
// from 15.8, and the ceilings came down by as much). The parallel executors add O(lanes) — a goroutine
// and its closure per private lane, a task chain per pool lane — and
// nothing per row or per macroblock. The ceilings leave headroom for
// noise while failing loudly on a regression to per-macroblock cost: one
// closure per macroblock on the pool path, which went unnoticed while
// only Workers=1 was pinned, is ≥ 99 allocations per QCIF frame. Run by
// `make bench-smoke` and the regular test suite.
func TestEncodeFrameAllocCeiling(t *testing.T) {
	frames := video.Generate(video.Foreman, frame.QCIF, 12, 77)
	pool := NewPool(2)
	defer pool.Close()
	for _, m := range []struct {
		name    string
		cfg     Config
		ceiling float64
	}{
		{"workers1", Config{Workers: 1}, 37},
		{"workers2", Config{Workers: 2}, 45},
		{"pool2", Config{Pool: pool}, 53},
	} {
		run := func() {
			cfg := m.cfg
			cfg.Qp, cfg.Searcher = 16, &search.PBM{}
			e := NewEncoder(cfg)
			for _, f := range frames {
				if _, err := e.EncodeFrame(f); err != nil {
					t.Fatal(err)
				}
			}
			e.Bitstream()
		}
		run() // warm the size-bucketed pools

		perFrame := testing.AllocsPerRun(3, run) / float64(len(frames))
		t.Logf("%s: allocs/frame = %.1f (ceiling %.0f)", m.name, perFrame, m.ceiling)
		if perFrame > m.ceiling {
			t.Errorf("%s: EncodeFrame allocates %.1f objects/frame, above the pinned ceiling of %.0f — "+
				"a pooled buffer or scratch reuse has regressed, or the scheduler allocates per row or macroblock",
				m.name, perFrame, m.ceiling)
		}
	}
}

// TestDecodeFrameAllocCeiling pins the decoder's allocations per QCIF
// frame, the decoder's own setup included: 11.7 measured, over twelve
// Foreman frames (the frame handed to the caller, the motion field of a P
// frame, the reader's state). The ceiling fails loudly on anything per
// macroblock or per block: a block of levels escaping to the heap through
// the kernel table's indirect call (metrics.InverseAdd), which a per-call
// stack dct.Block would do, costs one object per intra macroblock (99 in
// a QCIF intra frame, ~8 a frame over this clip) plus one per coded
// inter macroblock.
func TestDecodeFrameAllocCeiling(t *testing.T) {
	frames := video.Generate(video.Foreman, frame.QCIF, 12, 77)
	_, data, err := EncodeSequence(Config{Qp: 16, Searcher: &search.PBM{}, Workers: 1}, frames)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		d, err := NewDecoder(data)
		if err != nil {
			t.Fatal(err)
		}
		for d.More() {
			f, err := d.DecodeFrame()
			if err != nil {
				t.Fatal(err)
			}
			f.Release()
		}
	}
	run() // warm the size-bucketed pools
	const ceiling = 15
	perFrame := testing.AllocsPerRun(3, run) / float64(len(frames))
	t.Logf("allocs/frame = %.1f (ceiling %d)", perFrame, ceiling)
	if perFrame > ceiling {
		t.Errorf("DecodeFrame allocates %.1f objects/frame, above the pinned ceiling of %d — "+
			"a block or macroblock buffer has started to escape to the heap", perFrame, ceiling)
	}
}
