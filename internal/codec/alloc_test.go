package codec

import (
	"sync"
	"testing"

	"repro/internal/frame"
	"repro/internal/search"
	"repro/internal/video"
)

// TestEncodeFrameAllocCeiling pins the steady-state allocations per
// encoded P-frame, pools warm, for each of the wavefront's configurations.
// Serial: the padded-apron substrate brought the frame to ~10
// allocations (motion field, frame job, statistics growth) plus the
// wavefront's own four (schedule state, row counters, lane state, the
// macroblock callback); predicting straight from the reference plane
// took away the three half-pel views a frame used to draw (13.2 measured,
// from 15.8, and the ceilings came down by as much). Helper lanes add a
// task chain each (Workers=2, and Pool(2) on CIF), a shared pool's session
// goroutine its slot-grant channel, and nothing is allocated per row, per
// macroblock or per slot acquire — QCIF runs one lane on a shared pool,
// so its Pool(2) rows pay no chain. The contended row runs three QCIF sessions at once on one Pool(2), so its
// session goroutines queue for slots. The ceilings leave headroom for
// noise while failing loudly on a regression to per-row or per-macroblock
// cost: one closure per macroblock on the pool path, which went unnoticed
// while only Workers=1 was pinned, is ≥ 99 allocations per QCIF frame.
// Each row also checks how many lanes its frames ran on. Run by `make
// bench-smoke` and the regular test suite.
func TestEncodeFrameAllocCeiling(t *testing.T) {
	qcif := video.Generate(video.Foreman, frame.QCIF, 12, 77)
	cif := video.Generate(video.Foreman, frame.CIF, 12, 77)
	pool := NewPool(2)
	defer pool.Close()
	// Workers=2 takes two lanes where the default pool has two workers.
	workers2 := min(2, defaultPool().Size())
	for _, m := range []struct {
		name     string
		cfg      Config
		frames   []*frame.Frame
		sessions int
		lanes    int
		ceiling  float64
	}{
		{"workers1", Config{Workers: 1}, qcif, 1, 1, 37},
		{"workers2", Config{Workers: 2}, qcif, 1, workers2, 45},
		{"pool2", Config{Pool: pool}, qcif, 1, 1, 53},
		{"cif/workers2", Config{Workers: 2}, cif, 1, workers2, 45},
		{"cif/pool2", Config{Pool: pool}, cif, 1, 2, 53},
		{"pool2/3sessions", Config{Pool: pool}, qcif, 3, 1, 53},
	} {
		lanes := make([]int, m.sessions)
		run := func() {
			var wg sync.WaitGroup
			for i := range lanes {
				wg.Add(1)
				go func() {
					defer wg.Done()
					cfg := m.cfg
					cfg.Qp, cfg.Searcher = 16, &search.PBM{}
					e := NewEncoder(cfg)
					for _, f := range m.frames {
						if _, err := e.EncodeFrame(f); err != nil {
							t.Error(err)
							return
						}
					}
					e.Bitstream()
					lanes[i] = len(e.lanes)
				}()
			}
			wg.Wait()
		}
		run() // warm the size-bucketed pools

		perFrame := testing.AllocsPerRun(3, run) / float64(m.sessions*len(m.frames))
		t.Logf("%s: allocs/frame = %.1f (ceiling %.0f)", m.name, perFrame, m.ceiling)
		if perFrame > m.ceiling {
			t.Errorf("%s: EncodeFrame allocates %.1f objects/frame, above the pinned ceiling of %.0f — "+
				"a pooled buffer or scratch reuse has regressed, or the scheduler allocates per row or macroblock",
				m.name, perFrame, m.ceiling)
		}
		for i, n := range lanes {
			if n != m.lanes {
				t.Errorf("%s: session %d analysed on %d lanes, want %d", m.name, i, n, m.lanes)
			}
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
