package codec

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/video"
)

// TestObserverByteIdentity is the flight recorder's core invariant:
// attaching an observer (a real obs.FlightRecorder) must not change a
// single output bit in any Workers/Pipeline/Pool mode — the recorder
// observes phase boundaries, it never participates in a decision.
func TestObserverByteIdentity(t *testing.T) {
	frames := parallelFrames(6)
	cfgs := []Config{
		{Qp: 14, IntraPeriod: 3},
		{Qp: 16, TargetKbps: 80, FPS: 30},
	}
	for _, base := range cfgs {
		ref := base
		ref.Workers = 1
		ref.Searcher = core.New(core.DefaultParams)
		_, refBS, err := EncodeSequence(ref, frames)
		if err != nil {
			t.Fatal(err)
		}
		pool := NewPool(4)
		modes := []struct {
			name string
			mut  func(*Config)
		}{
			{"serial", func(c *Config) { c.Workers = 1 }},
			{"workers", func(c *Config) { c.Workers = 4 }},
			{"pipeline", func(c *Config) { c.Workers = 4; c.Pipeline = true }},
			{"pool", func(c *Config) { c.Pool = pool }},
			{"pool+pipeline", func(c *Config) { c.Pool = pool; c.Pipeline = true }},
		}
		for _, m := range modes {
			rec := obs.NewFlightRecorder("t", obs.Meta{}, 0)
			cfg := base
			cfg.Searcher = core.New(core.DefaultParams)
			cfg.Observer = rec
			m.mut(&cfg)
			stats, bs, err := EncodeSequence(cfg, frames)
			if err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			if !bytes.Equal(bs, refBS) {
				t.Errorf("cfg=%+v %s: bitstream differs with observer attached (%d vs %d bytes)",
					base, m.name, len(bs), len(refBS))
			}
			// The recorder saw every frame, with the true per-frame sizes.
			snap := rec.Snapshot()
			if snap.Frames != len(frames) {
				t.Errorf("%s: recorder saw %d frames, want %d", m.name, snap.Frames, len(frames))
			}
			for i, ev := range snap.Events {
				if ev.Bits != stats.Frames[i].Bits || ev.Qp != stats.Frames[i].Qp {
					t.Errorf("%s frame %d: recorder bits/qp %d/%d, stats %d/%d",
						m.name, i, ev.Bits, ev.Qp, stats.Frames[i].Bits, stats.Frames[i].Qp)
				}
				if (ev.Index == 0) != ev.Intra && base.IntraPeriod == 0 {
					t.Errorf("%s frame %d: intra flag %v", m.name, i, ev.Intra)
				}
			}
		}
		pool.Close()
	}
}

// TestObserverQueueWaitOnPool checks the pool queue-wait channel. Its unit
// is the row task: each task that claims a row reports the time from its
// own submission — the moment it was ready to run — to its pick-up by a
// pool worker, so a frame's sum covers one wait per row a chain ran and
// the stall is the worst of them (never more than the sum). Frames on a
// shared Config.Pool report a wait (a task always spends some measurable
// time between submit and pick-up); so do Workers=2 frames, whose chains
// wait on the process-default pool; Workers=1 frames run inline, submit
// nothing and report exactly zero.
func TestObserverQueueWaitOnPool(t *testing.T) {
	frames := parallelFrames(3)
	pool := NewPool(2)
	defer pool.Close()

	rec := obs.NewFlightRecorder("pool", obs.Meta{}, 0)
	_, _, err := EncodeSequence(Config{
		Qp: 16, Searcher: core.New(core.DefaultParams), Pool: pool, Observer: rec,
	}, frames)
	if err != nil {
		t.Fatal(err)
	}
	var sawWait bool
	for _, ev := range rec.Snapshot().Events {
		if ev.QueueWaitMs > 0 {
			sawWait = true
		}
		if ev.StallMs > ev.QueueWaitMs {
			t.Errorf("frame %d: max stall %v exceeds summed wait %v", ev.Index, ev.StallMs, ev.QueueWaitMs)
		}
	}
	if !sawWait {
		t.Error("pool-mode encode reported zero queue wait on every frame")
	}

	// One worker in the default pool (a one-CPU host) leaves Workers=2
	// nobody to hand a chain to: it runs inline too.
	for _, workers := range []int{1, 2} {
		want := workers > 1 && defaultPool().Size() > 1
		sawWait = false
		// A chain only reports once it claims a row, and on a busy host the
		// caller can finish a whole QCIF clip first: give it a few clips.
		for try := 0; try == 0 || try < 50 && sawWait != want; try++ {
			rec = obs.NewFlightRecorder("default", obs.Meta{}, 0)
			_, _, err = EncodeSequence(Config{
				Qp: 16, Searcher: core.New(core.DefaultParams), Workers: workers, Observer: rec,
			}, frames)
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range rec.Snapshot().Events {
				if ev.QueueWaitMs > 0 {
					sawWait = true
				}
				if ev.StallMs > ev.QueueWaitMs {
					t.Errorf("workers=%d frame %d: max stall %v exceeds summed wait %v", workers, ev.Index, ev.StallMs, ev.QueueWaitMs)
				}
			}
		}
		if sawWait != want {
			t.Errorf("workers=%d: queue wait reported = %v, want %v", workers, sawWait, want)
		}
	}
}

// TestRecorderOverheadGuard bounds the flight recorder's cost: the
// best-of-5 per-frame encode time with a live recorder attached may exceed
// the nil-observer baseline by at most a quarter of that baseline, or
// 200µs if that is more. The recorder does a handful of atomic stores per
// frame (~tens of ns), so the bound holds with orders of magnitude to
// spare while staying immune to scheduler noise; it exists to catch an
// accidental allocation or lock creeping into the observe path. The bound
// is relative so that it means the same on every kernel tier and GOARCH —
// an absolute one tripped on the pure-Go 386 leg, where a frame takes
// ~7ms — and the floor keeps a sub-millisecond frame's scheduler jitter
// from reading as overhead. Run by make bench-smoke.
func TestRecorderOverheadGuard(t *testing.T) {
	if raceEnabled {
		// The race detector slows the encoder ~20x and adds several ms of
		// per-run jitter. The guard is a perf check, not a correctness
		// check — TestObserverByteIdentity and TestRecorderConcurrent cover
		// the raced paths.
		t.Skip("wall-clock overhead bound is noise under -race")
	}
	frames := video.Generate(video.Foreman, frame.SQCIF, 8, 7)
	encode := func(ob FrameObserver) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 5; i++ {
			start := time.Now()
			if _, _, err := EncodeSequence(Config{
				Qp: 16, Searcher: core.New(core.DefaultParams), Workers: 2, Observer: ob,
			}, frames); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best / time.Duration(len(frames))
	}
	baseline := encode(nil)
	recorded := encode(obs.NewFlightRecorder("guard", obs.Meta{}, 0))
	bound := max(baseline/4, 200*time.Microsecond)
	t.Logf("nil %v/frame, recorder %v/frame, bound %v", baseline, recorded, bound)
	if overhead := recorded - baseline; overhead > bound {
		t.Errorf("recorder overhead %v/frame exceeds the %v bound (nil %v, recorder %v)",
			overhead, bound, baseline, recorded)
	}
}
