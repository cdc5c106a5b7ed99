package codec

import (
	"bytes"
	"runtime"
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

// TestObserverQueueWaitOnPool checks the pool queue-wait channel: the time
// a ready row waited for the pool, summed per frame, with the worst single
// wait as the stall (never more than the sum). Two sources feed it. A
// helper chain's task reports the time from its submission — the moment it
// was ready to run — to its pick-up by a worker, once it claims a row:
// multiLaneSize frames, two lanes on Pool(2) and on the default pool
// behind Workers=2, report a wait on some frame (a task always spends some
// measurable time between submit and pick-up). The session goroutine,
// lane 0, reports how long it queued for a slot of a shared pool: a QCIF
// session on Pool(2), one lane, whose slots are held by long tasks
// reports at least the time they were held on its first frame, and
// exactly zero on every frame of an idle pool — as does every frame
// analysed inline (Workers=1).
func TestObserverQueueWaitOnPool(t *testing.T) {
	qcif := video.Generate(video.Carphone, frame.QCIF, 3, 7)
	multi := parallelFrames(3)
	pool := NewPool(2)
	defer pool.Close()
	encode := func(name string, cfg Config, frames []*frame.Frame) []obs.FrameEvent {
		rec := obs.NewFlightRecorder("wait", obs.Meta{}, 0)
		cfg.Qp, cfg.Searcher, cfg.Observer = 16, core.New(core.DefaultParams), rec
		if _, _, err := EncodeSequence(cfg, frames); err != nil {
			t.Fatal(err)
		}
		evs := rec.Snapshot().Events
		for _, ev := range evs {
			if ev.StallMs > ev.QueueWaitMs {
				t.Errorf("%s frame %d: max stall %v exceeds summed wait %v", name, ev.Index, ev.StallMs, ev.QueueWaitMs)
			}
		}
		return evs
	}

	// Every slot held: the session's first row queues until release.
	release := hold(pool)
	done := make(chan []obs.FrameEvent)
	go func() { done <- encode("held pool", Config{Pool: pool}, qcif) }()
	for queuedLanes(pool) == 0 {
		runtime.Gosched()
	}
	queued := time.Now()
	time.Sleep(5 * time.Millisecond)
	held := time.Since(queued)
	release()
	evs := <-done
	if got := time.Duration(evs[0].QueueWaitMs * float64(time.Millisecond)); got < held {
		t.Errorf("frame 0 waited %v behind a held pool, reported %v", held, got)
	}
	if evs[0].StallMs <= 0 {
		t.Errorf("frame 0 waited behind a held pool, max stall %v", evs[0].StallMs)
	}

	drain(pool)
	for _, m := range []struct {
		name   string
		cfg    Config
		frames []*frame.Frame
	}{
		{"idle pool", Config{Pool: pool}, qcif},
		{"workers=1", Config{Workers: 1}, qcif},
		{"workers=1/multi", Config{Workers: 1}, multi},
	} {
		for _, ev := range encode(m.name, m.cfg, m.frames) {
			if ev.QueueWaitMs != 0 || ev.StallMs != 0 {
				t.Errorf("%s frame %d: queue wait %v, stall %v, want exactly 0", m.name, ev.Index, ev.QueueWaitMs, ev.StallMs)
			}
		}
	}

	// Helper chains. One worker in the default pool (a one-CPU host)
	// leaves Workers=2 one lane: no chain, no wait.
	for _, m := range []struct {
		name string
		cfg  Config
		want bool
	}{
		{"pool2/multi", Config{Pool: pool}, true},
		{"workers=2/multi", Config{Workers: 2}, defaultPool().Size() > 1},
	} {
		sawWait := false
		// A chain only reports once it claims a row, and on a busy host the
		// caller can finish a whole clip first: give it a few clips.
		for try := 0; try == 0 || try < 50 && sawWait != m.want; try++ {
			for _, ev := range encode(m.name, m.cfg, multi) {
				if ev.QueueWaitMs > 0 {
					sawWait = true
				}
			}
		}
		if sawWait != m.want {
			t.Errorf("%s: queue wait reported = %v, want %v", m.name, sawWait, m.want)
		}
	}
}

// TestRecorderOverheadGuard bounds the flight recorder's cost: the
// best-of-5 per-frame encode time with a live recorder attached may exceed
// the nil-observer baseline, best of five rounds interleaved with the
// recorder's, by at most a quarter of that baseline, or 200µs if that is
// more. The recorder does a handful of atomic stores per
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
		start := time.Now()
		if _, _, err := EncodeSequence(Config{
			Qp: 16, Searcher: core.New(core.DefaultParams), Workers: 2, Observer: ob,
		}, frames); err != nil {
			t.Fatal(err)
		}
		return time.Since(start) / time.Duration(len(frames))
	}
	// The arms alternate round by round, so a change in the host's speed
	// lands on both rather than on whichever ran second.
	rec := obs.NewFlightRecorder("guard", obs.Meta{}, 0)
	baseline, recorded := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < 5; i++ {
		baseline = min(baseline, encode(nil))
		recorded = min(recorded, encode(rec))
	}
	bound := max(baseline/4, 200*time.Microsecond)
	t.Logf("nil %v/frame, recorder %v/frame, bound %v", baseline, recorded, bound)
	if overhead := recorded - baseline; overhead > bound {
		t.Errorf("recorder overhead %v/frame exceeds the %v bound (nil %v, recorder %v)",
			overhead, bound, baseline, recorded)
	}
}
