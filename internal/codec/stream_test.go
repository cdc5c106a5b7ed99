package codec

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/leakcheck"
	"repro/internal/search"
	"repro/internal/video"
)

// packetsEqual reports whether two packet sequences are byte-identical.
func packetsEqual(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestPacketsPipelineBitIdentical pins the packet path to the PR 1/PR 2
// machinery: EncodePackets must produce byte-identical packets for every
// Workers count, with and without the cross-frame pipeline, and on a
// shared Pool — the packets counterpart of TestPipelineBitIdentical. The
// per-frame statistics must match as well: the residual-path counters
// (gated / transformed / coded blocks) merge additively from the
// per-macroblock results, so scheduling cannot move them.
func TestPacketsPipelineBitIdentical(t *testing.T) {
	frames := video.Generate(video.Foreman, multiLaneSize, 8, 3) // two lanes at Workers=4
	profiles := []struct {
		name string
		cfg  Config
	}{
		{"acbm", Config{Qp: 14, Searcher: core.New(core.DefaultParams)}},
		{"fsbm-arith", Config{Qp: 16, Searcher: &search.FSBM{}, Entropy: EntropyArith}},
		{"pbm-gop", Config{Qp: 12, Searcher: &search.PBM{}, IntraPeriod: 4}},
	}
	for _, p := range profiles {
		cfg := p.cfg
		cfg.Workers = 1
		cfg.Searcher = reforge(t, p.cfg)
		ref, refStats, err := EncodePackets(cfg, frames)
		if err != nil {
			t.Fatalf("%s serial: %v", p.name, err)
		}
		for _, workers := range []int{1, 4} {
			for _, pipeline := range []bool{false, true} {
				cfg := p.cfg
				cfg.Workers = workers
				cfg.Pipeline = pipeline
				cfg.Searcher = reforge(t, p.cfg)
				got, stats, err := EncodePackets(cfg, frames)
				if err != nil {
					t.Fatalf("%s workers=%d pipeline=%v: %v", p.name, workers, pipeline, err)
				}
				if !packetsEqual(ref, got) {
					t.Fatalf("%s workers=%d pipeline=%v: packets differ from serial", p.name, workers, pipeline)
				}
				if !reflect.DeepEqual(stats.Frames, refStats.Frames) {
					t.Fatalf("%s workers=%d pipeline=%v: frame stats differ from serial\n got %+v\nwant %+v",
						p.name, workers, pipeline, stats.Frames, refStats.Frames)
				}
			}
		}
		checkResidualCounters(t, p.name, refStats)
		// Shared-pool analysis (the vcodecd serving mode) must match too.
		pool := NewPool(3)
		cfg = p.cfg
		cfg.Pool = pool
		cfg.Pipeline = true
		cfg.Searcher = reforge(t, p.cfg)
		got, stats, err := EncodePackets(cfg, frames)
		pool.Close()
		if err != nil {
			t.Fatalf("%s pool: %v", p.name, err)
		}
		if !packetsEqual(ref, got) {
			t.Fatalf("%s: shared-pool packets differ from serial", p.name)
		}
		if !reflect.DeepEqual(stats.Frames, refStats.Frames) {
			t.Fatalf("%s: shared-pool frame stats differ from serial\n got %+v\nwant %+v", p.name, stats.Frames, refStats.Frames)
		}
	}
}

// checkResidualCounters asserts the bookkeeping identities of the
// residual-path counters on every frame, and that the sequence exercised
// both sides of the zero-block gate.
func checkResidualCounters(t *testing.T, name string, stats *SequenceStats) {
	t.Helper()
	gated, transformed := 0, 0
	for i, f := range stats.Frames {
		if got, want := f.GatedBlocks+f.TransformedBlocks, 6*(f.SkipMBs+f.InterMBs); got != want {
			t.Fatalf("%s frame %d: gated %d + transformed %d = %d, want 6·(skip+inter) = %d",
				name, i, f.GatedBlocks, f.TransformedBlocks, got, want)
		}
		if f.CodedBlocks > f.TransformedBlocks {
			t.Fatalf("%s frame %d: %d coded blocks but only %d transformed", name, i, f.CodedBlocks, f.TransformedBlocks)
		}
		gated += f.GatedBlocks
		transformed += f.TransformedBlocks
	}
	if gated == 0 || transformed == 0 {
		t.Fatalf("%s: gated %d, transformed %d — the sequence must cross the gate both ways", name, gated, transformed)
	}
}

// reforge returns a fresh searcher equivalent to the profile's (encoders
// must not share a stateful searcher across runs).
func reforge(t *testing.T, cfg Config) search.Searcher {
	t.Helper()
	switch s := cfg.Searcher.(type) {
	case *core.ACBM:
		return core.New(s.Params)
	case *search.FSBM:
		return &search.FSBM{}
	case *search.PBM:
		return &search.PBM{}
	}
	t.Fatalf("unknown searcher %T", cfg.Searcher)
	return nil
}

// TestEncodeStreamIncremental drives the session API directly: packets
// must arrive in order, one per EncodeFrame (serial mode), each decodable
// the moment it is emitted — the property the serving layer's first-packet
// latency rests on.
func TestEncodeStreamIncremental(t *testing.T) {
	frames := video.Generate(video.Carphone, frame.SQCIF, 5, 1)
	var (
		dec     *PacketDecoder
		decoded int
		emitted []int
	)
	s := NewEncodeStream(Config{Qp: 16}, func(p Packet) error {
		emitted = append(emitted, p.Index)
		if p.Index == 0 {
			d, err := NewPacketDecoder(p.Data)
			if err != nil {
				return err
			}
			dec = d
			return nil
		}
		if p.Stats.Bits != 8*len(p.Data) {
			return fmt.Errorf("packet %d: stats bits %d for %d bytes", p.Index, p.Stats.Bits, len(p.Data))
		}
		f, err := dec.DecodePacket(p.Data)
		if err != nil {
			return err
		}
		if f.Size() != frame.SQCIF {
			return fmt.Errorf("packet %d: decoded size %v", p.Index, f.Size())
		}
		decoded++
		return nil
	})
	for i, f := range frames {
		if err := s.EncodeFrame(f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		// Serial mode: the packet (and, first, the header) must have been
		// emitted before EncodeFrame returned.
		if want := i + 2; len(emitted) != want {
			t.Fatalf("after frame %d: %d packets emitted, want %d", i, len(emitted), want)
		}
	}
	stats, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if decoded != len(frames) || len(stats.Frames) != len(frames) {
		t.Fatalf("decoded %d, stats %d, want %d", decoded, len(stats.Frames), len(frames))
	}
	for i, idx := range emitted {
		if idx != i {
			t.Fatalf("emit order %v", emitted)
		}
	}
	if _, err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := s.EncodeFrame(frames[0]); err == nil {
		t.Fatal("EncodeFrame accepted after Close")
	}
}

// analyzedCounter is a FrameObserver counting completed analyses.
type analyzedCounter struct{ n atomic.Int32 }

func (c *analyzedCounter) FrameAnalyzed(int, time.Duration, time.Duration, time.Duration, bool, int) {
	c.n.Add(1)
}
func (c *analyzedCounter) FrameWritten(int, time.Duration, int) {}

// TestEncodeStreamEmitError checks an emit failure poisons the stream in
// both serial and pipeline mode: later EncodeFrames and Close surface it,
// and once an EncodeFrame has returned it no further frame is analysed —
// the engine checks the poison before analysis, not after.
func TestEncodeStreamEmitError(t *testing.T) {
	frames := video.Generate(video.Foreman, frame.SQCIF, 6, 2)
	boom := fmt.Errorf("consumer gone")
	for _, pipeline := range []bool{false, true} {
		n := 0
		var analyzed analyzedCounter
		s := NewEncodeStream(Config{Qp: 16, Pipeline: pipeline, Observer: &analyzed}, func(p Packet) error {
			n++
			if n > 3 {
				return boom
			}
			return nil
		})
		var encodeErr error
		atErr := int32(-1)
		for _, f := range frames {
			if err := s.EncodeFrame(f); err != nil && encodeErr == nil {
				encodeErr, atErr = err, analyzed.n.Load()
			}
		}
		_, closeErr := s.Close()
		if closeErr != boom {
			t.Fatalf("pipeline=%v: Close error %v, want %v", pipeline, closeErr, boom)
		}
		if encodeErr != boom {
			t.Fatalf("pipeline=%v: EncodeFrame error %v, want %v", pipeline, encodeErr, boom)
		}
		if got := analyzed.n.Load(); got != atErr {
			t.Fatalf("pipeline=%v: %d frames analysed, %d when EncodeFrame first returned the poison", pipeline, got, atErr)
		}
		if !pipeline && atErr != 3 {
			t.Fatalf("serial: poison surfaced after %d analyses, want 3 (the frame whose emit failed)", atErr)
		}
	}
}

// expectNoLeakedGoroutines is leakcheck.Snapshot with the process-default
// pool started first: its workers outlive every session by design, and the
// check is about what a session started.
func expectNoLeakedGoroutines(t *testing.T) func() {
	t.Helper()
	defaultPool()
	return leakcheck.Snapshot(t)
}

// TestEngineNoGoroutineLeak: after the finalise nothing the engine or a
// ladder started is left running — on success, after an emit error and
// after an analysis error (the frame size changing mid-stream), inline
// and pipelined, in both framings.
func TestEngineNoGoroutineLeak(t *testing.T) {
	frames := video.Generate(video.Foreman, frame.Size{W: 64, H: 64}, 4, 2)
	odd := frame.NewFrame(frame.SQCIF)
	boom := fmt.Errorf("consumer gone")
	emitter := func(failAfter int) func(Packet) error {
		n := 0
		return func(Packet) error {
			if n++; failAfter > 0 && n > failAfter {
				return boom
			}
			return nil
		}
	}
	paths := []struct {
		name      string
		failAfter int          // emit calls that succeed; 0 = all
		last      *frame.Frame // appended to frames when non-nil
		wantErr   bool
	}{
		{"success", 0, nil, false},
		{"emit-error", 2, nil, true},
		{"analysis-error", 0, odd, true},
	}
	for _, pipeline := range []bool{false, true} {
		for _, p := range paths {
			name := fmt.Sprintf("%s pipeline=%v", p.name, pipeline)
			in := frames
			if p.last != nil {
				in = append(in[:len(in):len(in)], p.last)
			}
			cfg := Config{Qp: 16, Workers: 2, Pipeline: pipeline, Searcher: &search.PBM{}}

			check := expectNoLeakedGoroutines(t)
			if p.failAfter == 0 { // the contiguous stream has no emit to fail
				_, _, err := EncodeSequence(cfg, in)
				if (err != nil) != p.wantErr {
					t.Fatalf("%s: EncodeSequence error %v", name, err)
				}
				check()
			}

			s := NewEncodeStream(cfg, emitter(p.failAfter))
			var err error
			for _, f := range in {
				if err = s.EncodeFrame(f); err != nil {
					break
				}
			}
			if _, cerr := s.Close(); err == nil {
				err = cerr
			}
			if (err != nil) != p.wantErr {
				t.Fatalf("%s: stream error %v", name, err)
			}
			check()

			emit := emitter(p.failAfter)
			l, err := NewLadderStream(ladderTestRungs(func(c *Config) { c.Workers, c.Pipeline = 2, pipeline }),
				func(_ int, p Packet) error { return emit(p) })
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range in {
				if err = l.EncodeFrame(f); err != nil {
					break
				}
			}
			if _, cerr := l.Close(); err == nil {
				err = cerr
			}
			if (err != nil) != p.wantErr {
				t.Fatalf("%s: ladder error %v", name, err)
			}
			check()
		}
	}
}

// TestEncodeStreamRateControl: the frame-lag rate controller must keep
// the pipeline overlap through the streaming API — no serial degradation
// — while the packets stay decodable and byte-identical to a serial
// rate-controlled stream.
func TestEncodeStreamRateControl(t *testing.T) {
	frames := video.Generate(video.TableTennis, frame.SQCIF, 10, 3)
	var ref [][]byte
	serial := NewEncodeStream(Config{Qp: 14, FPS: 30, TargetKbps: 40}, func(p Packet) error {
		ref = append(ref, p.Data)
		return nil
	})
	for i, f := range frames {
		if err := serial.EncodeFrame(f); err != nil {
			t.Fatalf("serial frame %d: %v", i, err)
		}
	}
	if _, err := serial.Close(); err != nil {
		t.Fatal(err)
	}

	var pkts [][]byte
	s := NewEncodeStream(Config{Qp: 14, FPS: 30, TargetKbps: 40, Pipeline: true}, func(p Packet) error {
		pkts = append(pkts, p.Data)
		return nil
	})
	if s.e.jobs == nil {
		t.Fatal("rate-controlled stream degraded to serial")
	}
	for i, f := range frames {
		if err := s.EncodeFrame(f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	stats, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.BitrateKbps() <= 0 {
		t.Fatal("no rate recorded")
	}
	if !packetsEqual(ref, pkts) {
		t.Fatal("pipelined rate-controlled packets differ from serial")
	}
	dec, err := NewPacketDecoder(pkts[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pkts); i++ {
		if _, err := dec.DecodePacket(pkts[i]); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
	}
}

// TestSharedPoolConcurrentSessions runs several sessions on one Pool at
// once (the vcodecd scheduling model) and checks every session's packets
// are byte-identical to the serial encode. Run under -race by make test.
func TestSharedPoolConcurrentSessions(t *testing.T) {
	const sessions = 4
	frames := video.Generate(video.Foreman, frame.SQCIF, 6, 5)
	ref, _, err := EncodePackets(Config{Qp: 14, Workers: 1, Searcher: core.New(core.DefaultParams)}, frames)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(3)
	defer pool.Close()
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, _, err := EncodePackets(Config{
				Qp: 14, Pool: pool, Pipeline: true,
				Searcher: core.New(core.DefaultParams),
			}, frames)
			if err != nil {
				errs[i] = err
				return
			}
			if !packetsEqual(ref, got) {
				errs[i] = fmt.Errorf("session %d: packets differ from serial", i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestPacketFramingRoundTrip: the uvarint container must reproduce index
// and payload exactly, tolerate gaps, and reject implausible records.
func TestPacketFramingRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	pw := NewPacketWriter(&buf)
	payloads := map[int][]byte{0: {1, 2, 3}, 1: {}, 3: bytes.Repeat([]byte{0xAB}, 300)}
	for _, idx := range []int{0, 1, 3} { // index 2 deliberately missing
		if err := pw.WritePacket(idx, payloads[idx]); err != nil {
			t.Fatal(err)
		}
	}
	pr := NewPacketReader(&buf)
	var got []int
	for {
		idx, data, err := pr.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, payloads[idx]) {
			t.Fatalf("index %d: payload mismatch", idx)
		}
		got = append(got, idx)
	}
	if fmt.Sprint(got) != "[0 1 3]" {
		t.Fatalf("indices %v", got)
	}

	// Truncated payload must not be a clean EOF.
	var trunc bytes.Buffer
	if err := NewPacketWriter(&trunc).WritePacket(0, []byte{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	b := trunc.Bytes()[:trunc.Len()-1]
	pr = NewPacketReader(bytes.NewReader(b))
	if _, _, err := pr.ReadPacket(); err == nil || err == io.EOF {
		t.Fatalf("truncated payload: err = %v", err)
	}

	// A record claiming a huge payload must be rejected before allocating.
	pr = NewPacketReader(bytes.NewReader([]byte{
		0x00,                               // index 0
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, // length ≫ maxFramedPacket
	}))
	if _, _, err := pr.ReadPacket(); err == nil {
		t.Fatal("implausible length accepted")
	}
	if err := NewPacketWriter(io.Discard).WritePacket(-1, nil); err == nil {
		t.Fatal("negative index accepted")
	}
}

// TestSourceRecycledAfterNextFrame pins the source lifetime vcodecd's
// sessions recycle by: frame n is overwritten with a poison pattern the
// moment EncodeFrame returns for frame n+1, and the last frame once the
// session is finalised (Bitstream, Close). Bytes and per-frame statistics
// (PSNR reads the source in phase 2) must equal an unpoisoned encode, in
// both framings, inline and pipelined; under -race the writer's PSNR read
// and the poison would be flagged if the lifetime were shorter.
func TestSourceRecycledAfterNextFrame(t *testing.T) {
	frames := video.Generate(video.Foreman, frame.QCIF, 6, 11)
	poison := func(f *frame.Frame) {
		for _, p := range []*frame.Plane{f.Y, f.Cb, f.Cr} {
			for i := range p.Pix {
				p.Pix[i] = uint8(0xA5 ^ i)
			}
		}
	}
	// encode runs one session over copies of frames, poisoning each copy
	// at the end of its lifetime when recycle is set.
	encode := func(cfg Config, packets, recycle bool) ([]byte, []FrameStats) {
		src := make([]*frame.Frame, len(frames))
		for i, f := range frames {
			src[i] = f.Clone()
		}
		var out bytes.Buffer
		var encodeFrame func(*frame.Frame) error
		var finish func() []FrameStats
		if packets {
			s := NewEncodeStream(cfg, func(p Packet) error {
				out.Write(p.Data)
				return nil
			})
			encodeFrame = s.EncodeFrame
			finish = func() []FrameStats {
				st, err := s.Close()
				if err != nil {
					t.Fatal(err)
				}
				return st.Frames
			}
		} else {
			e := NewEncoder(cfg)
			encodeFrame = func(f *frame.Frame) error { _, err := e.EncodeFrame(f); return err }
			finish = func() []FrameStats {
				out.Write(e.Bitstream())
				return e.Stats().Frames
			}
		}
		for i, f := range src {
			if err := encodeFrame(f); err != nil {
				t.Fatal(err)
			}
			if recycle && i > 0 {
				poison(src[i-1])
			}
		}
		stats := finish()
		if recycle {
			poison(src[len(src)-1])
		}
		return out.Bytes(), stats
	}
	for _, packets := range []bool{false, true} {
		for _, pipeline := range []bool{false, true} {
			name := fmt.Sprintf("packets=%v/pipeline=%v", packets, pipeline)
			cfg := Config{Qp: 16, Searcher: core.New(core.DefaultParams), Workers: 1, Pipeline: pipeline}
			want, wantStats := encode(cfg, packets, false)
			cfg.Searcher = core.New(core.DefaultParams)
			got, stats := encode(cfg, packets, true)
			if !bytes.Equal(got, want) {
				t.Errorf("%s: recycling sources moved the bytes", name)
			}
			if !reflect.DeepEqual(stats, wantStats) {
				t.Errorf("%s: recycling sources moved the statistics\n got %+v\nwant %+v", name, stats, wantStats)
			}
		}
	}
}
