package codec

import (
	"fmt"
	"time"

	"repro/internal/bitstream"
	"repro/internal/entropy"
	"repro/internal/frame"
	"repro/internal/mvfield"
	"repro/internal/search"
)

// Packet is one unit of the packetized transport: Index 0 carries the
// sequence header, Index i+1 carries frame i. Stats is the zero value for
// the header packet.
type Packet struct {
	Index int
	Data  []byte
	Stats FrameStats
}

// EncodeStream is the streaming encode session: frames go in one at a
// time and each finished frame comes out immediately as an independent
// packet through the emit callback — the first-byte latency of a consumer
// is one frame, not one sequence. It is the unit cmd/vcodecd serves; the
// batch EncodePackets is a thin wrapper around it.
//
// Emit ordering and backpressure: emit is called strictly in packet order
// (header, frame 0, frame 1, …) and synchronously with respect to the
// stream — the next packet is not produced until emit returns. A slow
// consumer therefore throttles the encode instead of growing an unbounded
// queue: in pipeline mode exactly one analysed frame can be in flight
// behind a blocked emit, and in serial mode none.
//
// Pipelining: with Config.Pipeline set, entropy coding of frame n
// overlaps analysis of frame n+1 exactly as in
// codec.Pipeline — EncodeFrame returns once analysis completes and a
// writer goroutine serialises + emits the packet. Packets are
// byte-identical to the serial path for every Workers/Pool setting: each
// packet has private entropy state, and analysis results are worker-count
// invariant (the wavefront guarantee).
//
// Rate control (Config.TargetKbps > 0) composes with all of it: the
// frame-lag controller chooses frame n+1's quantiser at frame n's
// hand-off, from the actual packet sizes of frames 0..n-1 plus a
// predicted size for frame n (see rateController), so rate-controlled
// sessions keep the pipeline overlap and the shared-pool parallelism —
// and emit byte-identical packets in every mode.
//
// An emit error poisons the stream: the pending frame is discarded, every
// later EncodeFrame returns the error, and Close returns it too. The
// source frame passed to EncodeFrame must not be mutated until the frame's
// packet has been emitted (Close at the latest) — PSNR statistics read it
// on the writer goroutine.
type EncodeStream struct {
	e       *Encoder
	emit    func(Packet) error
	overlap bool
	closed  bool

	// pending is the QoS actuation mailbox (see Actuate): drained on the
	// session goroutine at the top of EncodeFrame, so every actuated
	// parameter is fixed before the frame's analysis begins.
	pending pendingActuation

	// Pipeline-mode plumbing. werr is written only by the writer
	// goroutine, before it closes failed; readers observe it through
	// <-failed or <-done.
	jobs   chan *frameJob
	done   chan struct{}
	failed chan struct{}
	werr   error
}

// NewEncodeStream starts a streaming session for cfg; packets are
// delivered to emit. The caller must call Close to release the writer
// goroutine and collect the final statistics.
func NewEncodeStream(cfg Config, emit func(Packet) error) *EncodeStream {
	e := NewEncoder(cfg)
	s := &EncodeStream{e: e, emit: emit, overlap: cfg.Pipeline}
	if s.overlap {
		s.jobs = make(chan *frameJob) // unbuffered: one frame in flight
		s.done = make(chan struct{})
		s.failed = make(chan struct{})
		go func() {
			defer close(s.done)
			for j := range s.jobs {
				if s.werr != nil {
					// Poisoned: drop the frame, recycle its slab.
					putMBResults(j.results)
					j.results = nil
					continue
				}
				if _, err := s.emitJob(j); err != nil {
					s.werr = err
					close(s.failed)
				}
			}
		}()
	}
	return s
}

// EncodeFrame analyses f and queues (pipeline mode) or emits (serial
// mode) its packet. In pipeline mode it returns when analysis is done;
// the packet may still be in flight on the writer goroutine.
func (s *EncodeStream) EncodeFrame(f *frame.Frame) error {
	_, err := s.encodeFrame(f, nil)
	return err
}

// EncodeFrameSeeded is EncodeFrame with a cross-layer motion seed for
// this frame's analysis, returning the frame's final motion field (nil
// for intra frames) so a ladder driver can seed the rung below. The
// returned field is read-only and remains valid: the encoder only ever
// reads it (as the next frame's PrevField) after this call returns.
func (s *EncodeStream) EncodeFrameSeeded(f *frame.Frame, seed search.LayerSeed) (*mvfield.Field, error) {
	return s.encodeFrame(f, seed)
}

func (s *EncodeStream) encodeFrame(f *frame.Frame, seed search.LayerSeed) (*mvfield.Field, error) {
	if s.closed {
		return nil, fmt.Errorf("codec: encode stream closed")
	}
	if s.overlap {
		select {
		case <-s.failed:
			return nil, s.werr
		default:
		}
	}
	if a := s.pending.Swap(nil); a != nil {
		s.e.applyActuation(*a)
	}
	s.e.curSeed = seed
	j, err := s.e.analyzeFrameJob(f)
	s.e.curSeed = nil
	if err != nil {
		return nil, err
	}
	if !s.overlap {
		if s.werr != nil {
			putMBResults(j.results)
			j.results = nil
			return nil, s.werr
		}
		if _, err := s.emitJob(j); err != nil {
			s.werr = err
			return nil, err
		}
		// Frame-lag protocol even though j's bits are already known: the
		// controller must see exactly what a pipelined session would.
		s.e.frameHandoff(j)
		return j.curField, nil
	}
	select {
	case s.jobs <- j:
		s.e.frameHandoff(j)
		return j.curField, nil
	case <-s.failed:
		putMBResults(j.results)
		j.results = nil
		return nil, s.werr
	}
}

// emitJob serialises one analysed frame into its packet and hands it (and,
// first, the header packet before frame 0) to emit.
func (s *EncodeStream) emitJob(j *frameJob) (FrameStats, error) {
	if j.index == 0 {
		if err := s.emit(Packet{Index: 0, Data: s.e.headerPacket()}); err != nil {
			return FrameStats{}, err
		}
	}
	pkt, fs := s.e.writeFramePacket(j)
	return fs, s.emit(Packet{Index: j.index + 1, Data: pkt, Stats: fs})
}

// Close drains the writer goroutine, finalises the session and returns
// the sequence statistics, plus the first emit error if any packet could
// not be delivered. It is idempotent; EncodeFrame must not be called
// afterwards.
func (s *EncodeStream) Close() (*SequenceStats, error) {
	if !s.closed {
		s.closed = true
		if s.overlap {
			close(s.jobs)
			<-s.done
		}
		s.e.rcPrevJob = nil // release the last retained frame pair
	}
	return s.e.Stats(), s.werr
}

// PhaseTimes returns the cumulative analysis/entropy wall clock (see
// Encoder.PhaseTimes). Valid only after Close — before that the writer
// goroutine still owns the entropy counter.
func (s *EncodeStream) PhaseTimes() (analysis, entropy time.Duration) {
	if !s.closed {
		panic("codec: EncodeStream.PhaseTimes before Close")
	}
	return s.e.PhaseTimes()
}

// headerPacket builds packet 0: the sequence header (size + entropy
// mode). Valid once the first frame has been analysed (e.size is set).
func (e *Encoder) headerPacket() []byte {
	var hw bitstream.Writer
	hw.WriteBits(Magic, 32)
	entropy.WriteUE(&hw, uint32(e.size.W/16))
	entropy.WriteUE(&hw, uint32(e.size.H/16))
	hw.WriteBits(uint64(e.cfg.Entropy), 1)
	return hw.Bytes()
}

// writeFramePacket runs phase 2 for an analysed frame in packet mode: a
// fresh per-packet syntax writer — no sequence header, no continuation
// flags — serialises the frame body, so every packet is independently
// parseable. Statistics (bit count, PSNR) are appended to the sequence
// stats, exactly as writeFrameJob does for the contiguous stream.
func (e *Encoder) writeFramePacket(j *frameJob) ([]byte, FrameStats) {
	start := time.Now()
	e.sw = newSymWriter(e.cfg.Entropy)
	e.sw.BeginData()
	fs := e.writeFrameBody(j)
	pkt := e.sw.Finish()
	fs.Bits = 8 * len(pkt)
	fs.Qp = j.qp
	j.wroteBits = fs.Bits
	wall := time.Since(start)
	e.entropyTime += wall
	if ob := e.cfg.Observer; ob != nil {
		ob.FrameWritten(j.index, wall, fs.Bits)
	}

	fs.PSNRY, fs.PSNRCb, fs.PSNRCr = jobPSNR(j)

	e.stats.Frames = append(e.stats.Frames, fs)
	return pkt, fs
}
