package codec

import (
	"time"

	"repro/internal/bitstream"
	"repro/internal/entropy"
	"repro/internal/frame"
)

// Packet is one unit of the packetized transport: Index 0 carries the
// sequence header, Index i+1 carries frame i. Stats is the zero value for
// the header packet.
type Packet struct {
	Index int
	Data  []byte
	Stats FrameStats
}

// EncodeStream is the streaming encode session: the engine (see Encoder)
// in packet framing. Frames go in one at a time and each finished frame
// comes out immediately as an independent packet through the emit
// callback — the first-byte latency of a consumer is one frame, not one
// sequence. It is the unit cmd/vcodecd serves; the batch EncodePackets is
// a thin wrapper around it.
//
// Emit ordering and backpressure: emit is called strictly in packet order
// (header, frame 0, frame 1, …) and synchronously with respect to the
// stream — the next packet is not produced until emit returns. A slow
// consumer therefore throttles the encode instead of growing an unbounded
// queue: in pipeline mode exactly one analysed frame can be in flight
// behind a blocked emit, and inline none.
//
// Packets are byte-identical for every Workers/Pool/Pipeline setting,
// rate-controlled or not: each packet has private entropy state, analysis
// results are worker-count invariant (the wavefront guarantee) and the
// frame-lag rate controller decides at the same hand-off in every mode.
//
// An emit error poisons the stream: no later frame is analysed or
// written, every later EncodeFrame returns the error, and Close returns
// it too.
//
// Source frames have the Encoder's lifetime: the caller may recycle frame
// n once EncodeFrame has returned without error for frame n+1, and the
// last frame once Close has returned.
type EncodeStream struct{ e *Encoder }

// NewEncodeStream starts a streaming session for cfg; packets are
// delivered to emit. The caller must call Close to release the writer
// goroutine and collect the final statistics.
func NewEncodeStream(cfg Config, emit func(Packet) error) *EncodeStream {
	return &EncodeStream{e: newEngine(cfg, emit)}
}

// EncodeFrame analyses f and queues (pipeline mode) or emits (inline) its
// packet. In pipeline mode it returns when analysis is done; the packet
// may still be in flight on the writer goroutine.
func (s *EncodeStream) EncodeFrame(f *frame.Frame) error {
	_, err := s.e.encode(f, nil)
	return err
}

// Close drains the writer goroutine, finalises the session and returns
// the sequence statistics, plus the first emit error if any packet could
// not be delivered. It is idempotent; EncodeFrame must not be called
// afterwards.
func (s *EncodeStream) Close() (*SequenceStats, error) {
	err := s.e.finalise()
	return s.e.Stats(), err
}

// PhaseTimes returns the cumulative analysis/entropy wall clock (see
// Encoder.PhaseTimes).
func (s *EncodeStream) PhaseTimes() (analysis, entropy time.Duration) {
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
