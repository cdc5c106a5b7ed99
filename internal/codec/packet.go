package codec

import (
	"fmt"
	"io"

	"repro/internal/bitstream"
	"repro/internal/entropy"
	"repro/internal/frame"
)

// Packetized transport: each frame is an independently parseable unit so
// a lossy channel can drop frames without desynchronising the parser. The
// decoder conceals a lost packet by repeating the reference frame and
// recovers from the drift at the next intra frame — the error-resilience
// mode a "variable bandwidth channel" deployment (§5) needs.
//
// Packet 0 is the sequence header (size + entropy mode); packet i+1
// carries frame i. In arithmetic mode each packet has its own coder state
// and contexts, trading a little compression for independence.

// EncodePackets encodes frames as independent packets. It is the batch
// wrapper around EncodeStream, so the whole engine applies: analysis
// honours Config.Workers (wavefront) or Config.Pool (shared pool), and
// Config.Pipeline overlaps entropy coding of frame n with analysis of
// frame n+1. The packet bytes are identical for every such setting
// (TestPacketsPipelineBitIdentical pins it).
func EncodePackets(cfg Config, frames []*frame.Frame) ([][]byte, *SequenceStats, error) {
	if len(frames) == 0 {
		return nil, nil, fmt.Errorf("codec: no frames to encode")
	}
	var packets [][]byte
	s := NewEncodeStream(cfg, func(p Packet) error {
		packets = append(packets, p.Data)
		return nil
	})
	for i, f := range frames {
		if err := s.EncodeFrame(f); err != nil {
			s.Close() // drain the writer goroutine before bailing
			return nil, nil, fmt.Errorf("codec: frame %d: %w", i, err)
		}
	}
	stats, err := s.Close()
	if err != nil {
		return nil, nil, err
	}
	return packets, stats, nil
}

// PacketDecoder reconstructs a packetized stream, tolerating lost frame
// packets via concealment.
type PacketDecoder struct {
	d    *Decoder
	mode EntropyMode
}

// NewPacketDecoder parses the sequence header packet.
func NewPacketDecoder(header []byte) (*PacketDecoder, error) {
	r := bitstream.NewReader(header)
	magic, err := r.ReadBits(32)
	if err != nil || magic != Magic {
		return nil, fmt.Errorf("codec: bad packet-stream header")
	}
	cols, err := entropy.ReadUE(r)
	if err != nil {
		return nil, err
	}
	rows, err := entropy.ReadUE(r)
	if err != nil {
		return nil, err
	}
	modeBit, err := r.ReadBits(1)
	if err != nil {
		return nil, err
	}
	if cols == 0 || rows == 0 || cols > 1<<10 || rows > 1<<10 {
		return nil, fmt.Errorf("codec: implausible size %dx%d macroblocks", cols, rows)
	}
	return &PacketDecoder{
		d: &Decoder{
			size: frame.Size{W: 16 * int(cols), H: 16 * int(rows)},
			mode: EntropyMode(modeBit),
		},
		mode: EntropyMode(modeBit),
	}, nil
}

// Size returns the stream's frame format.
func (p *PacketDecoder) Size() frame.Size { return p.d.size }

// DecodePacket reconstructs one frame packet.
func (p *PacketDecoder) DecodePacket(pkt []byte) (*frame.Frame, error) {
	switch p.mode {
	case EntropyArith:
		ar := &arithReader{r: bitstream.NewReader(pkt), data: pkt}
		if err := ar.BeginData(); err != nil {
			return nil, err
		}
		p.d.sr = ar
	default:
		p.d.sr = &egReader{r: bitstream.NewReader(pkt)}
	}
	// Frame packets carry the frame header directly (no continuation
	// flag): mark one frame as pending.
	p.d.pending = true
	p.d.eos = false
	return p.d.DecodeFrame()
}

// ConcealLoss handles a dropped frame packet: the previous reconstruction
// is repeated (simple temporal concealment). Returns nil before the first
// successfully decoded frame.
func (p *PacketDecoder) ConcealLoss() *frame.Frame {
	if p.d.recon == nil {
		return nil
	}
	// The repeated frame also becomes the reference for what follows,
	// which is exactly the drift a real decoder suffers.
	return p.d.recon.Clone()
}

// MaxConcealGap bounds how many consecutive missing frame packets
// DecodePacketStream will conceal for one gap. A larger jump in record
// indices is far more likely a corrupted index varint than a half-minute
// drop burst, and trusting it would clone up to 2^32 concealment frames;
// such records are discarded as corrupt instead.
const MaxConcealGap = 1024

// PacketStreamResult is what DecodePacketStream salvaged from a framed
// packet stream a lossy channel (or a crashed relay) already chewed on.
type PacketStreamResult struct {
	// Frames holds every reconstructed frame, concealed ones included.
	Frames []*frame.Frame
	// Concealed counts frames synthesised for dropped or corrupt frame
	// packets (the previous reconstruction repeated).
	Concealed int
	// Ignored counts records whose indices could not be trusted
	// (duplicate, reordered, or implausibly far ahead) and were discarded.
	Ignored int
	// Truncated is non-nil when the byte stream itself ended mid-record
	// (a cut connection, a corrupt length varint): everything decodable
	// before the damage is in Frames, nothing after it is recoverable —
	// uvarint framing cannot resynchronise past a broken length field.
	Truncated error
}

// DecodePacketStream reconstructs a framed packet stream (PacketWriter
// records) end to end, tolerating the damage a real transport inflicts.
// Fault policy, from outermost layer in:
//
//   - A missing or corrupt header packet is fatal: nothing downstream is
//     decodable without the sequence parameters.
//   - A record framing error mid-stream (truncated final record, corrupt
//     length varint) ends the stream early: the error lands in
//     Truncated, the frames already decoded are returned, and no error
//     is reported — degradation, not failure.
//   - Records with untrustworthy indices (out-of-order, duplicate, or
//     jumping ahead by more than MaxConcealGap) are discarded and
//     counted in Ignored; the record framing is intact, so decoding
//     continues with the next record.
//   - An index gap (packets dropped in transit) or a corrupt payload is
//     concealed by repeating the previous reconstruction. The predictive
//     stream then drifts until the next intra frame resynchronises it —
//     the decoder's recovery guarantee (TestPacketStreamFaultTolerance).
//
// An error is returned only when not a single frame packet could be
// decoded or concealed.
func DecodePacketStream(r io.Reader) (*PacketStreamResult, error) {
	pr := NewPacketReader(r)
	idx, hdr, err := pr.ReadPacket()
	if err != nil {
		return nil, fmt.Errorf("codec: reading header packet: %w", err)
	}
	if idx != 0 {
		return nil, fmt.Errorf("codec: header packet missing (first record has index %d)", idx)
	}
	dec, err := NewPacketDecoder(hdr)
	if err != nil {
		return nil, err
	}
	res := &PacketStreamResult{}
	conceal := func() {
		if f := dec.ConcealLoss(); f != nil {
			res.Frames = append(res.Frames, f)
			res.Concealed++
		}
		// A loss before the first decoded frame has nothing to repeat;
		// the frame is skipped entirely.
	}
	next := 1
	for {
		idx, pkt, err := pr.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			// The framing itself is damaged; everything beyond this point
			// is unrecoverable, everything before it already decoded.
			res.Truncated = err
			break
		}
		if idx < next || idx-next > MaxConcealGap {
			res.Ignored++
			continue
		}
		for ; next < idx; next++ { // gap: packets dropped in transit
			conceal()
		}
		f, err := dec.DecodePacket(pkt)
		if err != nil { // corrupt payload: treat as lost
			conceal()
		} else {
			res.Frames = append(res.Frames, f)
		}
		next = idx + 1
	}
	if len(res.Frames) == 0 {
		return nil, fmt.Errorf("codec: no decodable frame packets (stream fully lost?)")
	}
	return res, nil
}
