package codec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Packet framing: the packetized transport needs a container when packets
// travel over a byte stream (an HTTP response body, a file on disk). Each
// record is
//
//	uvarint packet index | uvarint payload length | payload bytes
//
// concatenated with no trailer — streaming-friendly (a consumer can act on
// each record as it arrives) and gap-tolerant (indices are explicit, so a
// file or relay that dropped packets still identifies every survivor and
// the decoder conceals the holes). Index 0 is the sequence header packet;
// frame i travels as index i+1, matching Packet.Index.

// maxFramedPacket caps a record's payload so a corrupt length field
// cannot force a multi-gigabyte allocation.
const maxFramedPacket = 1 << 28

// payloadChunk is how far ahead of the bytes read a payload buffer grows.
const payloadChunk = 1 << 20

// maxPacketIndex is the largest packet index either side accepts: the
// largest int on every GOARCH, so a reader never wraps an index into
// another packet's (a 32-bit int(1<<32) is 0, the header packet).
const maxPacketIndex = math.MaxInt32

// PacketWriter frames packets onto an io.Writer.
type PacketWriter struct {
	w io.Writer
}

// NewPacketWriter returns a writer framing onto w. Writes are not
// buffered: one WritePacket is at most two Write calls on w, so a
// flushing transport (http.Flusher) can forward each packet immediately.
func NewPacketWriter(w io.Writer) *PacketWriter {
	return &PacketWriter{w: w}
}

// WritePacket appends one framed record.
func (pw *PacketWriter) WritePacket(index int, data []byte) error {
	var hdr [2 * binary.MaxVarintLen64]byte
	return pw.writeRecord(hdr[:0], index, data)
}

// writeRecord appends the plain record fields to hdr — empty, or a ladder
// record's rung tag — and writes header and payload.
func (pw *PacketWriter) writeRecord(hdr []byte, index int, data []byte) error {
	if index < 0 || index > maxPacketIndex {
		return fmt.Errorf("codec: packet index %d out of range [0, %d]", index, maxPacketIndex)
	}
	hdr = binary.AppendUvarint(hdr, uint64(index))
	hdr = binary.AppendUvarint(hdr, uint64(len(data)))
	if _, err := pw.w.Write(hdr); err != nil {
		return err
	}
	_, err := pw.w.Write(data)
	return err
}

// PacketReader parses a framed packet stream.
type PacketReader struct {
	br *bufio.Reader
}

// NewPacketReader returns a reader over r.
func NewPacketReader(r io.Reader) *PacketReader {
	return &PacketReader{br: bufio.NewReader(r)}
}

// ReadPacket returns the next record, or io.EOF at a clean end of stream.
func (pr *PacketReader) ReadPacket() (index int, data []byte, err error) {
	idx, err := binary.ReadUvarint(pr.br)
	if err == io.EOF {
		return 0, nil, io.EOF
	}
	if err != nil {
		return 0, nil, fmt.Errorf("codec: reading packet index: %w", err)
	}
	size, err := binary.ReadUvarint(pr.br)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("codec: reading packet length: %w", err)
	}
	if idx > maxPacketIndex || size > maxFramedPacket {
		return 0, nil, fmt.Errorf("codec: implausible packet record (index %d, %d bytes)", idx, size)
	}
	// The length is trusted only as far as bytes arrive: the payload grows
	// at most payloadChunk at a time, so a corrupt length ahead of a short
	// stream costs what the stream holds, not maxFramedPacket.
	data = make([]byte, 0, min(size, payloadChunk))
	for uint64(len(data)) < size {
		n := len(data)
		data = append(data, make([]byte, min(size-uint64(n), payloadChunk))...)
		if _, err := io.ReadFull(pr.br, data[n:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, fmt.Errorf("codec: reading packet payload: %w", err)
		}
	}
	return int(idx), data, nil
}

// Ladder framing: a simulcast session interleaves the packet streams of
// its rungs over one byte stream, so each record carries the rung index
// up front:
//
//	uvarint rung | uvarint packet index | uvarint payload length | payload
//
// Per-rung records appear in packet order; the interleaving across rungs
// is arbitrary. Splitting a ladder stream back into per-rung plain packet
// streams is a pure reframing — payloads are identical to what the rung's
// standalone PacketWriter would carry.

// maxLadderRung bounds the rung index a reader trusts: real ladders halve
// per rung, so even 4CIF bottoms out after a handful.
const maxLadderRung = 1 << 10

// LadderPacketWriter frames rung-tagged packets onto an io.Writer. Like
// PacketWriter it never buffers: one record is at most two Write calls.
type LadderPacketWriter struct {
	pw PacketWriter
}

// NewLadderPacketWriter returns a ladder-framing writer onto w.
func NewLadderPacketWriter(w io.Writer) *LadderPacketWriter {
	return &LadderPacketWriter{pw: PacketWriter{w: w}}
}

// WritePacket appends one rung-tagged record.
func (lw *LadderPacketWriter) WritePacket(rung, index int, data []byte) error {
	if rung < 0 {
		return fmt.Errorf("codec: negative ladder rung %d", rung)
	}
	var hdr [3 * binary.MaxVarintLen64]byte
	return lw.pw.writeRecord(binary.AppendUvarint(hdr[:0], uint64(rung)), index, data)
}

// LadderPacketReader parses a ladder-framed packet stream.
type LadderPacketReader struct {
	pr PacketReader
}

// NewLadderPacketReader returns a reader over r.
func NewLadderPacketReader(r io.Reader) *LadderPacketReader {
	return &LadderPacketReader{pr: PacketReader{br: bufio.NewReader(r)}}
}

// ReadPacket returns the next rung-tagged record, or io.EOF at a clean
// end of stream.
func (lr *LadderPacketReader) ReadPacket() (rung, index int, data []byte, err error) {
	rg, err := binary.ReadUvarint(lr.pr.br)
	if err == io.EOF {
		return 0, 0, nil, io.EOF
	}
	if err != nil {
		return 0, 0, nil, fmt.Errorf("codec: reading ladder rung: %w", err)
	}
	if rg > maxLadderRung {
		return 0, 0, nil, fmt.Errorf("codec: implausible ladder record (rung %d)", rg)
	}
	index, data, err = lr.pr.ReadPacket()
	if err == io.EOF { // the stream ended between the rung tag and its record
		err = fmt.Errorf("codec: reading ladder packet index: %w", io.ErrUnexpectedEOF)
	}
	return int(rg), index, data, err
}
