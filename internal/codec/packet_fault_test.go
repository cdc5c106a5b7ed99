package codec

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"

	"repro/internal/frame"
	"repro/internal/video"
)

// faultClip encodes a small clip with a short GOP so every damage test
// has intra frames (0, 4, 8) to resynchronise at, and returns both the
// packets and the framed byte stream a transport would carry.
func faultClip(t *testing.T) (pkts [][]byte, stream []byte) {
	t.Helper()
	frames := video.Generate(video.Foreman, frame.SQCIF, 12, 2)
	pkts, _, err := EncodePackets(Config{Qp: 10, IntraPeriod: 4}, frames)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	pw := NewPacketWriter(&buf)
	for i, p := range pkts {
		if err := pw.WritePacket(i, p); err != nil {
			t.Fatal(err)
		}
	}
	return pkts, buf.Bytes()
}

// cleanDecode is the loss-free reference reconstruction.
func cleanDecode(t *testing.T, pkts [][]byte) []*frame.Frame {
	t.Helper()
	dec, err := NewPacketDecoder(pkts[0])
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*frame.Frame, 0, len(pkts)-1)
	for _, p := range pkts[1:] {
		f, err := dec.DecodePacket(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f)
	}
	return out
}

// frameRecord locates the framed record carrying packet index idx inside
// the stream (start offset and length), by re-walking the framing.
func frameRecord(t *testing.T, stream []byte, idx int) (start, length int) {
	t.Helper()
	r := bytes.NewReader(stream)
	pr := NewPacketReader(r)
	off := 0
	for {
		i, data, err := pr.ReadPacket()
		if err != nil {
			t.Fatalf("walking stream: %v", err)
		}
		// Recompute this record's framed length from its payload.
		var hdr bytes.Buffer
		if err := NewPacketWriter(&hdr).WritePacket(i, data); err != nil {
			t.Fatal(err)
		}
		if i == idx {
			return off, hdr.Len()
		}
		off += hdr.Len()
	}
}

func TestPacketReaderTruncatedFinalRecord(t *testing.T) {
	_, stream := faultClip(t)
	// Cut mid-payload of the final record and mid-varint of its header:
	// ReadPacket must fail cleanly (no panic, no silent short read).
	for _, cut := range []int{1, 3, len(stream) / 2} {
		pr := NewPacketReader(bytes.NewReader(stream[:len(stream)-cut]))
		var lastErr error
		for {
			_, _, err := pr.ReadPacket()
			if err != nil {
				lastErr = err
				break
			}
		}
		if lastErr == io.EOF {
			t.Fatalf("cut %d: truncation reported as clean EOF", cut)
		}
	}
}

func TestPacketReaderCorruptLength(t *testing.T) {
	// An overlong uvarint (11 continuation bytes) overflows 64 bits.
	over := bytes.Repeat([]byte{0x80}, 11)
	pr := NewPacketReader(bytes.NewReader(append([]byte{0x00}, over...)))
	if _, _, err := pr.ReadPacket(); err == nil {
		t.Fatal("overlong length varint accepted")
	}
	// An implausibly large length must be rejected before allocation.
	var rec bytes.Buffer
	rec.WriteByte(0x00)                                         // index 0
	rec.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // ~2^48 bytes
	pr = NewPacketReader(bytes.NewReader(rec.Bytes()))
	if _, _, err := pr.ReadPacket(); err == nil {
		t.Fatal("implausible record length accepted")
	}
}

// TestPacketIndexBound: a record indexed past math.MaxInt32 is refused on
// every GOARCH — with a 32-bit int, 1<<32 would wrap onto the header packet
// and 1<<32+1 onto frame 0 — by both readers, and the writer refuses the
// indices an int can hold in that range.
func TestPacketIndexBound(t *testing.T) {
	for _, c := range []struct {
		idx uint64
		ok  bool
	}{{math.MaxInt32, true}, {1 << 31, false}, {1 << 32, false}, {1<<32 + 1, false}} {
		rec := binary.AppendUvarint(nil, c.idx)
		rec = append(binary.AppendUvarint(rec, 1), 0xaa)
		idx, _, err := NewPacketReader(bytes.NewReader(rec)).ReadPacket()
		if (err == nil) != c.ok || err == nil && uint64(idx) != c.idx {
			t.Errorf("index %d: PacketReader returned %d, %v", c.idx, idx, err)
		}
		_, idx, _, err = NewLadderPacketReader(bytes.NewReader(append([]byte{0}, rec...))).ReadPacket()
		if (err == nil) != c.ok || err == nil && uint64(idx) != c.idx {
			t.Errorf("index %d: LadderPacketReader returned %d, %v", c.idx, idx, err)
		}
		if c.idx <= math.MaxInt { // an int can carry it to the writer
			if err := NewPacketWriter(io.Discard).WritePacket(int(c.idx), nil); (err == nil) != c.ok {
				t.Errorf("index %d: WritePacket returned %v", c.idx, err)
			}
		}
	}
}

// FuzzPacketReader feeds arbitrary bytes to PacketReader (ladder false) or
// LadderPacketReader (ladder true; it wraps the plain reader). Whatever the
// input, reading must not panic, every accepted record must be within the
// bounds the readers promise, and reading must end — in an error or io.EOF —
// within one record per input byte.
func FuzzPacketReader(f *testing.F) {
	// Seeds from a small coarse clip: the fuzzer minimises every new input it
	// finds, and that costs time in proportion to the input's size.
	pkts, _, err := EncodePackets(Config{Qp: 31}, video.Generate(video.Foreman, frame.SQCIF, 3, 2))
	if err != nil {
		f.Fatal(err)
	}
	var plain, ladder bytes.Buffer
	pw, lw := NewPacketWriter(&plain), NewLadderPacketWriter(&ladder)
	for i, p := range pkts {
		if err := pw.WritePacket(i, p); err != nil {
			f.Fatal(err)
		}
		if err := lw.WritePacket(i%2, i, p); err != nil {
			f.Fatal(err)
		}
	}
	stream := plain.Bytes()
	f.Add(stream, false)
	f.Add(ladder.Bytes(), true)
	f.Add(stream[:len(stream)-5], false)                                  // truncated final record
	f.Add(append([]byte{0x00}, bytes.Repeat([]byte{0x80}, 11)...), false) // corrupt length varint
	f.Add([]byte{0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, false)  // oversize length
	f.Add([]byte{0x01, 0x00, 0x80, 0x80, 0x80, 0x80, 0x01, 0x01}, true)   // ladder: a 1<<28-byte length, one byte sent
	f.Fuzz(func(t *testing.T, b []byte, ladder bool) {
		pr, lr := NewPacketReader(bytes.NewReader(b)), NewLadderPacketReader(bytes.NewReader(b))
		for n := 0; ; n++ {
			if n > len(b) {
				t.Fatalf("%d records from %d bytes", n, len(b))
			}
			var rung, idx int
			var data []byte
			var err error
			if ladder {
				rung, idx, data, err = lr.ReadPacket()
			} else {
				idx, data, err = pr.ReadPacket()
			}
			if err != nil {
				return
			}
			if rung < 0 || rung > maxLadderRung || idx < 0 || idx > maxPacketIndex || len(data) > maxFramedPacket {
				t.Fatalf("record %d accepted out of bounds: rung %d, index %d, %d bytes", n, rung, idx, len(data))
			}
		}
	})
}

// TestPacketStreamFaultTolerance is the decoder-side contract the
// gateway's chaos scenarios rely on: whatever a transport does to the
// framed stream — truncate the final record, corrupt a length varint
// mid-stream, reorder records, drop records — DecodePacketStream never
// panics, salvages everything decodable, conceals what it can, and
// resynchronises exactly at the next intra frame.
func TestPacketStreamFaultTolerance(t *testing.T) {
	pkts, stream := faultClip(t)
	clean := cleanDecode(t, pkts)

	t.Run("clean", func(t *testing.T) {
		res, err := DecodePacketStream(bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		if res.Concealed != 0 || res.Ignored != 0 || res.Truncated != nil {
			t.Fatalf("clean stream reported damage: %+v", res)
		}
		if len(res.Frames) != len(clean) {
			t.Fatalf("%d frames, want %d", len(res.Frames), len(clean))
		}
		for i := range clean {
			if !res.Frames[i].Equal(clean[i]) {
				t.Fatalf("frame %d differs from per-packet decode", i)
			}
		}
	})

	t.Run("truncated-final-record", func(t *testing.T) {
		// Cut mid-payload of the last record: the clip just ends early.
		res, err := DecodePacketStream(bytes.NewReader(stream[:len(stream)-5]))
		if err != nil {
			t.Fatal(err)
		}
		if res.Truncated == nil {
			t.Fatal("truncation not reported")
		}
		if len(res.Frames) != len(clean)-1 {
			t.Fatalf("%d frames, want %d", len(res.Frames), len(clean)-1)
		}
		for i := range res.Frames {
			if !res.Frames[i].Equal(clean[i]) {
				t.Fatalf("frame %d differs before the damage", i)
			}
		}
	})

	t.Run("corrupt-length-varint", func(t *testing.T) {
		// Overwrite frame 6's record header with a forever-continuing
		// varint: frames 0..5 survive, the rest is unrecoverable.
		start, _ := frameRecord(t, stream, 7) // record index 7 = frame 6
		damaged := append([]byte(nil), stream[:start]...)
		damaged = append(damaged, bytes.Repeat([]byte{0x80}, 16)...)
		damaged = append(damaged, stream[start:]...)
		res, err := DecodePacketStream(bytes.NewReader(damaged))
		if err != nil {
			t.Fatal(err)
		}
		if res.Truncated == nil {
			t.Fatal("corrupt varint not reported as truncation")
		}
		if len(res.Frames) != 6 {
			t.Fatalf("%d frames salvaged, want 6", len(res.Frames))
		}
		for i := range res.Frames {
			if !res.Frames[i].Equal(clean[i]) {
				t.Fatalf("frame %d differs before the damage", i)
			}
		}
	})

	t.Run("out-of-order-index", func(t *testing.T) {
		// Swap the records of frames 1 and 2 (indices 2 and 3): the
		// early-arriving 3 opens a one-frame gap (concealed), the late 2
		// is untrustworthy (ignored), and the intra frame at 4 resyncs.
		s2, l2 := frameRecord(t, stream, 2)
		s3, l3 := frameRecord(t, stream, 3)
		var swapped bytes.Buffer
		swapped.Write(stream[:s2])
		swapped.Write(stream[s3 : s3+l3])
		swapped.Write(stream[s2 : s2+l2])
		swapped.Write(stream[s3+l3:])
		res, err := DecodePacketStream(bytes.NewReader(swapped.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if res.Concealed != 1 || res.Ignored != 1 {
			t.Fatalf("concealed %d ignored %d, want 1 and 1", res.Concealed, res.Ignored)
		}
		if len(res.Frames) != len(clean) {
			t.Fatalf("%d frames, want %d", len(res.Frames), len(clean))
		}
		assertResyncAtIntra(t, res.Frames, clean, 1, 4)
	})

	t.Run("dropped-record", func(t *testing.T) {
		// Remove frame 5's record (index 6) entirely: concealed, drift
		// until the intra frame at 8 restores bit-exact reconstruction.
		s, l := frameRecord(t, stream, 6)
		dropped := append([]byte(nil), stream[:s]...)
		dropped = append(dropped, stream[s+l:]...)
		res, err := DecodePacketStream(bytes.NewReader(dropped))
		if err != nil {
			t.Fatal(err)
		}
		if res.Concealed != 1 {
			t.Fatalf("concealed %d, want 1", res.Concealed)
		}
		if len(res.Frames) != len(clean) {
			t.Fatalf("%d frames, want %d", len(res.Frames), len(clean))
		}
		assertResyncAtIntra(t, res.Frames, clean, 5, 8)
	})
}

// assertResyncAtIntra checks the concealment contract around one damaged
// frame: the damaged frame must differ from the loss-free decode (drift
// is real), and every frame from the next intra on must be bit-exact.
func assertResyncAtIntra(t *testing.T, got, clean []*frame.Frame, damaged, intra int) {
	t.Helper()
	if got[damaged].Equal(clean[damaged]) {
		t.Fatalf("frame %d identical despite damage (test is vacuous)", damaged)
	}
	for i := intra; i < len(clean); i++ {
		if !got[i].Equal(clean[i]) {
			t.Fatalf("frame %d not resynchronised after intra frame %d", i, intra)
		}
	}
}
