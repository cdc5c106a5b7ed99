package codec

import (
	"bytes"
	"testing"

	"repro/internal/frame"
	"repro/internal/video"
)

// TestReservedBitsRefused pins the two stream bits the deleted Annex
// options left reserved: the frame header's last bit (once the deblocking
// flag) and an inter macroblock's sctxInter4V flag (once the four-vector
// flag). The encoder writes both clear; a stream that sets either must
// fail to decode — an error from Decode, a concealed packet in
// DecodePacketStream — in both entropy modes. Each forged P-frame is
// otherwise what an encoder with the option on would have written (one
// zero-vector inter macroblock with no coded block, the rest skipped), and
// the control row shows it decodes with both bits clear.
func TestReservedBitsRefused(t *testing.T) {
	frames := video.Generate(video.Carphone, frame.SQCIF, 1, 1)
	mbs := frames[0].Size().MacroblockCols() * frames[0].Size().MacroblockRows()
	forgeP := func(sw symWriter, headerBit uint64, fourV bool) {
		sw.Bits(1, 1)  // P-frame
		sw.Bits(16, 5) // Qp
		sw.Bits(headerBit, 1)
		sw.Flag(sctxCOD, false)
		sw.Flag(sctxMode, false)
		sw.Flag(sctxInter4V, fourV)
		mvds := 1
		if fourV {
			mvds = 4
		}
		for i := 0; i < mvds; i++ {
			sw.MVD(0, 0)
		}
		for i := 0; i < 6; i++ {
			sw.Flag(sctxCBP, false)
		}
		for i := 1; i < mbs; i++ {
			sw.Flag(sctxCOD, true)
		}
	}
	for _, mode := range []EntropyMode{EntropyExpGolomb, EntropyArith} {
		for _, c := range []struct {
			name      string
			headerBit uint64
			fourV     bool
			refused   bool
		}{
			{"both clear", 0, false, false},
			{"deblock bit", 1, false, true},
			{"four-vector flag", 0, true, true},
		} {
			cfg := Config{Qp: 16, Entropy: mode, Workers: 1}

			e := NewEncoder(cfg)
			if _, err := e.EncodeFrame(frames[0]); err != nil {
				t.Fatal(err)
			}
			e.sw.Flag(sctxMore, true)
			forgeP(e.sw, c.headerBit, c.fourV)
			got, err := Decode(e.Bitstream())
			if c.refused && err == nil {
				t.Errorf("%v %s: Decode accepted the stream", mode, c.name)
			}
			if !c.refused && (err != nil || len(got) != 2) {
				t.Errorf("%v %s: Decode returned %d frames, %v", mode, c.name, len(got), err)
			}

			pkts, _, err := EncodePackets(cfg, frames)
			if err != nil {
				t.Fatal(err)
			}
			sw := newSymWriter(mode)
			sw.BeginData()
			forgeP(sw, c.headerBit, c.fourV)
			var buf bytes.Buffer
			pw := NewPacketWriter(&buf)
			for i, p := range append(pkts, sw.Finish()) {
				if err := pw.WritePacket(i, p); err != nil {
					t.Fatal(err)
				}
			}
			res, err := DecodePacketStream(&buf)
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			if c.refused {
				want = 1
			}
			if len(res.Frames) != 2 || res.Concealed != want {
				t.Errorf("%v %s: DecodePacketStream gave %d frames, %d concealed; want 2, %d",
					mode, c.name, len(res.Frames), res.Concealed, want)
			}
		}
	}
}
