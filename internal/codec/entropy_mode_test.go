package codec

import (
	"testing"

	"repro/internal/frame"
	"repro/internal/video"
)

func TestArithmeticRoundTripAllProfiles(t *testing.T) {
	for _, p := range video.Profiles {
		frames := video.Generate(p, frame.SQCIF, 4, 1)
		enc := NewEncoder(Config{Qp: 12, Entropy: EntropyArith})
		var recons []*frame.Frame
		for _, f := range frames {
			if _, err := enc.EncodeFrame(f); err != nil {
				t.Fatalf("%v: %v", p, err)
			}
			recons = append(recons, enc.Reconstruction())
		}
		bs := enc.Bitstream()
		dec, err := NewDecoder(bs)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if dec.EntropyMode() != EntropyArith {
			t.Fatalf("%v: stream mode = %v", p, dec.EntropyMode())
		}
		decoded, err := dec.DecodeAll()
		if err != nil {
			t.Fatalf("%v: decode: %v", p, err)
		}
		if len(decoded) != len(frames) {
			t.Fatalf("%v: decoded %d frames, want %d", p, len(decoded), len(frames))
		}
		for i := range decoded {
			if !decoded[i].Equal(recons[i]) {
				t.Fatalf("%v: frame %d mismatch in arithmetic mode", p, i)
			}
		}
	}
}

func TestArithmeticReconstructionIdenticalToExpGolomb(t *testing.T) {
	// The entropy backend must not change the reconstruction, only the
	// stream size: both modes code identical levels and vectors.
	frames := video.Generate(video.Carphone, frame.SQCIF, 4, 3)
	encE := NewEncoder(Config{Qp: 16})
	encA := NewEncoder(Config{Qp: 16, Entropy: EntropyArith})
	for _, f := range frames {
		if _, err := encE.EncodeFrame(f); err != nil {
			t.Fatal(err)
		}
		if _, err := encA.EncodeFrame(f); err != nil {
			t.Fatal(err)
		}
		if !encE.Reconstruction().Equal(encA.Reconstruction()) {
			t.Fatal("reconstructions diverge between entropy modes")
		}
	}
}

func TestArithmeticCompressesBetterThanExpGolomb(t *testing.T) {
	// Adaptive coding must beat the static codes on real content — this
	// is the point of the Annex-E-style mode.
	for _, p := range []video.Profile{video.Carphone, video.Foreman} {
		frames := video.Generate(p, frame.SQCIF, 6, 5)
		_, bsE, err := EncodeSequence(Config{Qp: 10}, frames)
		if err != nil {
			t.Fatal(err)
		}
		_, bsA, err := EncodeSequence(Config{Qp: 10, Entropy: EntropyArith}, frames)
		if err != nil {
			t.Fatal(err)
		}
		if len(bsA) >= len(bsE) {
			t.Fatalf("%v: arithmetic %d bytes >= exp-golomb %d bytes", p, len(bsA), len(bsE))
		}
		t.Logf("%v: exp-golomb %d bytes, arithmetic %d bytes (%.1f%% smaller)",
			p, len(bsE), len(bsA), 100*(1-float64(len(bsA))/float64(len(bsE))))
	}
}

func TestEncoderFinalisedByBitstream(t *testing.T) {
	frames := video.Generate(video.Carphone, frame.SQCIF, 2, 1)
	for _, mode := range []EntropyMode{EntropyExpGolomb, EntropyArith} {
		enc := NewEncoder(Config{Qp: 16, Entropy: mode})
		if _, err := enc.EncodeFrame(frames[0]); err != nil {
			t.Fatal(err)
		}
		a := enc.Bitstream()
		b := enc.Bitstream() // idempotent
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("mode %v: unstable bitstream", mode)
		}
		if _, err := enc.EncodeFrame(frames[1]); err == nil {
			t.Fatalf("mode %v: EncodeFrame accepted after finalise", mode)
		}
	}
}

func TestEmptyEncoderBitstream(t *testing.T) {
	enc := NewEncoder(Config{Qp: 16})
	if bs := enc.Bitstream(); len(bs) != 0 {
		t.Fatalf("empty encoder produced %d bytes", len(bs))
	}
}

func TestArithmeticTruncationDetected(t *testing.T) {
	frames := video.Generate(video.Foreman, frame.SQCIF, 3, 1)
	_, bs, err := EncodeSequence(Config{Qp: 8, Entropy: EntropyArith}, frames)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bs[:len(bs)/3]); err == nil {
		t.Fatal("deeply truncated arithmetic stream accepted")
	}
}

func TestEntropyModeString(t *testing.T) {
	if EntropyExpGolomb.String() != "expgolomb" || EntropyArith.String() != "arith" {
		t.Fatal("entropy mode names wrong")
	}
}

// TestParseEntropyMode pins the one entropy-name table the CLI, vcodecd and
// vload share: every accepted spelling, case-insensitive, and a refusal.
func TestParseEntropyMode(t *testing.T) {
	for name, want := range map[string]EntropyMode{
		"": EntropyExpGolomb, "expgolomb": EntropyExpGolomb, "EG": EntropyExpGolomb,
		"arith": EntropyArith, "Arithmetic": EntropyArith, "sac": EntropyArith,
	} {
		if got, err := ParseEntropyMode(name); err != nil || got != want {
			t.Errorf("ParseEntropyMode(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseEntropyMode("huffman"); err == nil {
		t.Error("unknown backend accepted")
	}
}
