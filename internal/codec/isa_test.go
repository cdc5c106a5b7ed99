package codec

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/search"
	"repro/internal/video"
)

// TestBitstreamIdenticalAcrossKernelISAs is the end-to-end form of the
// dispatch invariant: which SAD kernel tier is active (scalar, SWAR, or
// the amd64 assembly) must never change a single encoded bit. Encodes
// the mode-diverse parallel test sequence under every registered ISA —
// serially and with the wavefront at Workers=4 — and requires the exact
// bitstream the scalar tier produces.
func TestBitstreamIdenticalAcrossKernelISAs(t *testing.T) {
	frames := parallelFrames(4)
	encode := func(workers int) []byte {
		acbm := core.New(core.DefaultParams)
		cfg := Config{Qp: 14, IntraPeriod: 3,
			Searcher: acbm, Workers: workers}
		_, bs, err := EncodeSequence(cfg, frames)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return bs
	}

	restore, err := metrics.SetKernelISA("scalar")
	if err != nil {
		t.Fatal(err)
	}
	ref := encode(1)
	restore()

	for _, isa := range metrics.KernelISAs() {
		if isa == "scalar" {
			continue
		}
		restore, err := metrics.SetKernelISA(isa)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			if bs := encode(workers); !bytes.Equal(bs, ref) {
				t.Errorf("isa=%s workers=%d: bitstream differs from scalar serial reference (%d vs %d bytes)",
					isa, workers, len(bs), len(ref))
			}
		}
		restore()
	}
}

// TestFSBMBitstreamIdenticalAcrossKernelISAs is the same invariant on the
// full search, where the AVX2 tier skips candidates its successive-
// elimination bound rules out: a Foreman QCIF encode with FSBM at Qp 16
// (the fullsearch_serial cell) must equal the scalar tier's bytes under
// every ISA, serially and with the wavefront at Workers=4.
func TestFSBMBitstreamIdenticalAcrossKernelISAs(t *testing.T) {
	frames := video.Generate(video.Foreman, frame.QCIF, 4, 7)
	encode := func(workers int) []byte {
		cfg := Config{Qp: 16, Searcher: &search.FSBM{}, Workers: workers}
		_, bs, err := EncodeSequence(cfg, frames)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return bs
	}

	restore, err := metrics.SetKernelISA("scalar")
	if err != nil {
		t.Fatal(err)
	}
	ref := encode(1)
	restore()

	for _, isa := range metrics.KernelISAs() {
		if isa == "scalar" {
			continue
		}
		restore, err := metrics.SetKernelISA(isa)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			if bs := encode(workers); !bytes.Equal(bs, ref) {
				t.Errorf("isa=%s workers=%d: bitstream differs from scalar serial reference (%d vs %d bytes)",
					isa, workers, len(bs), len(ref))
			}
		}
		restore()
	}
}
