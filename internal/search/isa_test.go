package search

import (
	"testing"

	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/mvfield"
	"repro/internal/video"
)

// TestSearchWinnersIdenticalAcrossKernelISAs certifies the dispatch
// invariant at the search layer: because every kernel tier returns
// bit-identical SADs, every searcher must pick the same winning vector,
// report the same SAD, and probe the same number of candidates no
// matter which ISA is active — including the half-pel refinement that
// goes through the fused ring kernel.
func TestSearchWinnersIdenticalAcrossKernelISAs(t *testing.T) {
	searchers := []Searcher{&FSBM{}, &PBM{}, &TSS{}, &FSS{}, &Diamond{}, &CrossDiamond{}}
	cur := texturedPlane(96, 96, 81)
	ref := texturedPlane(96, 96, 82)
	anchors := [][2]int{{0, 0}, {16, 48}, {40, 40}, {80, 80}}

	run := func() []Result {
		var out []Result
		for _, s := range searchers {
			for _, a := range anchors {
				in := newInput(cur, ref, a[0], a[1], 15, 16)
				in.CurField = mvfield.NewField(6, 6)
				out = append(out, s.Search(in))
			}
		}
		return out
	}

	restore, err := metrics.SetKernelISA("scalar")
	if err != nil {
		t.Fatal(err)
	}
	want := run()
	restore()

	for _, isa := range metrics.KernelISAs() {
		if isa == "scalar" {
			continue
		}
		restore, err := metrics.SetKernelISA(isa)
		if err != nil {
			t.Fatal(err)
		}
		got := run()
		restore()
		for i := range want {
			if got[i].MV != want[i].MV || got[i].SAD != want[i].SAD || got[i].Points != want[i].Points {
				t.Errorf("%s: result %d = {MV %v SAD %d Points %d}, scalar reference {MV %v SAD %d Points %d}",
					isa, i, got[i].MV, got[i].SAD, got[i].Points, want[i].MV, want[i].SAD, want[i].Points)
			}
		}
	}
}

// TestFSBMWinnersIdenticalAcrossKernelISAsAtOtherRanges extends the
// search-layer invariant to the full search at ±7 (a window well inside
// the AVX2 tier's elimination grid) and ±24 (wider than it: the plain
// scan), on camera content searched around each block's own position and
// on the textured planes, corners included.
func TestFSBMWinnersIdenticalAcrossKernelISAsAtOtherRanges(t *testing.T) {
	seq := video.Generate(video.Foreman, frame.QCIF, 2, 7)
	pairs := []struct {
		cur, ref *frame.Plane
		anchors  [][2]int
	}{
		{seq[1].Y, seq[0].Y, [][2]int{{0, 0}, {80, 64}, {160, 128}, {48, 16}, {144, 96}}},
		{texturedPlane(96, 96, 81), texturedPlane(96, 96, 82), [][2]int{{0, 0}, {16, 48}, {40, 40}, {80, 80}}},
	}
	run := func() []Result {
		var out []Result
		for _, rng := range []int{7, 24} {
			for _, p := range pairs {
				for _, a := range p.anchors {
					out = append(out, (&FSBM{}).Search(newInput(p.cur, p.ref, a[0], a[1], rng, 16)))
				}
			}
		}
		return out
	}

	restore, err := metrics.SetKernelISA("scalar")
	if err != nil {
		t.Fatal(err)
	}
	want := run()
	restore()

	for _, isa := range metrics.KernelISAs() {
		if isa == "scalar" {
			continue
		}
		restore, err := metrics.SetKernelISA(isa)
		if err != nil {
			t.Fatal(err)
		}
		got := run()
		restore()
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: result %d = %+v, scalar reference %+v", isa, i, got[i], want[i])
			}
		}
	}
}
