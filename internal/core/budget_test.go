package core

import (
	"bytes"
	"testing"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/video"
)

func TestNewBudgetedValidation(t *testing.T) {
	if _, err := NewBudgeted(0, Params{}); err == nil {
		t.Fatal("zero target accepted")
	}
	if _, err := NewBudgeted(-5, Params{}); err == nil {
		t.Fatal("negative target accepted")
	}
	if _, err := NewBudgeted(100, Params{Alpha: -1, GammaDen: 1}); err == nil {
		t.Fatal("invalid base params accepted")
	}
	b, err := NewBudgeted(100, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "ACBM-budget" {
		t.Fatal("name wrong")
	}
	if b.Scale() != 1 {
		t.Fatal("initial scale must be 1")
	}
}

func TestBudgetedTracksTargetOnHardContent(t *testing.T) {
	// Plain ACBM on this clip runs ~700+ positions/MB at low Qp; a 150
	// positions/MB budget must pull the average down near the target.
	base := video.Generate(video.Foreman, frame.QCIF, 24, 3)
	frames := video.Decimate(base, 3)

	plain := New(DefaultParams)
	ps, _, err := codec.EncodeSequence(codec.Config{Qp: 14, Searcher: plain, FPS: 10}, frames)
	if err != nil {
		t.Fatal(err)
	}
	budget, err := NewBudgeted(150, DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	bs, _, err := codec.EncodeSequence(codec.Config{Qp: 14, Searcher: budget, FPS: 10}, frames)
	if err != nil {
		t.Fatal(err)
	}
	plainAvg, budgetAvg := ps.AvgSearchPointsPerMB(), bs.AvgSearchPointsPerMB()
	if plainAvg < 300 {
		t.Skipf("content unexpectedly easy (plain ACBM %.0f pts/MB)", plainAvg)
	}
	if budgetAvg >= plainAvg/2 {
		t.Fatalf("budgeted %.0f pts/MB not well below plain %.0f", budgetAvg, plainAvg)
	}
	if budgetAvg > 450 {
		t.Fatalf("budgeted %.0f pts/MB far above 150 target", budgetAvg)
	}
	// Quality cannot collapse: the budgeted encoder still beats plain PBM
	// by construction and must stay within 1 dB of unbudgeted ACBM here.
	if bs.AvgPSNRY() < ps.AvgPSNRY()-1.0 {
		t.Fatalf("budgeted PSNR %.2f more than 1 dB below plain %.2f", bs.AvgPSNRY(), ps.AvgPSNRY())
	}
}

func TestBudgetedGenerousTargetActsLikePlainACBM(t *testing.T) {
	frames := video.Generate(video.MissAmerica, frame.SQCIF, 8, 3)
	budget, err := NewBudgeted(969, DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	bs, _, err := codec.EncodeSequence(codec.Config{Qp: 20, Searcher: budget, FPS: 30}, frames)
	if err != nil {
		t.Fatal(err)
	}
	plain := New(DefaultParams)
	ps, _, err := codec.EncodeSequence(codec.Config{Qp: 20, Searcher: plain, FPS: 30}, frames)
	if err != nil {
		t.Fatal(err)
	}
	// Easy content is already far under budget; the controller may tighten
	// the thresholds (spending quality) but must not exceed FSBM cost.
	if bs.AvgSearchPointsPerMB() > 969 {
		t.Fatalf("budgeted exceeded FSBM cost: %.0f", bs.AvgSearchPointsPerMB())
	}
	if bs.AvgPSNRY() < ps.AvgPSNRY()-0.3 {
		t.Fatalf("budgeted PSNR %.2f below plain %.2f on easy content", bs.AvgPSNRY(), ps.AvgPSNRY())
	}
}

// TestBudgetedForkJoinDifferential pins the frame-granular fork/join
// contract on Foreman-class content: per-frame budget decisions frozen at
// frame start and point accounting merged additively across workers must
// consume exactly the points of the sequential (Workers=1) reference —
// same merged statistics, same final threshold scale, same bitstream.
func TestBudgetedForkJoinDifferential(t *testing.T) {
	frames := video.Generate(video.Foreman, frame.QCIF, 10, 3)
	encode := func(workers int, pipeline bool) (*Budgeted, *codec.SequenceStats, []byte) {
		t.Helper()
		b, err := NewBudgeted(150, DefaultParams)
		if err != nil {
			t.Fatal(err)
		}
		stats, bs, err := codec.EncodeSequence(codec.Config{
			Qp: 14, FPS: 30, Searcher: b, Workers: workers, Pipeline: pipeline,
		}, frames)
		if err != nil {
			t.Fatalf("workers=%d pipeline=%v: %v", workers, pipeline, err)
		}
		return b, stats, bs
	}
	refB, refStats, refBS := encode(1, false)
	for _, tc := range []struct {
		workers  int
		pipeline bool
	}{{4, false}, {4, true}, {7, true}} {
		b, stats, bs := encode(tc.workers, tc.pipeline)
		if b.Stats() != refB.Stats() {
			t.Errorf("workers=%d pipeline=%v: merged stats differ\n got %+v\nwant %+v",
				tc.workers, tc.pipeline, b.Stats(), refB.Stats())
		}
		if b.Stats().Points != refB.Stats().Points {
			t.Errorf("workers=%d pipeline=%v: consumed points %d, sequential reference %d",
				tc.workers, tc.pipeline, b.Stats().Points, refB.Stats().Points)
		}
		if b.Scale() != refB.Scale() {
			t.Errorf("workers=%d pipeline=%v: final scale %g, want %g",
				tc.workers, tc.pipeline, b.Scale(), refB.Scale())
		}
		if stats.AvgSearchPointsPerMB() != refStats.AvgSearchPointsPerMB() {
			t.Errorf("workers=%d pipeline=%v: points/MB %.2f, want %.2f",
				tc.workers, tc.pipeline, stats.AvgSearchPointsPerMB(), refStats.AvgSearchPointsPerMB())
		}
		if !bytes.Equal(bs, refBS) {
			t.Errorf("workers=%d pipeline=%v: bitstream differs from sequential", tc.workers, tc.pipeline)
		}
	}
}

func TestBudgetedScaleBounded(t *testing.T) {
	b, err := NewBudgeted(1, DefaultParams) // impossible target: always over
	if err != nil {
		t.Fatal(err)
	}
	ref := texturedPlane(96, 96, 5, 4, 160)
	cur := texturedPlane(96, 96, 6, 4, 160)
	for i := 0; i < 400; i++ {
		b.Search(newInput(cur, ref, 40, 40, 4))
	}
	if b.Scale() > 64.001 {
		t.Fatalf("scale %v exceeded bound", b.Scale())
	}
	st := b.Stats()
	if st.Blocks != 400 {
		t.Fatalf("blocks = %d", st.Blocks)
	}
	// With the loosest thresholds everything should be accepted by now.
	if st.CriticalCnt == st.Blocks {
		t.Fatal("controller never relaxed thresholds")
	}
}
