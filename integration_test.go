package repro

// Cross-module integration tests: these exercise the full pipeline
// (sequence generation → motion search → codec → decoder → metrics). The
// paper's own claims are rows of experiment.Claims, checked by
// internal/experiment's TestClaims and `acbmbench -experiment seeds`.

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/search"
	"repro/internal/video"
)

func encodeWith(t *testing.T, s search.Searcher, frames []*frame.Frame, qp int, fps float64) *codec.SequenceStats {
	t.Helper()
	stats, bs, err := codec.EncodeSequence(codec.Config{Qp: qp, Searcher: s, FPS: fps}, frames)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codec.Decode(bs); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return stats
}

func TestFastSearchBaselinesAreCheaperThanFSBM(t *testing.T) {
	frames := video.Generate(video.TableTennis, frame.QCIF, 6, 1)
	fsbm := encodeWith(t, &search.FSBM{}, frames, 16, 30)
	for _, s := range []search.Searcher{&search.TSS{}, &search.FSS{}, &search.Diamond{}, &search.CrossDiamond{}} {
		st := encodeWith(t, s, frames, 16, 30)
		if st.AvgSearchPointsPerMB() >= fsbm.AvgSearchPointsPerMB()/5 {
			t.Errorf("%s: %.0f points/MB, expected <1/5 of FSBM's %.0f",
				s.Name(), st.AvgSearchPointsPerMB(), fsbm.AvgSearchPointsPerMB())
		}
		if st.AvgPSNRY() < fsbm.AvgPSNRY()-1.5 {
			t.Errorf("%s: PSNR %.2f more than 1.5 dB below FSBM %.2f", s.Name(), st.AvgPSNRY(), fsbm.AvgPSNRY())
		}
	}
}
