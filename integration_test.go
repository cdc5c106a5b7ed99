package repro

// Cross-module integration tests: these exercise the full pipeline
// (sequence generation → motion search → codec → decoder → metrics) and
// assert the paper-level behaviours that no single package can verify
// alone.

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/frame"
	"repro/internal/mvfield"
	"repro/internal/ratedist"
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

func TestACBMComplexityBetweenPBMAndFSBM(t *testing.T) {
	frames := video.Generate(video.Carphone, frame.QCIF, 12, 1)
	pbm := encodeWith(t, &search.PBM{}, frames, 16, 30)
	acbm := encodeWith(t, core.New(core.DefaultParams), frames, 16, 30)
	fsbm := encodeWith(t, &search.FSBM{}, frames, 16, 30)
	p, a, f := pbm.AvgSearchPointsPerMB(), acbm.AvgSearchPointsPerMB(), fsbm.AvgSearchPointsPerMB()
	if !(p <= a && a <= f) {
		t.Fatalf("complexity ordering violated: PBM %.0f, ACBM %.0f, FSBM %.0f", p, a, f)
	}
	if a > f/2 {
		t.Fatalf("ACBM %.0f points/MB, expected well below FSBM's %.0f on Carphone", a, f)
	}
}

func TestACBMQualityTracksFSBMOnHardContent(t *testing.T) {
	// Foreman at 10 fps, low Qp: the regime where PBM degrades. ACBM must
	// stay close to FSBM in both PSNR and rate.
	base := video.Generate(video.Foreman, frame.QCIF, 36, 1)
	frames := video.Decimate(base, 3)
	acbm := encodeWith(t, core.New(core.DefaultParams), frames, 14, 10)
	fsbm := encodeWith(t, &search.FSBM{}, frames, 14, 10)
	if acbm.AvgPSNRY() < fsbm.AvgPSNRY()-0.15 {
		t.Fatalf("ACBM PSNR %.2f more than 0.15 dB below FSBM %.2f", acbm.AvgPSNRY(), fsbm.AvgPSNRY())
	}
	if acbm.BitrateKbps() > fsbm.BitrateKbps()*1.05 {
		t.Fatalf("ACBM rate %.1f more than 5%% above FSBM %.1f", acbm.BitrateKbps(), fsbm.BitrateKbps())
	}
}

func TestPBMPaysRateOnAbruptMotion(t *testing.T) {
	// The paper's Fig. 6 gap: on Foreman at 10 fps PBM must be strictly
	// worse than ACBM in rate-distortion terms.
	base := video.Generate(video.Foreman, frame.QCIF, 36, 1)
	frames := video.Decimate(base, 3)
	var acbmCurve, pbmCurve ratedist.Curve
	acbmCurve.Name, pbmCurve.Name = "ACBM", "PBM"
	for _, qp := range []int{26, 20, 14} {
		a := encodeWith(t, core.New(core.DefaultParams), frames, qp, 10)
		p := encodeWith(t, &search.PBM{}, frames, qp, 10)
		acbmCurve.Points = append(acbmCurve.Points, ratedist.Point{RateKbps: a.BitrateKbps(), PSNR: a.AvgPSNRY(), Qp: qp})
		pbmCurve.Points = append(pbmCurve.Points, ratedist.Point{RateKbps: p.BitrateKbps(), PSNR: p.AvgPSNRY(), Qp: qp})
	}
	savings, err := ratedist.AvgRateSavings(&acbmCurve, &pbmCurve)
	if err != nil {
		t.Fatal(err)
	}
	if savings <= 0 {
		t.Fatalf("ACBM rate savings vs PBM = %.2f%%, expected positive on Foreman@10fps", 100*savings)
	}
}

func TestFSBMFieldLessCoherentThanACBM(t *testing.T) {
	// §2.3: FSBM's motion field is incoherent relative to predictive
	// methods. Measure field smoothness directly on a textured sequence.
	frames := video.Generate(video.Foreman, frame.QCIF, 3, 1)
	cols, rows := frame.QCIF.MacroblockCols(), frame.QCIF.MacroblockRows()
	run := func(s search.Searcher) float64 {
		ref := frames[1]
		cur := frames[2]
		fld := mvfield.NewField(cols, rows)
		for mby := 0; mby < rows; mby++ {
			for mbx := 0; mbx < cols; mbx++ {
				in := &search.Input{
					Cur: cur.Y, Ref: ref.Y,
					BX: 16 * mbx, BY: 16 * mby, W: 16, H: 16,
					Range: 15, Qp: 16,
					CurField: fld, MBX: mbx, MBY: mby,
				}
				fld.Set(mbx, mby, s.Search(in).MV)
			}
		}
		return fld.Smoothness()
	}
	fsbmSmooth := run(&search.FSBM{})
	acbmSmooth := run(core.New(core.DefaultParams))
	if acbmSmooth > fsbmSmooth {
		t.Fatalf("ACBM field rougher (%.2f) than FSBM (%.2f)", acbmSmooth, fsbmSmooth)
	}
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

func TestEndToEndReproPipelineSmoke(t *testing.T) {
	// A miniature version of `acbmbench -experiment all` must run clean.
	if testing.Short() {
		t.Skip("short mode")
	}
	study, err := experiment.RunMVStudy(experiment.MVStudyConfig{
		Size: frame.SQCIF, MVs: video.DefaultGlobalMVs[:3],
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := study.ConclusionsHold(); err != nil {
		t.Fatal(err)
	}
	t1, err := experiment.RunTable1(experiment.Table1Config{
		Size: frame.SQCIF, Frames: 10, Qps: []int{30, 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if t1.MaxReduction() < 0.5 {
		t.Fatalf("max reduction %.2f implausibly low", t1.MaxReduction())
	}
	cfg := experiment.RDConfig{Profile: video.Foreman, Size: frame.SQCIF, Frames: 10, Qps: []int{30, 22, 16}}
	curves, err := experiment.RDSweep(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := experiment.ComputeHeadline(cfg, curves, t1); err != nil {
		t.Fatal(err)
	}
}
