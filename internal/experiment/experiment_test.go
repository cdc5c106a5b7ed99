package experiment

import (
	"math"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/mvfield"
	"repro/internal/ratedist"
	"repro/internal/video"
)

func TestFramesCacheReturnsSameSlice(t *testing.T) {
	defer ClearCache()
	a := Frames(video.Carphone, frame.SQCIF, 3, 1)
	b := Frames(video.Carphone, frame.SQCIF, 3, 1)
	if &a[0] == nil || &a[0] != &b[0] {
		t.Fatal("cache miss on identical key")
	}
	c := Frames(video.Carphone, frame.SQCIF, 3, 2)
	if &a[0] == &c[0] {
		t.Fatal("cache hit on different seed")
	}
}

// TestClaims checks every row of the claims table once, on its own seed
// and configuration. `acbmbench -experiment seeds` checks the shape rows
// on every seed of Seeds.
func TestClaims(t *testing.T) {
	runs := map[uint64]*Run{}
	for i := range Claims {
		c := &Claims[i]
		if runs[c.Seed] == nil {
			runs[c.Seed] = &Run{Seed: c.Seed}
		}
		t.Run(c.ID, func(t *testing.T) {
			if line, ok := c.Verify(runs[c.Seed]); !ok {
				t.Errorf("%s\n%s", line, c.Text)
			} else {
				t.Log(line)
			}
		})
	}
}

// TestTable1PinsCatchMistunedParams is the gate's mutation test: each
// threshold moved by a factor the shape rows tolerate must fail a Table 1
// pin row.
func TestTable1PinsCatchMistunedParams(t *testing.T) {
	defer ClearCache()
	d := core.DefaultParams
	alpha4, alphaQuarter, gammaHalf := d, d, d
	alpha4.Alpha *= 4
	alphaQuarter.Alpha /= 4
	gammaHalf.GammaNum, gammaHalf.GammaDen = 1, 2
	for name, params := range map[string]core.Params{"α×4": alpha4, "α/4": alphaQuarter, "γ=1/2": gammaHalf} {
		r := &Run{Seed: DefaultSeed, Testbed: Testbed{Qps: []int{16}, Params: params}}
		caught := false
		for i := range Claims {
			if c := &Claims[i]; strings.HasPrefix(c.ID, "table1-pin-") {
				if _, ok := c.Verify(r); !ok {
					caught = true
				}
			}
		}
		if !caught {
			t.Errorf("%s (%+v) passes every Table 1 pin", name, params)
		}
	}
}

// TestVerifySeedsReportsFailure feeds the seeds runner a row that must
// fail on one seed and a pinned row of another seed, which must not run.
func TestVerifySeedsReportsFailure(t *testing.T) {
	seven := func(r *Run) (float64, string, error) { return float64(r.Seed), "here", nil }
	claims := []Claim{
		{ID: "never", Measure: seven, Want: atMost(0)},
		{ID: "pinned-elsewhere", Seed: 9, Pinned: true, Measure: seven, Want: above(0)},
	}
	var out strings.Builder
	if n := VerifySeeds(&out, claims, []uint64{7}, Testbed{}); n != 1 {
		t.Fatalf("%d failures, want 1:\n%s", n, out.String())
	}
	line := out.String()
	for _, want := range []string{"FAIL", "never", "seed 7", " 7 (want <= 0) here"} {
		if !strings.Contains(line, want) {
			t.Errorf("verdict %q lacks %q", line, want)
		}
	}
	if strings.Count(line, "\n") != 1 {
		t.Errorf("a pinned row ran off its seed:\n%s", line)
	}
	seen := map[uint64]bool{}
	for _, s := range Seeds {
		if s == 0 || seen[s] {
			t.Errorf("Seeds %v: 0 or a repeat", Seeds)
		}
		seen[s] = true
	}
	if len(seen) != 8 {
		t.Errorf("Seeds %v: want 8", Seeds)
	}
}

// TestArithmeticCodingBDRate pins the verdict that keeps the arithmetic
// entropy mode (the Annex E counterpart): its BD-rate against Exp-Golomb —
// the mean rate change at equal PSNR, −ratedist.AvgRateSavings — for ACBM
// at default parameters on QCIF, 30 frames, seed 2005, Qp {10, 13, 16,
// 20, 24}. The two modes code the same symbols, so PSNR is identical and
// every point is a pure rate saving. Each clip is pinned to ±0.05 points;
// DESIGN.md §1 records the numbers.
func TestArithmeticCodingBDRate(t *testing.T) {
	defer ClearCache()
	pinned := map[video.Profile]float64{
		video.MissAmerica: -32.66,
		video.Carphone:    -33.62,
		video.Foreman:     -39.86,
		video.TableTennis: -36.40,
	}
	const tol = 0.05
	qps := []int{10, 13, 16, 20, 24}
	modes := []codec.EntropyMode{codec.EntropyExpGolomb, codec.EntropyArith}
	points := make([]ratedist.Point, len(video.Profiles)*len(modes)*len(qps))
	err := forEachIndex(len(points), func(i int) error {
		p, mode, qp := video.Profiles[i/(len(modes)*len(qps))], modes[i/len(qps)%len(modes)], qps[i%len(qps)]
		stats, _, err := codec.EncodeSequence(codec.Config{
			Qp: qp, Searcher: core.New(core.DefaultParams), Entropy: mode, Workers: 1,
		}, Frames(p, frame.QCIF, 30, DefaultSeed))
		if err != nil {
			return err
		}
		points[i] = ratedist.Point{RateKbps: stats.BitrateKbps(), PSNR: stats.AvgPSNRY(), Qp: qp}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for i, p := range video.Profiles {
		clip := points[i*len(modes)*len(qps):]
		eg := ratedist.Curve{Name: "expgolomb", Points: clip[:len(qps)]}
		arith := ratedist.Curve{Name: "arith", Points: clip[len(qps) : 2*len(qps)]}
		saving, err := ratedist.AvgRateSavings(&arith, &eg)
		if err != nil {
			t.Fatal(err)
		}
		bd := -100 * saving
		mean += bd / float64(len(video.Profiles))
		t.Logf("%v: BD-rate %+.2f %%", p, bd)
		if math.Abs(bd-pinned[p]) > tol {
			t.Errorf("%v: arithmetic coding BD-rate %+.3f %%, pinned %+.2f ±%.2f", p, bd, pinned[p], tol)
		}
	}
	t.Logf("mean BD-rate %+.2f %%", mean)
}

func TestRunTable1CellAccessors(t *testing.T) {
	res := &Table1Result{Cells: map[video.Profile]map[int]map[int]Table1Cell{}}
	if _, ok := res.Cell(video.Foreman, 1, 30); ok {
		t.Fatal("missing cell reported present")
	}
	if res.MeanPoints(video.Foreman, 1) != 0 {
		t.Fatal("empty MeanPoints must be 0")
	}
	if res.MaxReduction() != 0 {
		t.Fatal("empty MaxReduction must be 0")
	}
	// Every cell of the claims table's Table 1 run exists with sane values.
	res, err := table1(DefaultSeed, Testbed{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range video.Profiles {
		for _, dec := range []int{1, 3} {
			for _, qp := range []int{30, 16} {
				cell, ok := res.Cell(p, dec, qp)
				if !ok {
					t.Fatalf("missing cell %v/%d/%d", p, dec, qp)
				}
				if cell.AvgPoints <= 0 || cell.AvgPoints > FSBMPoints {
					t.Fatalf("%v/%d/%d: avg points %.0f out of range", p, dec, qp, cell.AvgPoints)
				}
				if cell.FSBMRate < 0 || cell.FSBMRate > 1 {
					t.Fatalf("%v/%d/%d: FSBM rate %.2f", p, dec, qp, cell.FSBMRate)
				}
			}
		}
	}
}

func TestMVStudyRejectsHalfPelMV(t *testing.T) {
	_, err := RunMVStudy(MVStudyConfig{
		Profiles: []video.Profile{video.Foreman},
		Size:     frame.SQCIF,
		MVs:      []mvfield.MV{{X: 1, Y: 0}},
	})
	if err == nil {
		t.Fatal("half-pel global MV accepted")
	}
}

func TestComputeHeadline(t *testing.T) {
	defer ClearCache()
	cfg := RDConfig{
		Profile: video.Carphone,
		Size:    frame.SQCIF,
		Frames:  9,
		Qps:     []int{30, 22, 16},
	}
	curves, err := RDSweep(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := RunTable1(Table1Config{
		Profiles: []video.Profile{video.Carphone},
		Size:     frame.SQCIF, Frames: 9,
		Qps: []int{30, 22, 16}, Decimations: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := ComputeHeadline(cfg, curves, t1)
	if err != nil {
		t.Fatal(err)
	}
	if h.AvgPoints <= 0 || h.Reduction <= 0 {
		t.Fatalf("headline complexity missing: %+v", h)
	}
	if !strings.Contains(h.String(), "ACBM") {
		t.Fatal("headline string malformed")
	}
	// Missing curves must error.
	if _, err := ComputeHeadline(cfg, curves[:1], t1); err == nil {
		t.Fatal("headline computed without FSBM curve")
	}
}

func TestFormatters(t *testing.T) {
	defer ClearCache()
	t1, err := RunTable1(Table1Config{
		Profiles: []video.Profile{video.MissAmerica},
		Size:     frame.SQCIF, Frames: 7, Qps: []int{30}, Decimations: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatTable1(t1)
	for _, want := range []string{"Table 1", "Qp", "Miss Ame", "reduction"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}

	study, err := RunMVStudy(MVStudyConfig{
		Profiles: []video.Profile{video.Foreman},
		Size:     frame.SQCIF,
		MVs:      video.DefaultGlobalMVs[:2],
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for c := 0; c < ErrClasses; c++ {
		total += study.Classes[c].Count
	}
	if want := 2 * (128 / 16) * (96 / 16); len(study.Samples) != want || total != want {
		t.Fatalf("%d samples in %d classified, want %d", len(study.Samples), total, want)
	}
	out = FormatMVStudy(study)
	for _, want := range []string{"Figure 4", "error", ">=5", "err=0 rate"} {
		if !strings.Contains(out, want) {
			t.Fatalf("study missing %q:\n%s", want, out)
		}
	}

	curves, err := RDSweep(RDConfig{
		Profile: video.MissAmerica, Size: frame.SQCIF, Frames: 7, Qps: []int{30, 22},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 3 {
		t.Fatalf("curves = %d, want 3 (ACBM, FSBM, PBM)", len(curves))
	}
	for _, c := range curves {
		if len(c.Points) != 2 || c.Points[1].RateKbps < c.Points[0].RateKbps {
			t.Fatalf("%s: points %v not two sorted by rate", c.Name, c.Points)
		}
	}
	out = FormatRDCurves(ProfileTitle(video.MissAmerica, frame.SQCIF, 1), curves)
	for _, want := range []string{"Miss America sequence, SQCIF@30fps", "ACBM", "FSBM", "PBM", "kbit/s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("curves missing %q:\n%s", want, out)
		}
	}
	if ProfileTitle(video.Foreman, frame.QCIF, 3) != "Foreman sequence, QCIF@10fps" {
		t.Fatal("ProfileTitle wrong")
	}
}

func TestDefaultParamsAccessor(t *testing.T) {
	if DefaultParams() != core.DefaultParams {
		t.Fatal("DefaultParams mismatch")
	}
}

func TestFormatMVStudyPanels(t *testing.T) {
	defer ClearCache()
	res, err := RunMVStudy(MVStudyConfig{
		Profiles: []video.Profile{video.Foreman},
		Size:     frame.SQCIF,
		MVs:      video.DefaultGlobalMVs[:2],
	})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatMVStudyPanels(res, 30, 6)
	for _, want := range []string{"error=0", "error>=5", "Intra_SAD", "SAD_deviation"} {
		if !strings.Contains(out, want) {
			t.Fatalf("panels missing %q", want)
		}
	}
}

func TestRunDecisionMap(t *testing.T) {
	dm, err := RunDecisionMap(video.Foreman, frame.SQCIF, 2, core.Params{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dm.Cols != 8 || dm.Rows != 6 {
		t.Fatalf("map %dx%d", dm.Cols, dm.Rows)
	}
	if dm.Stats.Blocks != 48 {
		t.Fatalf("blocks = %d", dm.Stats.Blocks)
	}
	out := dm.String()
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 7 { // 6 rows + summary
		t.Fatalf("map rendering wrong:\n%s", out)
	}
	if _, err := RunDecisionMap(video.Foreman, frame.SQCIF, 0, core.Params{}, 0); err == nil {
		t.Fatal("idx 0 accepted")
	}
}

// TestFieldSmootherCatchesFullSearch is the smoothness row's mutation
// test: α = β = γ = 0 sends every block to full search, so ACBM's field
// becomes FSBM's and the row must fail.
func TestFieldSmootherCatchesFullSearch(t *testing.T) {
	defer ClearCache()
	for i := range Claims {
		if c := &Claims[i]; c.ID == "acbm-field-smoother" {
			r := &Run{Seed: c.Seed, Testbed: Testbed{Params: core.Params{GammaDen: 1}}}
			if line, ok := c.Verify(r); ok {
				t.Errorf("passes with every block sent to full search:\n%s", line)
			} else {
				t.Log(line)
			}
			return
		}
	}
	t.Fatal("no acbm-field-smoother row")
}
