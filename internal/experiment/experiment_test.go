package experiment

import (
	"fmt"
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

// Small configurations keep the tests fast; the cmd tools and benches run
// the full-scale versions.

func miniTable1Config() Table1Config {
	return Table1Config{
		Size:   frame.SQCIF,
		Frames: 13,
		Qps:    []int{30, 16},
	}
}

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

func TestRunTable1ShapeClaims(t *testing.T) {
	defer ClearCache()
	res, err := RunTable1(miniTable1Config())
	if err != nil {
		t.Fatal(err)
	}
	// Every configured cell must exist with sane values.
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
	// Paper shape: Miss America is the cheapest column, Foreman the most
	// expensive.
	for _, dec := range []int{1, 3} {
		miss := res.MeanPoints(video.MissAmerica, dec)
		fore := res.MeanPoints(video.Foreman, dec)
		car := res.MeanPoints(video.Carphone, dec)
		tab := res.MeanPoints(video.TableTennis, dec)
		if !(miss < car && miss < fore && miss < tab) {
			t.Errorf("dec %d: Miss America %.0f not cheapest (car %.0f fore %.0f tab %.0f)",
				dec, miss, car, fore, tab)
		}
		if !(fore > car && fore > tab) {
			t.Errorf("dec %d: Foreman %.0f not most expensive (car %.0f tab %.0f)", dec, fore, car, tab)
		}
	}
	// Paper shape: complexity grows as Qp decreases (within a small
	// tolerance — on near-static content the costs are nearly equal).
	for _, p := range video.Profiles {
		hi, _ := res.Cell(p, 1, 30)
		lo, _ := res.Cell(p, 1, 16)
		if lo.AvgPoints < hi.AvgPoints-1 {
			t.Errorf("%v: qp16 cost %.1f below qp30 cost %.1f", p, lo.AvgPoints, hi.AvgPoints)
		}
	}
	// Paper headline: large max reduction vs FSBM.
	if res.MaxReduction() < 0.9 {
		t.Errorf("max reduction %.2f, expected >= 0.9 on easy content", res.MaxReduction())
	}
	for _, e := range table1PinErrors(res) {
		t.Error(e)
	}
}

// table1Pins are this reproduction's own Table 1 cells at
// miniTable1Config, 30 fps (dec 1), Qp 16, in points per macroblock: one
// cell per sequence, from Miss America (everything accepted early) to
// Foreman (98 % of blocks escalate to full search). The encoder's bits do
// not depend on Workers, Pipeline, Pool or kernel ISA, so each cell is an
// exact number; the pins are those numbers rounded to 0.1 and
// table1PinTol is relative. The orderings above are the paper's shape;
// these catch a mistuned α, β or γ, which moves cells without breaking
// the shape (TestTable1PinsCatchMistunedParams).
var table1Pins = map[video.Profile]float64{
	video.Carphone:    39.9,
	video.Foreman:     706.8,
	video.MissAmerica: 11.6,
	video.TableTennis: 66.9,
}

const table1PinTol = 0.01

// table1PinErrors lists every pinned cell res misses by more than
// table1PinTol.
func table1PinErrors(res *Table1Result) []string {
	var errs []string
	for _, p := range video.Profiles {
		want := table1Pins[p]
		cell, ok := res.Cell(p, 1, 16)
		if !ok {
			errs = append(errs, fmt.Sprintf("%v dec 1 Qp 16: no cell", p))
			continue
		}
		if math.Abs(cell.AvgPoints-want) > table1PinTol*want {
			errs = append(errs, fmt.Sprintf("%v dec 1 Qp 16: %.1f points/MB, pinned %.1f ±%.0f%%",
				p, cell.AvgPoints, want, 100*table1PinTol))
		}
	}
	return errs
}

// TestTable1PinsCatchMistunedParams is the gate's mutation test: each
// threshold moved by a factor the shape claims tolerate must fail a pin.
func TestTable1PinsCatchMistunedParams(t *testing.T) {
	defer ClearCache()
	d := core.DefaultParams
	alpha4, alphaQuarter, gammaHalf := d, d, d
	alpha4.Alpha *= 4
	alphaQuarter.Alpha /= 4
	gammaHalf.GammaNum, gammaHalf.GammaDen = 1, 2
	for name, params := range map[string]core.Params{"α×4": alpha4, "α/4": alphaQuarter, "γ=1/2": gammaHalf} {
		cfg := miniTable1Config()
		cfg.Qps, cfg.Decimations, cfg.Params = []int{16}, []int{1}, params
		res, err := RunTable1(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(table1PinErrors(res)) == 0 {
			t.Errorf("%s (%+v) passes every Table 1 pin", name, params)
		}
	}
}

// TestACBMPSNRGapToFSBMPinned pins the paper's quality claim per sequence:
// ACBM's PSNR minus FSBM's at miniTable1Config's 30 fps, Qp 16 operating
// point, in dB. Where ACBM escalates almost every block (Foreman) the two
// coincide; on Miss America it accepts PBM's vector everywhere and pays
// 0.31 dB for 4 % less rate. The gaps are exact numbers for the same
// reason the cells are, rounded to 1 mdB.
func TestACBMPSNRGapToFSBMPinned(t *testing.T) {
	defer ClearCache()
	gaps := map[video.Profile]float64{
		video.Carphone:    -0.056,
		video.Foreman:     0,
		video.MissAmerica: -0.311,
		video.TableTennis: -0.016,
	}
	const tolDB = 0.005
	mini := miniTable1Config()
	for _, p := range video.Profiles {
		curves, err := RDSweep(RDConfig{
			Profile: p, Size: mini.Size, Frames: mini.Frames, Qps: []int{16},
		}, DefaultAlgorithms()[:2])
		if err != nil {
			t.Fatal(err)
		}
		acbm, err := FindCurve(curves, "ACBM")
		if err != nil {
			t.Fatal(err)
		}
		fsbm, err := FindCurve(curves, "FSBM")
		if err != nil {
			t.Fatal(err)
		}
		gap := acbm.Points[0].PSNR - fsbm.Points[0].PSNR
		if math.Abs(gap-gaps[p]) > tolDB {
			t.Errorf("%v: ACBM − FSBM PSNR %+.4f dB, pinned %+.3f ±%.3f", p, gap, gaps[p], tolDB)
		}
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
}

func TestRunMVStudyAndConclusions(t *testing.T) {
	defer ClearCache()
	res, err := RunMVStudy(MVStudyConfig{
		Profiles: []video.Profile{video.Foreman, video.MissAmerica},
		Size:     frame.SQCIF,
		MVs:      video.DefaultGlobalMVs[:5],
		Range:    15,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantSamples := 2 * 5 * (128 / 16) * (96 / 16)
	if len(res.Samples) != wantSamples {
		t.Fatalf("samples = %d, want %d", len(res.Samples), wantSamples)
	}
	total := 0
	for c := 0; c < ErrClasses; c++ {
		total += res.Classes[c].Count
	}
	if total != wantSamples {
		t.Fatal("class counts do not partition samples")
	}
	// Global full-pel motion on a mostly interior grid: FSBM must find the
	// true vector for a clear majority of blocks.
	if res.TrueVectorRate() < 0.6 {
		t.Fatalf("true vector rate %.2f too low", res.TrueVectorRate())
	}
	// The paper's two conclusions must hold on this data.
	if err := res.ConclusionsHold(); err != nil {
		t.Fatal(err)
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

func TestRDSweepProducesOrderedCurves(t *testing.T) {
	defer ClearCache()
	curves, err := RDSweep(RDConfig{
		Profile: video.Carphone,
		Size:    frame.SQCIF,
		Frames:  9,
		Qps:     []int{30, 22, 16},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 3 {
		t.Fatalf("curves = %d, want 3 (ACBM, FSBM, PBM)", len(curves))
	}
	for _, c := range curves {
		if len(c.Points) != 3 {
			t.Fatalf("%s: %d points", c.Name, len(c.Points))
		}
		for i := 1; i < len(c.Points); i++ {
			if c.Points[i].RateKbps < c.Points[i-1].RateKbps {
				t.Fatalf("%s: points not sorted by rate", c.Name)
			}
		}
		// Lower Qp must give higher PSNR within each curve.
		byQp := map[int]float64{}
		for _, p := range c.Points {
			byQp[p.Qp] = p.PSNR
		}
		if !(byQp[16] > byQp[22] && byQp[22] > byQp[30]) {
			t.Fatalf("%s: PSNR not monotone in Qp: %v", c.Name, byQp)
		}
	}
	if _, err := FindCurve(curves, "ACBM"); err != nil {
		t.Fatal(err)
	}
	if _, err := FindCurve(curves, "nope"); err == nil {
		t.Fatal("unknown curve found")
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
	out = FormatRDCurves(ProfileTitle(video.MissAmerica, 1), curves)
	for _, want := range []string{"Miss America sequence, QCIF@30fps", "ACBM", "FSBM", "PBM", "kbit/s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("curves missing %q:\n%s", want, out)
		}
	}
	if ProfileTitle(video.Foreman, 3) != "Foreman sequence, QCIF@10fps" {
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

func TestHardwareReport(t *testing.T) {
	defer ClearCache()
	t1, err := RunTable1(Table1Config{
		Profiles: []video.Profile{video.Foreman, video.MissAmerica},
		Size:     frame.SQCIF, Frames: 10, Qps: []int{16}, Decimations: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := HardwareReport(t1, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ACBM-shared", "FSBM-systolic", "PBM-engine", "cycles/MB"} {
		if !strings.Contains(out, want) {
			t.Fatalf("hardware report missing %q", want)
		}
	}
	if _, err := HardwareReport(t1, 99); err == nil {
		t.Fatal("missing Qp accepted")
	}
	// The easy sequence must save substantially more energy than hard.
	easy, err := HardwareSummary(t1, video.MissAmerica, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	hard, err := HardwareSummary(t1, video.Foreman, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	if easy <= hard {
		t.Fatalf("energy saving ordering violated: easy %.2f <= hard %.2f", easy, hard)
	}
	if easy < 0.5 {
		t.Fatalf("easy-content energy saving %.2f implausibly low", easy)
	}
}

func TestRunParetoSweep(t *testing.T) {
	defer ClearCache()
	cfg := ParetoConfig{
		Profile: video.Foreman, Size: frame.SQCIF, Frames: 8, Qp: 14,
		Grid: []core.Params{
			{Alpha: 0, Beta: 0, GammaNum: 0, GammaDen: 1},       // always-FSBM
			{Alpha: 1 << 30, Beta: 0, GammaNum: 0, GammaDen: 1}, // always-PBM
			core.DefaultParams,
		},
	}
	points, err := RunPareto(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points", len(points))
	}
	// Sorted by complexity: PBM endpoint first, FSBM endpoint last.
	if points[0].AvgPoints >= points[len(points)-1].AvgPoints {
		t.Fatal("points not sorted by complexity")
	}
	// The endpoints bracket the paper point.
	var paper ParetoPoint
	found := false
	for _, p := range points {
		if p.Params == core.DefaultParams {
			paper, found = p, true
		}
	}
	if !found {
		t.Fatal("paper point missing")
	}
	// On this short hard clip at Qp 14 the paper point can coincide with
	// the always-FSBM endpoint; it must never fall outside the bracket.
	if paper.AvgPoints < points[0].AvgPoints || paper.AvgPoints > points[len(points)-1].AvgPoints {
		t.Fatalf("paper point %.0f outside endpoints %.0f and %.0f",
			paper.AvgPoints, points[0].AvgPoints, points[len(points)-1].AvgPoints)
	}
	// At least one point must be efficient, and the cheapest point always is.
	if !points[0].Efficient {
		t.Fatal("cheapest point must be Pareto-efficient")
	}
	out := FormatPareto(cfg, points)
	for _, want := range []string{"Pareto", "positions/MB", "inf", "*"} {
		if !strings.Contains(out, want) {
			t.Fatalf("pareto table missing %q:\n%s", want, out)
		}
	}
}

func TestMarkEfficient(t *testing.T) {
	pts := []ParetoPoint{
		{AvgPoints: 10, PSNRY: 30},
		{AvgPoints: 20, PSNRY: 29}, // dominated by the first
		{AvgPoints: 30, PSNRY: 32},
	}
	markEfficient(pts)
	if !pts[0].Efficient || pts[1].Efficient || !pts[2].Efficient {
		t.Fatalf("efficiency flags wrong: %+v", pts)
	}
}

func TestDefaultParamGridValid(t *testing.T) {
	for _, p := range DefaultParamGrid() {
		if err := p.Validate(); err != nil {
			t.Fatalf("grid point %+v invalid: %v", p, err)
		}
	}
	if len(DefaultParamGrid()) < 10 {
		t.Fatal("grid too small to be a sweep")
	}
}

func TestRunResilience(t *testing.T) {
	defer ClearCache()
	cfg := ResilienceConfig{
		Profile: video.Foreman, Size: frame.SQCIF, Frames: 24, Qp: 12,
		LossRates:    []float64{0, 0.15},
		IntraPeriods: []int{0, 6},
	}
	points, err := RunResilience(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points", len(points))
	}
	byKey := map[[2]int]ResiliencePoint{}
	for _, p := range points {
		byKey[[2]int{p.IntraPeriod, int(100 * p.LossRate)}] = p
	}
	// Loss hurts quality in both configurations.
	if byKey[[2]int{0, 15}].PSNRY >= byKey[[2]int{0, 0}].PSNRY {
		t.Fatal("loss did not reduce PSNR without intra refresh")
	}
	if byKey[[2]int{6, 15}].PSNRY >= byKey[[2]int{6, 0}].PSNRY {
		t.Fatal("loss did not reduce PSNR with intra refresh")
	}
	// Intra refresh costs rate but recovers quality under loss.
	if byKey[[2]int{6, 0}].RateKbps <= byKey[[2]int{0, 0}].RateKbps {
		t.Fatal("intra refresh did not cost rate")
	}
	if byKey[[2]int{6, 15}].PSNRY <= byKey[[2]int{0, 15}].PSNRY {
		t.Fatalf("intra refresh did not help under loss: %.2f vs %.2f",
			byKey[[2]int{6, 15}].PSNRY, byKey[[2]int{0, 15}].PSNRY)
	}
	out := FormatResilience(cfg, points)
	for _, want := range []string{"Loss resilience", "first-only", "lost"} {
		if !strings.Contains(out, want) {
			t.Fatalf("resilience table missing %q", want)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{10, 20, 30})
	if s.Mean != 20 || s.Min != 10 || s.Max != 30 || s.N != 3 {
		t.Fatalf("stats wrong: %+v", s)
	}
	if s.StdDev < 9.9 || s.StdDev > 10.1 {
		t.Fatalf("stddev = %v, want 10", s.StdDev)
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty sample not zero")
	}
	one := Summarize([]float64{5})
	if one.StdDev != 0 || one.Mean != 5 {
		t.Fatalf("single sample: %+v", one)
	}
	if !strings.Contains(s.String(), "n=3") {
		t.Fatal("String missing n")
	}
}

func TestMultiSeedTable1Replication(t *testing.T) {
	defer ClearCache()
	st, err := MultiSeedTable1(video.MissAmerica, 1, 30, 7, []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 3 || st.Mean <= 0 {
		t.Fatalf("replication stats: %+v", st)
	}
	// Easy content must stay cheap for every seed.
	if st.Max > 100 {
		t.Fatalf("Miss America max %.0f positions/MB across seeds", st.Max)
	}
	if _, err := MultiSeedTable1(video.Foreman, 1, 30, 7, nil); err == nil {
		t.Fatal("empty seed list accepted")
	}
	out, err := FormatMultiSeed(1, 30, 7, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"replication", "Foreman", "±"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestDispatchReportSane runs the CI-time dispatch sanity probe on the
// real dispatch state of the machine running the tests.
func TestDispatchReportSane(t *testing.T) {
	report, err := DispatchReport()
	if err != nil {
		t.Fatalf("DispatchReport: %v\n%s", err, report)
	}
	for _, want := range []string{"kernel tiers:", "active tier:", "probe scalar ok", "probe swar   ok"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}
