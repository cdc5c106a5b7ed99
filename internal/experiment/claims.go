package experiment

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/mvfield"
	"repro/internal/ratedist"
	"repro/internal/search"
	"repro/internal/video"
)

// Seeds are the renders every shape row must hold on (acbmbench
// -experiment seeds): the five texture seeds the replication report always
// used, the seed the cross-module rows take, and two more. 0 is not a
// seed: every config reads it as DefaultSeed.
var Seeds = []uint64{2005, 7, 42, 1234, 99991, 1, 3, 31337}

// A Claim is one row of the claims table: a claim of the paper in
// DESIGN.md §1's words, the experiment that measures it and the
// comparison that decides it.
type Claim struct {
	ID, Text string
	// Seed is the render `go test` checks the row on. A pinned row holds
	// a value of that render alone, and no other seed runs it.
	Seed   uint64
	Pinned bool
	// Measure returns the row's value on r and the case it was taken
	// from: the worst one, where the row compares several.
	Measure func(r *Run) (value float64, at string, err error)
	Want    Bound
}

// A Bound is the comparison a row's value must pass, and how it reads.
type Bound struct {
	Desc  string
	Holds func(v float64) bool
}

func above(x float64) Bound {
	return Bound{fmt.Sprintf("> %.4g", x), func(v float64) bool { return v > x }}
}

func atLeast(x float64) Bound {
	return Bound{fmt.Sprintf(">= %.4g", x), func(v float64) bool { return v >= x }}
}

func atMost(x float64) Bound {
	return Bound{fmt.Sprintf("<= %.4g", x), func(v float64) bool { return v <= x }}
}

func within(x, tol float64) Bound {
	return Bound{fmt.Sprintf("%.4g ± %.3g", x, tol), func(v float64) bool { return math.Abs(v-x) <= tol }}
}

// A Testbed replaces every row's frame size, sequence length, Qp list and
// ACBM parameters where a field is set. The zero Testbed runs each row at
// its own configuration, the only one its pinned value holds on.
type Testbed struct {
	Size   frame.Size
	Frames int
	Qps    []int
	Params core.Params
}

func (tb Testbed) qps(own ...int) []int {
	if len(tb.Qps) > 0 {
		return tb.Qps
	}
	return own
}

// A Run measures rows on one seed (never 0) and testbed. Each experiment
// runs at most once per Run, however many rows read it.
type Run struct {
	Seed    uint64
	Testbed Testbed
	memo    map[any]memo
}

type memo struct {
	v   any
	err error
}

// A probe is one experiment of the table.
type probe[T any] func(seed uint64, tb Testbed) (T, error)

// row turns a measure of one probe's result into a Claim.Measure.
func row[T any](p *probe[T], f func(T) (float64, string, error)) func(*Run) (float64, string, error) {
	return func(r *Run) (float64, string, error) {
		if r.memo == nil {
			r.memo = map[any]memo{}
		}
		m, ok := r.memo[p]
		if !ok {
			v, err := (*p)(r.Seed, r.Testbed)
			m = memo{v, err}
			r.memo[p] = m
		}
		if m.err != nil {
			return 0, "", m.err
		}
		return f(m.v.(T))
	}
}

// least keeps the smallest value it has seen and where it saw it.
type least struct {
	v  float64
	at string
}

func (l *least) see(v float64, at string) {
	if l.at == "" || v < l.v {
		l.v, l.at = v, at
	}
}

func (l *least) result() (float64, string, error) {
	if l.at == "" {
		return 0, "", fmt.Errorf("experiment: nothing to compare on this testbed")
	}
	return l.v, l.at, nil
}

// The experiments. A sweep over DefaultAlgorithms returns its curves or
// statistics in that order: ACBM, FSBM, PBM.
const acbm, fsbm, pbm = 0, 1, 2

var (
	// table1 is Table 1 at SQCIF, 13 frames, Qp 30 and 16, 30 and 10 fps.
	table1 probe[*Table1Result] = func(seed uint64, tb Testbed) (*Table1Result, error) {
		return RunTable1(Table1Config{Size: cmp.Or(tb.Size, frame.SQCIF), Frames: cmp.Or(tb.Frames, 13),
			Qps: tb.qps(30, 16), Params: tb.Params, Seed: seed})
	}
	// psnrGap is ACBM's PSNR minus FSBM's per sequence at table1's size
	// and length, 30 fps, the lowest Qp (16).
	psnrGap probe[map[video.Profile]float64] = func(seed uint64, tb Testbed) (map[video.Profile]float64, error) {
		gaps := map[video.Profile]float64{}
		for _, p := range video.Profiles {
			curves, err := RDSweep(RDConfig{Profile: p, Size: cmp.Or(tb.Size, frame.SQCIF), Frames: cmp.Or(tb.Frames, 13),
				Qps: []int{slices.Min(tb.qps(16))}, Params: tb.Params, Seed: seed}, DefaultAlgorithms()[:2])
			if err != nil {
				return nil, err
			}
			gaps[p] = curves[acbm].Points[0].PSNR - curves[fsbm].Points[0].PSNR
		}
		return gaps, nil
	}
	// fig4 is the Fig. 4 study on Foreman and Miss America, SQCIF, the
	// first five global motion vectors.
	fig4 probe[*MVStudyResult] = func(seed uint64, tb Testbed) (*MVStudyResult, error) {
		return RunMVStudy(MVStudyConfig{Profiles: []video.Profile{video.Foreman, video.MissAmerica},
			Size: cmp.Or(tb.Size, frame.SQCIF), MVs: video.DefaultGlobalMVs[:5], Seed: seed})
	}
	// carphoneRD is a Fig. 5 panel: Carphone, SQCIF, 9 frames, Qp 30, 22, 16.
	carphoneRD probe[[]ratedist.Curve] = func(seed uint64, tb Testbed) ([]ratedist.Curve, error) {
		return RDSweep(RDConfig{Profile: video.Carphone, Size: cmp.Or(tb.Size, frame.SQCIF), Frames: cmp.Or(tb.Frames, 9),
			Qps: tb.qps(30, 22, 16), Params: tb.Params, Seed: seed}, nil)
	}
	// carphoneCost is each algorithm's encode of Carphone, QCIF, 12
	// frames, 30 fps, at the lowest Qp (16).
	carphoneCost probe[[]*codec.SequenceStats] = func(seed uint64, tb Testbed) ([]*codec.SequenceStats, error) {
		return sweep(RDConfig{Profile: video.Carphone, Size: cmp.Or(tb.Size, frame.QCIF), Frames: cmp.Or(tb.Frames, 12),
			Qps: []int{slices.Min(tb.qps(16))}, Params: tb.Params, Seed: seed}, DefaultAlgorithms())
	}
	// foreman10 is a Fig. 6 panel: Foreman, QCIF, 36 frames at 10 fps
	// (12 coded), Qp 26, 20, 14.
	foreman10 probe[[]ratedist.Curve] = func(seed uint64, tb Testbed) ([]ratedist.Curve, error) {
		return RDSweep(RDConfig{Profile: video.Foreman, Size: cmp.Or(tb.Size, frame.QCIF), Frames: cmp.Or(tb.Frames, 36),
			Decimation: 3, Qps: tb.qps(26, 20, 14), Params: tb.Params, Seed: seed}, nil)
	}
	// panRoughness is the roughness (mvfield.Field.Smoothness: lower is
	// smoother) of the fields FSBM and ACBM find between consecutive
	// frames of Foreman's abrupt pan — the final third of its 60 frames,
	// QCIF — at Qp 30.
	panRoughness probe[[]pairRoughness] = func(seed uint64, tb Testbed) ([]pairRoughness, error) {
		n := cmp.Or(tb.Frames, DefaultFrames)
		f := Frames(video.Foreman, cmp.Or(tb.Size, frame.QCIF), n, seed)
		qp := slices.Max(tb.qps(30))
		roughness := func(s search.Searcher, t int) float64 {
			return searchField(f[t+1].Y, f[t].Y, qp, func(in *search.Input) mvfield.MV { return s.Search(in).MV }).Smoothness()
		}
		var out []pairRoughness
		for t := 2 * n / 3; t+1 < n; t++ {
			out = append(out, pairRoughness{From: t, FSBM: roughness(&search.FSBM{}, t),
				ACBM: roughness(core.New(cmp.Or(tb.Params, core.DefaultParams)), t)})
		}
		return out, nil
	}
)

// pairRoughness is the field roughness FSBM and ACBM give frame From+1
// searched against frame From.
type pairRoughness struct {
	From       int
	FSBM, ACBM float64
}

// atLowestQp returns a curve's point at its lowest Qp.
func atLowestQp(c ratedist.Curve) ratedist.Point {
	return slices.MinFunc(c.Points, func(a, b ratedist.Point) int { return a.Qp - b.Qp })
}

// Claims is the table: every claim of the paper the repository gates.
// The Table 1 and Fig. 4–5 rows take seed 2005, the cross-module rows
// (cost bracket, quality on hard content, field coherence) seed 1.
var Claims = []Claim{
	{ID: "miss-america-cheapest", Seed: DefaultSeed, Want: above(0),
		Text: "Miss America is the cheapest sequence (Table 1, mean over Qp, at 30 and 10 fps): its margin to the next, points/MB",
		Measure: row(&table1, func(t *Table1Result) (float64, string, error) {
			var l least
			for _, dec := range t.Config.Decimations {
				next := min(t.MeanPoints(video.Carphone, dec), t.MeanPoints(video.Foreman, dec), t.MeanPoints(video.TableTennis, dec))
				l.see(next-t.MeanPoints(video.MissAmerica, dec), fmt.Sprintf("%dfps", 30/dec))
			}
			return l.result()
		})},
	{ID: "foreman-dearest", Seed: DefaultSeed, Want: above(0),
		Text: "Foreman is the dearest sequence (Table 1, mean over Qp, at 30 and 10 fps): its margin to the next, points/MB",
		Measure: row(&table1, func(t *Table1Result) (float64, string, error) {
			var l least
			for _, dec := range t.Config.Decimations {
				next := max(t.MeanPoints(video.Carphone, dec), t.MeanPoints(video.TableTennis, dec))
				l.see(t.MeanPoints(video.Foreman, dec)-next, fmt.Sprintf("%dfps", 30/dec))
			}
			return l.result()
		})},
	{ID: "cost-rises-as-qp-falls", Seed: DefaultSeed, Want: atLeast(-1),
		Text: "ACBM's cost does not fall as Qp falls (Table 1, 30 fps): points/MB at the lowest Qp minus at the highest",
		Measure: row(&table1, func(t *Table1Result) (float64, string, error) {
			var l least
			for _, p := range t.Config.Profiles {
				lo, _ := t.Cell(p, 1, slices.Min(t.Config.Qps))
				hi, _ := t.Cell(p, 1, slices.Max(t.Config.Qps))
				l.see(lo.AvgPoints-hi.AvgPoints, p.String())
			}
			return l.result()
		})},
	{ID: "max-reduction", Seed: DefaultSeed, Want: atLeast(0.9),
		Text:    "ACBM cuts the search load by up to 95 % (Table 1): the largest cut against FSBM's 969 points/MB",
		Measure: row(&table1, func(t *Table1Result) (float64, string, error) { return t.MaxReduction(), "", nil })},
	// This reproduction's own Table 1 cells (30 fps, Qp 16), rounded to
	// 0.1, and ACBM's PSNR gap to FSBM, rounded to 1 mdB. The encoder's
	// bits depend on no Workers, Pipeline, Pool or kernel ISA setting, so
	// each is an exact number of the seed-2005 render. The cell pins catch
	// a mistuned α, β or γ, which moves cells without breaking the shape
	// (TestTable1PinsCatchMistunedParams).
	pin("table1-pin-", video.Carphone, 39.9, 0.01*39.9),
	pin("table1-pin-", video.Foreman, 706.8, 0.01*706.8),
	pin("table1-pin-", video.MissAmerica, 11.6, 0.01*11.6),
	pin("table1-pin-", video.TableTennis, 66.9, 0.01*66.9),
	pin("psnr-gap-pin-", video.Carphone, -0.056, 0.005),
	pin("psnr-gap-pin-", video.Foreman, 0, 0.005),
	pin("psnr-gap-pin-", video.MissAmerica, -0.311, 0.005),
	pin("psnr-gap-pin-", video.TableTennis, -0.016, 0.005),
	{ID: "fig4-texture", Seed: DefaultSeed, Want: above(0),
		Text:    "High-texture blocks are mostly assigned true motion vectors (Fig. 4): err=0 rate above the median Intra_SAD minus below it",
		Measure: row(&fig4, func(s *MVStudyResult) (float64, string, error) { return s.TextureMargin(), "", nil })},
	{ID: "fig4-deviation", Seed: DefaultSeed, Want: above(0),
		Text:    "True-vector blocks show a higher SAD_deviation than erroneous ones (Fig. 4): mean over err=0 minus over err>0",
		Measure: row(&fig4, func(s *MVStudyResult) (float64, string, error) { return s.DeviationMargin(), "", nil })},
	{ID: "fig4-true-vectors", Seed: DefaultSeed, Want: atLeast(0.6),
		Text:    "FSBM finds the true global motion of most blocks (Fig. 4's premise): err=0 rate",
		Measure: row(&fig4, func(s *MVStudyResult) (float64, string, error) { return s.TrueVectorRate(), "", nil })},
	{ID: "psnr-monotone-in-qp", Seed: DefaultSeed, Want: above(0),
		Text: "Every rate-distortion curve gains PSNR as Qp falls (Fig. 5): the least step between neighbouring Qps, dB",
		Measure: row(&carphoneRD, func(curves []ratedist.Curve) (float64, string, error) {
			var l least
			for _, c := range curves {
				pts := slices.SortedFunc(slices.Values(c.Points), func(a, b ratedist.Point) int { return a.Qp - b.Qp })
				for i := 1; i < len(pts); i++ {
					l.see(pts[i-1].PSNR-pts[i].PSNR, fmt.Sprintf("%s Qp %d→%d", c.Name, pts[i].Qp, pts[i-1].Qp))
				}
			}
			return l.result()
		})},
	{ID: "acbm-costs-at-least-pbm", Seed: 1, Want: atLeast(0),
		Text: "ACBM's cost lies above PBM's, whose search it starts with (Carphone): ACBM minus PBM points/MB",
		Measure: row(&carphoneCost, func(st []*codec.SequenceStats) (float64, string, error) {
			return st[acbm].AvgSearchPointsPerMB() - st[pbm].AvgSearchPointsPerMB(), "", nil
		})},
	{ID: "acbm-below-half-fsbm", Seed: 1, Want: atMost(0.5),
		Text: "ACBM's cost lies well below FSBM's (Carphone): ACBM points/MB over FSBM's",
		Measure: row(&carphoneCost, func(st []*codec.SequenceStats) (float64, string, error) {
			return st[acbm].AvgSearchPointsPerMB() / st[fsbm].AvgSearchPointsPerMB(), "", nil
		})},
	{ID: "acbm-psnr-tracks-fsbm", Seed: 1, Want: atLeast(-0.15),
		Text: "ACBM keeps FSBM's quality on hard content (Foreman@10fps, lowest Qp): ACBM minus FSBM PSNR, dB",
		Measure: row(&foreman10, func(c []ratedist.Curve) (float64, string, error) {
			return atLowestQp(c[acbm]).PSNR - atLowestQp(c[fsbm]).PSNR, "", nil
		})},
	{ID: "acbm-rate-tracks-fsbm", Seed: 1, Want: atMost(1.05),
		Text: "ACBM keeps FSBM's rate on hard content (Foreman@10fps, lowest Qp): ACBM rate over FSBM's",
		Measure: row(&foreman10, func(c []ratedist.Curve) (float64, string, error) {
			return atLowestQp(c[acbm]).RateKbps / atLowestQp(c[fsbm]).RateKbps, "", nil
		})},
	{ID: "acbm-saves-rate-vs-pbm", Seed: 1, Want: above(0),
		Text: "ACBM beats PBM on abrupt motion (Fig. 6, Foreman@10fps): ACBM's mean rate saving at equal PSNR",
		Measure: row(&foreman10, func(c []ratedist.Curve) (float64, string, error) {
			s, err := ratedist.AvgRateSavings(&c[acbm], &c[pbm])
			return s, "", err
		})},
	// §2.3's smoothness claim holds on every pair of the pan on seven of
	// the eight Seeds; on 31337 one pair's fields coincide (DESIGN.md §1).
	// So the row pins this render's margin instead: a mistuned ACBM whose
	// field drifts towards FSBM's fails it (TestFieldSmootherCatchesFullSearch).
	{ID: "acbm-field-smoother", Seed: 1, Pinned: true, Want: atMost(-1.48),
		Text: "ACBM's motion field is smoother than FSBM's on abrupt motion (§2.3, Foreman's pan, Qp 30): ACBM's field roughness minus FSBM's, worst frame pair",
		Measure: row(&panRoughness, func(pairs []pairRoughness) (float64, string, error) {
			if len(pairs) == 0 {
				return 0, "", fmt.Errorf("experiment: no frame pair on this testbed")
			}
			w := slices.MaxFunc(pairs, func(a, b pairRoughness) int { return cmp.Compare(a.ACBM-a.FSBM, b.ACBM-b.FSBM) })
			return w.ACBM - w.FSBM, fmt.Sprintf("frames %d→%d: ACBM %.4g, FSBM %.4g", w.From, w.From+1, w.ACBM, w.FSBM), nil
		})},
}

// pin is a pinned row of the seed-2005 render at 30 fps, Qp 16: p's
// Table 1 cell (kind "table1-pin-", points/MB) or ACBM's PSNR minus
// FSBM's ("psnr-gap-pin-", dB) is want ± tol.
func pin(kind string, p video.Profile, want, tol float64) Claim {
	c := Claim{ID: kind + strings.ToLower(strings.ReplaceAll(p.String(), " ", "")), Seed: DefaultSeed, Pinned: true,
		Want: within(want, tol),
		Text: fmt.Sprintf("ACBM's search load on %v: Table 1 cell at 30 fps, Qp 16, points/MB", p),
		Measure: row(&table1, func(t *Table1Result) (float64, string, error) {
			c, ok := t.Cell(p, 1, 16)
			if !ok {
				return 0, "", fmt.Errorf("experiment: no Table 1 cell for %v at 30 fps, Qp 16", p)
			}
			return c.AvgPoints, "", nil
		})}
	if kind == "psnr-gap-pin-" {
		c.Text = fmt.Sprintf("ACBM's quality is close to FSBM's on %v: PSNR gap at 30 fps, Qp 16, dB", p)
		c.Measure = row(&psnrGap, func(g map[video.Profile]float64) (float64, string, error) { return g[p], "", nil })
	}
	return c
}

// Verify measures c on r and returns its verdict line and whether the
// comparison holds.
func (c *Claim) Verify(r *Run) (string, bool) {
	v, at, err := c.Measure(r)
	if err != nil {
		v, at = math.NaN(), err.Error()
	}
	ok, verdict := c.Want.Holds(v), "FAIL"
	if ok {
		verdict = "PASS"
	}
	return fmt.Sprintf("%s  %-26s seed %-5d %.4g (want %s) %s", verdict, c.ID, r.Seed, v, c.Want.Desc, at), ok
}

// VerifySeeds measures every shape row of claims on each seed, and each
// pinned row on its own seed, on one testbed. It writes one verdict line
// per (row, seed) to w and returns the number of failures.
func VerifySeeds(w io.Writer, claims []Claim, seeds []uint64, tb Testbed) int {
	failed := 0
	for _, seed := range seeds {
		r := &Run{Seed: seed, Testbed: tb}
		for i := range claims {
			if c := &claims[i]; !c.Pinned || c.Seed == seed {
				line, ok := c.Verify(r)
				if !ok {
					failed++
				}
				fmt.Fprintln(w, line)
			}
		}
		ClearCache()
	}
	return failed
}
