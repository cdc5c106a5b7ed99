package search_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/mvfield"
	"repro/internal/search"
	"repro/internal/video"
)

// collecting runs its searcher with Input.Collect set, the route the
// Fig. 4 study takes: PBM then folds its candidates one point at a time.
type collecting struct{ search.Searcher }

func (c collecting) Search(in *search.Input) search.Result {
	cp := *in
	cp.Collect = &metrics.Deviation{}
	return c.Searcher.Search(&cp)
}

// pinnedSearchers are the per-point searchers whose vectors, SADs and point
// counts a restructuring of their loops must not move. The constants were
// recorded before the fast searches became pattern schedules: blocks hashes
// (MV, SAD, Points) — plus Collect's count and deviation when collect is
// set — for every macroblock of three consecutive Foreman and Table Tennis
// QCIF frame pairs at Range 15, 7 and 2, edge macroblocks included; stream
// and points are the bitstream hash and total search points of a 10-frame
// Foreman encode at Qp 16 (every third frame of 30: larger motion than
// consecutive frames, so no two searchers share a stream).
var pinnedSearchers = []struct {
	s       search.Searcher
	collect bool
	blocks  string
	stream  string
	points  int
}{
	{&search.TSS{}, false,
		"a6bcac367c042811e0b52d8aa2d6e1d18772049c091226057502f648b282a7b6",
		"6c9c31e744e735314fe4079ece3762a1922708402019fdd99a5e1134d71cc6e6", 32539},
	{&search.NTSS{}, false,
		"1167ed989dce1cbf30c24895a78300a4991357df0d84fa3dd365ee7200683ef3",
		"ac8680f53d09f29cd5d7654efe564943f156dcdc5b1fb209c47e0998d2928376", 25059},
	{&search.FSS{}, false,
		"b46dd890d4bd8ed136e23b61a11e5335d180600eb2814dbba1fbbd31b06be5ae",
		"9b30b5e2cde86c179d8dd4bb32583cf8296cfe84cf41d9138511a0c61d9b36fe", 23272},
	{&search.Diamond{}, false,
		"83454005023be76609a7791c2c82e978a86b15619264ac32c95b3d26733e08d1",
		"1a8089878f9fa11f3726113c2cf5dbce5b4bcfad16a4bc1b58fdf17ee1bf2204", 21657},
	{&search.CrossDiamond{}, false,
		"9361cd7ed8ade8850a23791f6088aed46f95b56375205417e243b5fd0a62d646",
		"dc72990356469fff7b5336c8525beb715429ba3786ae8f0f9a9e8734c2171fcf", 23041},
	{&search.HEXBS{}, false,
		"f683fae356475b6cfe288b869b537864c3e627ca42c43d0b02377058c2c88dc0",
		"8a866ff2a7c57fd9011916fa5068d707659b78bec4cf4bee6446212fddd280d2", 18071},
	{&search.PBM{}, true,
		"efb582343b391cdf195a9c35da8baa2b6d6c49c5e1988b5c65b1aa3da847f428",
		"bca8f0d287f1e48ae0b6bdd0e74ac9457a320f330de0d0b5c95a035125017622", 14204},
}

// blockDigest searches every macroblock of the pinned clips with s, feeding
// PBM's predictors a causally filled current field and the previous pair's.
func blockDigest(s search.Searcher, collect bool) string {
	h := sha256.New()
	const cols, rows = 176 / 16, 144 / 16
	for _, p := range []video.Profile{video.Foreman, video.TableTennis} {
		frames := video.Generate(p, frame.QCIF, 4, 7)
		for _, rng := range []int{15, 7, 2} {
			var prev *mvfield.Field
			for i := 1; i < len(frames); i++ {
				cur := mvfield.NewField(cols, rows)
				for mby := 0; mby < rows; mby++ {
					for mbx := 0; mbx < cols; mbx++ {
						var dev metrics.Deviation
						in := &search.Input{
							Cur: frames[i].Y, Ref: frames[i-1].Y,
							BX: 16 * mbx, BY: 16 * mby, W: 16, H: 16, Range: rng, Qp: 16,
							CurField: cur, PrevField: prev, MBX: mbx, MBY: mby,
						}
						if collect {
							in.Collect = &dev
						}
						r := s.Search(in)
						cur.Set(mbx, mby, r.MV)
						fmt.Fprintf(h, "%d %d %d %d %d %d\n", r.MV.X, r.MV.Y, r.SAD, r.Points, dev.N(), dev.Value())
					}
				}
				prev = cur
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPinnedSearcherResults holds TSS, NTSS, 4SS, DS, CDS, HEXBS and PBM's
// per-point route to the vectors, SADs, point counts and streams they
// produced as hand-written loops.
func TestPinnedSearcherResults(t *testing.T) {
	frames := video.Decimate(video.Generate(video.Foreman, frame.QCIF, 30, 7), 3)
	for _, c := range pinnedSearchers {
		if got := blockDigest(c.s, c.collect); got != c.blocks {
			t.Errorf("%s: block digest %s, pinned %s", c.s.Name(), got, c.blocks)
		}
		s := c.s
		if c.collect {
			s = collecting{s}
		}
		stats, bs, err := codec.EncodeSequence(codec.Config{Qp: 16, Searcher: s}, frames)
		if err != nil {
			t.Fatal(err)
		}
		points := 0
		for _, f := range stats.Frames {
			points += f.SearchPoints
		}
		sum := sha256.Sum256(bs)
		if got := hex.EncodeToString(sum[:]); got != c.stream || points != c.points {
			t.Errorf("%s: stream %s with %d points, pinned %s with %d", c.s.Name(), got, points, c.stream, c.points)
		}
	}
}
