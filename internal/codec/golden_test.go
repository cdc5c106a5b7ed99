package codec

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/search"
	"repro/internal/video"
)

// goldenFrames builds a fixed synthetic input that depends only on this
// function (not on the scene engine), so the hashes below pin the
// bitstream *format*: any unintended change to the DCT, quantiser,
// entropy layer or syntax ordering breaks these tests loudly.
func goldenFrames() []*frame.Frame {
	mk := func(phase int) *frame.Frame {
		f := frame.NewFrame(frame.SQCIF)
		for y := 0; y < f.Y.H; y++ {
			for x := 0; x < f.Y.W; x++ {
				f.Y.Set(x, y, uint8((x*3+y*5+phase*7)%251))
			}
		}
		for y := 0; y < f.Cb.H; y++ {
			for x := 0; x < f.Cb.W; x++ {
				f.Cb.Set(x, y, uint8(120+(x+phase)%16))
				f.Cr.Set(x, y, uint8(136-(y+phase)%16))
			}
		}
		return f
	}
	return []*frame.Frame{mk(0), mk(1), mk(2)}
}

// Golden digests. If a change is *intentional* (a deliberate format
// revision), update these values and note the format break in the README.
const (
	goldenExpGolomb = "56e88c9fa05c261072ab8fbb477a6cd8db9947983fc2679a5e7e2c289dae1e93"
	goldenArith     = "819a219500fdcabddd4f62b00e3a0bd66902d00ccdd4c73502890d633251f547"
)

func TestGoldenBitstreamExpGolomb(t *testing.T) {
	_, bs, err := EncodeSequence(Config{Qp: 12}, goldenFrames())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(bs)
	if got := hex.EncodeToString(sum[:]); got != goldenExpGolomb {
		t.Fatalf("exp-golomb bitstream digest changed:\n got  %s\n want %s\n"+
			"(format change? update the golden value only if intentional)", got, goldenExpGolomb)
	}
}

func TestGoldenBitstreamArith(t *testing.T) {
	_, bs, err := EncodeSequence(Config{Qp: 12, Entropy: EntropyArith}, goldenFrames())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(bs)
	if got := hex.EncodeToString(sum[:]); got != goldenArith {
		t.Fatalf("arithmetic bitstream digest changed:\n got  %s\n want %s", got, goldenArith)
	}
}

func TestGoldenStreamsDecode(t *testing.T) {
	for _, mode := range []EntropyMode{EntropyExpGolomb, EntropyArith} {
		_, bs, err := EncodeSequence(Config{Qp: 12, Entropy: mode}, goldenFrames())
		if err != nil {
			t.Fatal(err)
		}
		frames, err := Decode(bs)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if len(frames) != 3 {
			t.Fatalf("mode %v: decoded %d frames", mode, len(frames))
		}
	}
}

// Content goldens. goldenFrames above has no real motion, so the format
// goldens barely exercise the searchers; these pin what the searchers
// *decide* on moving content — stream digest and total search points for
// scene-engine clips (QCIF, 12 frames, seed 2005, Qp 24) under the three
// searchers of the paper. A search change that claims to be bit-exact
// must leave every row untouched.
var contentGoldens = []struct {
	profile  video.Profile
	searcher string
	digest   string
	points   int
}{
	{video.Carphone, "ACBM", "9bae48e7af3b3db6589c78a030a8479fe528cf1df6c388e1cc1708ee370829ff", 25918},
	{video.Carphone, "PBM", "037772dddb7939bef77c1a092631cc6a95d9a86ac71bf3434f149e61aedf3f15", 14044},
	{video.Carphone, "FSBM", "065086ecb0a2b7327ef470350051c70d856d1d9684a2dfc151b68343813e2b1e", 859329},
	{video.Foreman, "ACBM", "e659ac590f4ae593e0bb95b04f30cf56d8fb9b2a56ca19fe3aede45bedb49380", 91973},
	{video.Foreman, "PBM", "3fa0ee4edebf6994611609aa9d7e75f2a6b23fc0bae2f55058c6c4b05e56106a", 13522},
	{video.Foreman, "FSBM", "86d5f00a598ad3c6a5923258a60603ab895e67ad286f495620240588b8debd95", 859540},
}

func contentSearcher(name string) search.Searcher {
	switch name {
	case "ACBM":
		return core.New(core.DefaultParams)
	case "PBM":
		return &search.PBM{}
	}
	return &search.FSBM{}
}

func TestGoldenContentStreams(t *testing.T) {
	for _, g := range contentGoldens {
		frames := video.Generate(g.profile, frame.QCIF, 12, 2005)
		stats, bs, err := EncodeSequence(Config{Qp: 24, Searcher: contentSearcher(g.searcher)}, frames)
		if err != nil {
			t.Fatal(err)
		}
		points := 0
		for _, f := range stats.Frames {
			points += f.SearchPoints
		}
		sum := sha256.Sum256(bs)
		if got := hex.EncodeToString(sum[:]); got != g.digest || points != g.points {
			t.Errorf("%v/%s: digest %s points %d, want %s %d", g.profile, g.searcher, got, points, g.digest, g.points)
		}
	}
}
