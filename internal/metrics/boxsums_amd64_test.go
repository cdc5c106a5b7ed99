//go:build linux

package metrics

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/frame"
	"repro/internal/video"
)

// TestBoxSumsFillMatchesScalar holds the tile fill to the sum it caches:
// after every tile of a plane is filled, one at a time in random order,
// each position's sum equals the scalar 4×4 sum and each tile is marked
// for this Reset. The planes are QCIF and CIF Foreman, a noise plane whose
// width and height are not multiples of 16, and one ending at a PROT_NONE
// page, so a fill that read past the visible plane would fault; the
// radii 7, 15 and 16 put the tile grid at origins 9, 1 and 0. At ±15 an
// interior window's 43×43 sum area is exactly 3×3 tiles.
func TestBoxSumsFillMatchesScalar(t *testing.T) {
	if !slices.Contains(KernelISAs(), "avx2") {
		t.Skip("no AVX2 on this host: nothing fills a BoxSums")
	}
	rng := rand.New(rand.NewSource(5))
	_, planeBefore := guardedPlanes(t)
	planes := []struct {
		name string
		p    *frame.Plane
	}{
		{"qcif", video.Generate(video.Foreman, frame.QCIF, 1, 3)[0].Y},
		{"cif", video.Generate(video.Foreman, frame.CIF, 1, 3)[0].Y},
		{"203x77", paddedPlane(rng, 203, 77, 9)},
		{"guarded", planeBefore(45, 60)},
	}
	for _, pc := range planes {
		for _, r := range []int{7, 15, 16} {
			t.Run(fmt.Sprintf("%s/±%d", pc.name, r), func(t *testing.T) {
				p := pc.p
				var b BoxSums
				b.Reset(p, r)
				if want := (sumTile - r%sumTile) % sumTile; b.tile(want) != b.tile(want+sumTile-1) || b.tile(want+sumTile) == b.tile(want) {
					t.Fatalf("tile from %d: positions %d..%d are not one tile", want, want, want+sumTile-1)
				}
				order := rng.Perm(b.tilesX * b.tilesY)
				for _, k := range order {
					i, j := k%b.tilesX, k/b.tilesX
					x0, y0 := max(sumTile*i-b.shift, 0), max(sumTile*j-b.shift, 0)
					b.fill(p, x0, y0, x0+1, y0+1)
				}
				for k, g := range b.filled[:b.tilesX*b.tilesY] {
					if g != b.gen {
						t.Fatalf("tile %d not filled", k)
					}
				}
				for y := 0; y < b.h; y++ {
					for x := 0; x < b.w; x++ {
						if got, want := int((*b.buf)[y*b.w+x]), planeSumScalar(p, x, y, 4, 4); got != want {
							t.Fatalf("sum at (%d,%d): got %d want %d", x, y, got, want)
						}
					}
				}
				if r == 15 && p.W >= 16*4 && p.H >= 16*4 {
					if x := 16*2 - 15; b.tile(x+42)-b.tile(x) != 2 || (x+b.shift)%sumTile != 0 {
						t.Fatalf("±15 window area from %d spans tiles %d..%d, want three from a tile corner", x, b.tile(x), b.tile(x+42))
					}
				}
			})
		}
	}
}

// TestSADBestWindowAcrossStackGrowth runs the per-call route — box sums in
// the frame of sadBestMSEAWindowAVX2, handed to the kernel by pointer —
// from fresh goroutines at every stack depth over a range of 8 KB: some of
// them find the stack too short at the kernel's entry, so the runtime moves
// the stack, window included, between the fill and the bound pass, and the
// pointer must follow it. Every result must equal the oracle's.
func TestSADBestWindowAcrossStackGrowth(t *testing.T) {
	if !slices.Contains(KernelISAs(), "avx2") {
		t.Skip("no AVX2 on this host")
	}
	restore, err := SetKernelISA("avx2")
	if err != nil {
		t.Fatal(err)
	}
	defer restore()
	seq := video.Generate(video.Foreman, frame.QCIF, 2, 7)
	cur, ref := seq[1].Y, seq[0].Y
	clip := windowClip(ref, 80, 64, 16, 16, 15)
	want, wantSAD, wantOK := windowOracle(cur, 80, 64, ref, 80, 64, 16, 16)(clip, 1<<30)
	var descend func(depth int) (Offset, int, bool)
	descend = func(depth int) (Offset, int, bool) {
		var pad [64]byte // 64 bytes of stack per level
		if depth > 0 {
			o, sad, ok := descend(depth - 1)
			return o, sad + int(pad[depth%64]), ok
		}
		return SADBest(cur, 80, 64, ref, 80, 64, 16, 16, clip, 1<<30, nil)
	}
	for depth := 0; depth < 128; depth++ {
		done := make(chan struct{})
		var got Offset
		var gotSAD int
		var gotOK bool
		go func() {
			defer close(done)
			got, gotSAD, gotOK = descend(depth)
		}()
		<-done
		if got != want || gotSAD != wantSAD || gotOK != wantOK {
			t.Fatalf("depth %d: got (%v, sad %d, %v), want (%v, sad %d, %v)", depth, got, gotSAD, gotOK, want, wantSAD, wantOK)
		}
	}
}
