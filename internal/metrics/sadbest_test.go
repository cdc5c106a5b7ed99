package metrics

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/frame"
	"repro/internal/video"
)

// spiralTable lists every displacement in ±r centre-outward (ascending
// L1, raster order within a ring) — the order search.FSBM hands SADBest.
func spiralTable(r int) []Offset {
	var t []Offset
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			t = append(t, Offset{DX: int16(dx), DY: int16(dy)})
		}
	}
	l1 := func(o Offset) int { return max(int(o.DX), -int(o.DX)) + max(int(o.DY), -int(o.DY)) }
	sort.SliceStable(t, func(i, j int) bool { return l1(t[i]) < l1(t[j]) })
	return t
}

// sadBestOracle is the definition of SADBest with no early exit at all:
// exact SAD of every in-clip candidate, first strictly-smallest wins.
func sadBestOracle(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int, cands []Offset, clip Rect, best int) (int, int) {
	return sadOracle(cur, cx, cy, ref, rx, ry, w, h)(cands, clip, best)
}

// sadOracle is sadBestOracle for one block and anchor, memoising each
// displacement's exact SAD: many candidate orders, clips and initial
// bests then cost one SAD per displacement.
func sadOracle(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int) func(cands []Offset, clip Rect, best int) (int, int) {
	memo := map[Offset]int{}
	return func(cands []Offset, clip Rect, best int) (int, int) {
		idx := -1
		for i, c := range cands {
			if !clip.Contains(c) {
				continue
			}
			s, ok := memo[c]
			if !ok {
				s = sadScalar(cur, cx, cy, ref, rx+int(c.DX), ry+int(c.DY), w, h)
				memo[c] = s
			}
			if s < best {
				idx, best = i, s
			}
		}
		return idx, best
	}
}

// mseaBound is the scalar definition of the bound the AVX2 sadBest kernel
// eliminates candidates with: Σ over the sixteen 4×4 sub-blocks of
// |Σcur − Σref|. Since |Σa − Σb| ≤ Σ|a − b| per sub-block, it never
// exceeds the 16×16 SAD.
func mseaBound(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry int) int {
	b := 0
	for j := 0; j < 16; j += 4 {
		for i := 0; i < 16; i += 4 {
			d := planeSumScalar(cur, cx+i, cy+j, 4, 4) - planeSumScalar(ref, rx+i, ry+j, 4, 4)
			b += max(d, -d)
		}
	}
	return b
}

// windowClip is ±r around (rx, ry) clipped so every w×h candidate block
// stays inside ref.
func windowClip(ref *frame.Plane, rx, ry, w, h, r int) Rect {
	return Rect{
		MinX: max(-r, -rx), MaxX: min(r, ref.W-w-rx),
		MinY: max(-r, -ry), MaxY: min(r, ref.H-h-ry),
	}
}

func checkSADBest(t *testing.T, what string, oracle func([]Offset, Rect, int) (int, int), cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int, cands []Offset, clip Rect, best int) {
	t.Helper()
	wantIdx, wantSAD := oracle(cands, clip, best)
	gotIdx, gotSAD := SADBest(cur, cx, cy, ref, rx, ry, w, h, cands, clip, best)
	if gotIdx != wantIdx || gotSAD != wantSAD {
		t.Fatalf("%s: block (%d,%d) anchor (%d,%d) clip %+v best %d: got (idx %d, sad %d), want (idx %d, sad %d)",
			what, cx, cy, rx, ry, clip, best, gotIdx, gotSAD, wantIdx, wantSAD)
	}
	// SADBestFew carries the head of the same list by value and must name
	// the same winner for it.
	var few [FewCands]Offset
	n := copy(few[:], cands)
	wantIdx, wantSAD = oracle(cands[:n], clip, best)
	gotIdx, gotSAD = SADBestFew(cur, cx, cy, ref, rx, ry, w, h, few, n, clip, best)
	if gotIdx != wantIdx || gotSAD != wantSAD {
		t.Fatalf("%s: SADBestFew(%d) block (%d,%d) anchor (%d,%d) clip %+v best %d: got (idx %d, sad %d), want (idx %d, sad %d)",
			what, n, cx, cy, rx, ry, clip, best, gotIdx, gotSAD, wantIdx, wantSAD)
	}
}

// TestKernelTiersSADBestMatchScalar is the sadBest differential: on every
// registered tier the winner index and SAD must equal the no-early-exit
// definition, over random and tie-heavy content, odd strides, corner and
// interior anchors, clip-rectangle shapes down to 1×1, spiral and shuffled
// candidate orders, and initial bests on both sides of the true minimum.
//
// The windows are ±5, ±15 (the full search's, where the AVX2 tier's
// successive elimination skips most candidates) and ±20 (wider than the
// elimination grid: the plain scan). Camera content is two consecutive
// Foreman frames with the block searched around its own position, as the
// encoder does; on flat content every bound equals its SAD, and on the
// tiles every cur sub-block is uniform, so candidates a multiple of four
// columns over have bound = SAD too and ties sit exactly on the pruning
// edge.
func TestKernelTiersSADBestMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	noisyCur, noisyRef := paddedPlane(rng, 56, 48, 5), paddedPlane(rng, 56, 48, 11)
	flat := paddedPlane(rng, 56, 48, 3)
	for i := range flat.Pix {
		flat.Pix[i] = 90
	}
	// Coarse tiles: many candidates tie exactly, so the first-in-order
	// rule (not merely the minimum) is what the comparison checks.
	tiles := paddedPlane(rng, 56, 48, 7)
	for y := 0; y < tiles.H; y++ {
		for x := 0; x < tiles.W; x++ {
			tiles.Pix[y*tiles.Stride+x] = uint8((x/8 + y/8) % 3 * 40)
		}
	}
	seq := video.Generate(video.Foreman, frame.QCIF, 2, 7)

	small := [][2]int{{0, 0}, {40, 0}, {0, 32}, {40, 32}, {19, 13}, {3, 30}}
	contents := []struct {
		name     string
		cur, ref *frame.Plane
		anchors  [][2]int
		atAnchor bool // the block sits at the anchor; else at (20, 16)
	}{
		{"noisy", noisyCur, noisyRef, small, false},
		{"flat", flat, flat, small, false},
		{"tiles", tiles, tiles, small, false},
		{"cross", noisyCur, tiles, small, false},
		{"camera", seq[1].Y, seq[0].Y, [][2]int{{80, 64}, {0, 0}, {160, 128}, {16, 112}, {37, 50}}, true},
	}

	radii := []int{5, 15, 20}
	shuffled := make([][]Offset, len(radii))
	for i, r := range radii {
		shuffled[i] = spiralTable(r)
		rng.Shuffle(len(shuffled[i]), func(a, b int) { shuffled[i][a], shuffled[i][b] = shuffled[i][b], shuffled[i][a] })
	}

	withEachISA(t, func(t *testing.T, isa string) {
		for ri, r := range radii {
			spiral, shuffled := spiralTable(r), shuffled[ri]
			// Sub-rectangle strides: every shape down to 1×1 at ±5, a sample
			// of them on the wider windows.
			step0, step1 := 2, 3
			if r > 5 {
				step0, step1 = 6, 7
			}
			for _, c := range contents {
				for _, a := range c.anchors {
					rx, ry := a[0], a[1]
					cx, cy := 20, 16
					if c.atAnchor {
						cx, cy = rx, ry
					}
					what := fmt.Sprintf("%s/±%d", c.name, r)
					oracle := sadOracle(c.cur, cx, cy, c.ref, rx, ry, 16, 16)
					full := windowClip(c.ref, rx, ry, 16, 16, r)
					_, lowest := oracle(spiral, full, 1<<30)
					for _, best := range []int{1 << 30, lowest + 1, lowest, 0} {
						checkSADBest(t, what+"/spiral", oracle, c.cur, cx, cy, c.ref, rx, ry, 16, 16, spiral, full, best)
						checkSADBest(t, what+"/shuffled", oracle, c.cur, cx, cy, c.ref, rx, ry, 16, 16, shuffled, full, best)
					}
					for x0 := full.MinX; x0 <= full.MaxX; x0 += step0 {
						for x1 := x0; x1 <= full.MaxX; x1 += step1 {
							for y0 := full.MinY; y0 <= full.MaxY; y0 += step0 {
								for y1 := y0; y1 <= full.MaxY; y1 += step1 {
									checkSADBest(t, what+"/sub", oracle, c.cur, cx, cy, c.ref, rx, ry, 16, 16,
										spiral, Rect{x0, y0, x1, y1}, 1<<30)
								}
							}
						}
					}
				}
			}
		}
		spiral := spiralTable(5)
		noisy := sadOracle(noisyCur, 20, 16, noisyRef, 19, 13, 16, 16)
		// An empty rectangle and an empty table name no candidate.
		checkSADBest(t, "empty clip", noisy, noisyCur, 20, 16, noisyRef, 19, 13, 16, 16, spiral, Rect{1, 0, 0, 0}, 1<<30)
		checkSADBest(t, "empty table", noisy, noisyCur, 20, 16, noisyRef, 19, 13, 16, 16, nil, Rect{-5, -5, 5, 5}, 1<<30)
		// Shapes the table kernels do not take run the scalar scan.
		for _, sz := range [][2]int{{8, 8}, {16, 8}, {12, 16}} {
			w, h := sz[0], sz[1]
			checkSADBest(t, "non-16x16", sadOracle(noisyCur, 20, 16, noisyRef, 19, 13, w, h), noisyCur, 20, 16, noisyRef, 19, 13, w, h,
				spiral, windowClip(noisyRef, 19, 13, w, h, 5), 1<<30)
		}
	})
}

// TestMSEABoundBelowSAD is the property the elimination rests on: the
// 4×4-sum bound never exceeds the SAD, on noise, on camera content and at
// the extreme of all-0 against all-255, where the two meet at 16·4080 =
// 65280 — the largest bound, which still fits the kernel's 16-bit lanes.
func TestMSEABoundBelowSAD(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cur, ref := paddedPlane(rng, 64, 48, 3), paddedPlane(rng, 64, 48, 5)
	seq := video.Generate(video.Foreman, frame.QCIF, 2, 3)
	for i := 0; i < 2000; i++ {
		cx, cy, rx, ry := rng.Intn(49), rng.Intn(33), rng.Intn(49), rng.Intn(33)
		if b, s := mseaBound(cur, cx, cy, ref, rx, ry), sadScalar(cur, cx, cy, ref, rx, ry, 16, 16); b > s {
			t.Fatalf("noise (%d,%d)/(%d,%d): bound %d > SAD %d", cx, cy, rx, ry, b, s)
		}
		cx, cy, rx, ry = rng.Intn(161), rng.Intn(129), rng.Intn(161), rng.Intn(129)
		if b, s := mseaBound(seq[1].Y, cx, cy, seq[0].Y, rx, ry), sadScalar(seq[1].Y, cx, cy, seq[0].Y, rx, ry, 16, 16); b > s {
			t.Fatalf("camera (%d,%d)/(%d,%d): bound %d > SAD %d", cx, cy, rx, ry, b, s)
		}
	}
	black, white := frame.NewPlane(16, 16), frame.NewPlane(16, 16)
	for i := range white.Pix {
		white.Pix[i] = 255
	}
	if b, s := mseaBound(black, 0, 0, white, 0, 0), sadScalar(black, 0, 0, white, 0, 0, 16, 16); b != 65280 || s != 65280 {
		t.Fatalf("all-0 against all-255: bound %d, SAD %d, want both 65280", b, s)
	}
}

// FuzzKernelTiersSADBest drives arbitrary pixels, strides, anchors,
// rectangles and initial bests through every tier against the
// no-early-exit definition.
func FuzzKernelTiersSADBest(f *testing.F) {
	f.Add([]byte("bestbestbestbestbestbestbestbest"), uint8(3), uint8(4), uint8(5), uint8(2), uint8(9), uint8(1), uint8(7), uint8(6), uint16(900))
	f.Add(make([]byte, 48), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(255), uint8(255), uint16(0))
	spiral := spiralTable(4)
	f.Fuzz(func(t *testing.T, pix []byte, pad8, cxSel, cySel, rxSel, rySel, x0Sel, x1Sel, ySel uint8, best16 uint16) {
		pw, ph := 16+12, 16+10
		stride := pw + int(pad8)%9
		need := stride * ph
		buf := make([]uint8, 2*need)
		for i := range buf {
			if len(pix) > 0 {
				buf[i] = pix[i%len(pix)]
			}
		}
		cur := &frame.Plane{W: pw, H: ph, Stride: stride, Pix: buf[:need]}
		ref := &frame.Plane{W: pw, H: ph, Stride: stride, Pix: buf[need:]}
		cx, cy := int(cxSel)%(pw-15), int(cySel)%(ph-15)
		rx, ry := int(rxSel)%(pw-15), int(rySel)%(ph-15)
		full := windowClip(ref, rx, ry, 16, 16, 4)
		spanX, spanY := full.MaxX-full.MinX+1, full.MaxY-full.MinY+1
		clip := Rect{
			MinX: full.MinX + int(x0Sel)%spanX, MaxX: full.MinX + int(x1Sel)%spanX,
			MinY: full.MinY + int(ySel&15)%spanY, MaxY: full.MinY + int(ySel>>4)%spanY,
		}
		best := int(best16)
		if best16 == 0xFFFF {
			best = 1 << 30
		}
		wantIdx, wantSAD := sadBestOracle(cur, cx, cy, ref, rx, ry, 16, 16, spiral, clip, best)
		for _, isa := range KernelISAs() {
			restore, err := SetKernelISA(isa)
			if err != nil {
				t.Fatal(err)
			}
			gotIdx, gotSAD := SADBest(cur, cx, cy, ref, rx, ry, 16, 16, spiral, clip, best)
			restore()
			if gotIdx != wantIdx || gotSAD != wantSAD {
				t.Errorf("%s anchor (%d,%d) clip %+v best %d: got (idx %d, sad %d), want (idx %d, sad %d)",
					isa, rx, ry, clip, best, gotIdx, gotSAD, wantIdx, wantSAD)
			}
		}
	})
}
