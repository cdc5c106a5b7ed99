package metrics

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/frame"
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
	idx := -1
	for i, c := range cands {
		if !clip.Contains(c) {
			continue
		}
		if s := sadScalar(cur, cx, cy, ref, rx+int(c.DX), ry+int(c.DY), w, h); s < best {
			idx, best = i, s
		}
	}
	return idx, best
}

// windowClip is ±r around (rx, ry) clipped so every w×h candidate block
// stays inside ref.
func windowClip(ref *frame.Plane, rx, ry, w, h, r int) Rect {
	return Rect{
		MinX: max(-r, -rx), MaxX: min(r, ref.W-w-rx),
		MinY: max(-r, -ry), MaxY: min(r, ref.H-h-ry),
	}
}

func checkSADBest(t *testing.T, what string, cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int, cands []Offset, clip Rect, best int) {
	t.Helper()
	wantIdx, wantSAD := sadBestOracle(cur, cx, cy, ref, rx, ry, w, h, cands, clip, best)
	gotIdx, gotSAD := SADBest(cur, cx, cy, ref, rx, ry, w, h, cands, clip, best)
	if gotIdx != wantIdx || gotSAD != wantSAD {
		t.Fatalf("%s: anchor (%d,%d) clip %+v best %d: got (idx %d, sad %d), want (idx %d, sad %d)",
			what, rx, ry, clip, best, gotIdx, gotSAD, wantIdx, wantSAD)
	}
	// SADBestFew carries the head of the same list by value and must name
	// the same winner for it.
	var few [FewCands]Offset
	n := copy(few[:], cands)
	wantIdx, wantSAD = sadBestOracle(cur, cx, cy, ref, rx, ry, w, h, cands[:n], clip, best)
	gotIdx, gotSAD = SADBestFew(cur, cx, cy, ref, rx, ry, w, h, few, n, clip, best)
	if gotIdx != wantIdx || gotSAD != wantSAD {
		t.Fatalf("%s: SADBestFew(%d) anchor (%d,%d) clip %+v best %d: got (idx %d, sad %d), want (idx %d, sad %d)",
			what, n, rx, ry, clip, best, gotIdx, gotSAD, wantIdx, wantSAD)
	}
}

// TestKernelTiersSADBestMatchScalar is the sadBest differential: on every
// registered tier the winner index and SAD must equal the no-early-exit
// definition, over random and tie-heavy content, odd strides, corner and
// interior anchors, every clip-rectangle shape down to 1×1, spiral and
// shuffled candidate orders, and initial bests on both sides of the true
// minimum.
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
	spiral := spiralTable(5)
	shuffled := append([]Offset(nil), spiral...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	contents := []struct {
		name     string
		cur, ref *frame.Plane
	}{
		{"noisy", noisyCur, noisyRef},
		{"flat", flat, flat},
		{"tiles", tiles, tiles},
		{"cross", noisyCur, tiles},
	}
	anchors := [][2]int{{0, 0}, {40, 0}, {0, 32}, {40, 32}, {19, 13}, {3, 30}}

	withEachISA(t, func(t *testing.T, isa string) {
		for _, c := range contents {
			for _, a := range anchors {
				rx, ry := a[0], a[1]
				full := windowClip(c.ref, rx, ry, 16, 16, 5)
				_, lowest := sadBestOracle(c.cur, 20, 16, c.ref, rx, ry, 16, 16, spiral, full, 1<<30)
				for _, best := range []int{1 << 30, lowest + 1, lowest, 0} {
					checkSADBest(t, c.name+"/spiral", c.cur, 20, 16, c.ref, rx, ry, 16, 16, spiral, full, best)
					checkSADBest(t, c.name+"/shuffled", c.cur, 20, 16, c.ref, rx, ry, 16, 16, shuffled, full, best)
				}
				// Every sub-rectangle of the legal window, 1×1 included.
				for x0 := full.MinX; x0 <= full.MaxX; x0 += 2 {
					for x1 := x0; x1 <= full.MaxX; x1 += 3 {
						for y0 := full.MinY; y0 <= full.MaxY; y0 += 2 {
							for y1 := y0; y1 <= full.MaxY; y1 += 3 {
								checkSADBest(t, c.name+"/sub", c.cur, 20, 16, c.ref, rx, ry, 16, 16,
									spiral, Rect{x0, y0, x1, y1}, 1<<30)
							}
						}
					}
				}
			}
		}
		// An empty rectangle and an empty table name no candidate.
		checkSADBest(t, "empty clip", noisyCur, 20, 16, noisyRef, 19, 13, 16, 16, spiral, Rect{1, 0, 0, 0}, 1<<30)
		checkSADBest(t, "empty table", noisyCur, 20, 16, noisyRef, 19, 13, 16, 16, nil, Rect{-5, -5, 5, 5}, 1<<30)
		// Shapes the table kernels do not take run the scalar scan.
		for _, sz := range [][2]int{{8, 8}, {16, 8}, {12, 16}} {
			w, h := sz[0], sz[1]
			checkSADBest(t, "non-16x16", noisyCur, 20, 16, noisyRef, 19, 13, w, h,
				spiral, windowClip(noisyRef, 19, 13, w, h, 5), 1<<30)
		}
	})
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
