package metrics

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/frame"
	"repro/internal/video"
)

// TestSpiralOrder pins the order SADBest's winner is defined by: every
// displacement of ±r exactly once, ascending L1, and raster (DY, DX)
// order within one L1 ring — so the first strictly-smallest SAD along the
// table is the raster scan's winner with ties broken toward the shorter
// vector. The L1 ≤ k displacements form a prefix of 2k²+2k+1 entries: the
// AVX2 kernel's first phase is the k = 2 prefix of every table it takes.
func TestSpiralOrder(t *testing.T) {
	for _, r := range []int{0, 1, 2, 4, 15} {
		offs := Spiral(r)
		n := 2*r + 1
		if len(offs) != n*n {
			t.Fatalf("radius %d: %d offsets, want %d", r, len(offs), n*n)
		}
		seen := make(map[Offset]bool, len(offs))
		for i, o := range offs {
			if seen[o] || max(o.DX, -o.DX, o.DY, -o.DY) > int16(r) {
				t.Fatalf("radius %d: offset %v duplicated or outside ±%d", r, o, r)
			}
			seen[o] = true
			if i == 0 {
				continue
			}
			p := offs[i-1]
			if p.L1() > o.L1() || p.L1() == o.L1() && (p.DY > o.DY || p.DY == o.DY && p.DX > o.DX) {
				t.Fatalf("radius %d: %v after %v at %d, want ascending (L1, DY, DX)", r, o, p, i)
			}
		}
		for k := 0; k <= r; k++ {
			if head := 2*k*k + 2*k + 1; offs[head-1].L1() != k || head < len(offs) && offs[head].L1() != k+1 {
				t.Fatalf("radius %d: the L1 ≤ %d prefix is not %d entries", r, k, head)
			}
		}
		if &Spiral(r)[0] != &offs[0] {
			t.Fatalf("radius %d: table rebuilt on a second call", r)
		}
	}
}

// windowOracle is SADBest's definition with no early exit and no order:
// the exact SAD of every displacement in clip, memoised per displacement
// so many clips and initial bests cost one SAD each, and the lowest (SAD,
// L1, DY, DX) below best wins.
func windowOracle(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int) func(clip Rect, best int) (Offset, int, bool) {
	memo := map[Offset]int{}
	return func(clip Rect, best int) (Offset, int, bool) {
		var win Offset
		ok := false
		for dy := clip.MinY; dy <= clip.MaxY; dy++ {
			for dx := clip.MinX; dx <= clip.MaxX; dx++ {
				o := Offset{DX: int16(dx), DY: int16(dy)}
				s, seen := memo[o]
				if !seen {
					s = sadScalar(cur, cx, cy, ref, rx+dx, ry+dy, w, h)
					memo[o] = s
				}
				if s < best || s == best && ok && o.L1() < win.L1() {
					win, best, ok = o, s, true
				}
			}
		}
		if !ok {
			return Offset{}, best, false
		}
		return win, best, true
	}
}

// sadOracle is SADBestFew's definition with no early exit at all: exact
// SAD of every in-clip candidate of the list, first strictly-smallest
// wins; each displacement's SAD is memoised as in windowOracle.
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

func checkSADBest(t *testing.T, what string, oracle func(Rect, int) (Offset, int, bool), cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int, clip Rect, best int) {
	t.Helper()
	want, wantSAD, wantOK := oracle(clip, best)
	got, gotSAD, gotOK := SADBest(cur, cx, cy, ref, rx, ry, w, h, clip, best, nil)
	if got != want || gotSAD != wantSAD || gotOK != wantOK {
		t.Fatalf("%s: block (%d,%d) anchor (%d,%d) clip %+v best %d: got (%v, sad %d, %v), want (%v, sad %d, %v)",
			what, cx, cy, rx, ry, clip, best, got, gotSAD, gotOK, want, wantSAD, wantOK)
	}
}

// checkSADBestFew holds SADBestFew to its list-order definition on the
// head of cands, carried by value.
func checkSADBestFew(t *testing.T, what string, oracle func([]Offset, Rect, int) (int, int), cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int, cands []Offset, clip Rect, best int) {
	t.Helper()
	var few [FewCands]Offset
	n := copy(few[:], cands)
	wantIdx, wantSAD := oracle(cands[:n], clip, best)
	gotIdx, gotSAD := SADBestFew(cur, cx, cy, ref, rx, ry, w, h, few, n, clip, best)
	if gotIdx != wantIdx || gotSAD != wantSAD {
		t.Fatalf("%s: SADBestFew(%d) block (%d,%d) anchor (%d,%d) clip %+v best %d: got (idx %d, sad %d), want (idx %d, sad %d)",
			what, n, cx, cy, rx, ry, clip, best, gotIdx, gotSAD, wantIdx, wantSAD)
	}
}

// periodicPlanes returns a reference tiled with one random p×p tile and a
// cur plane holding a 16×16 block of the same tiling at phase (ax, ay),
// brightened by lift: around a block at (20, 16) searched from the same
// anchor, every displacement ≡ (ax, ay) mod p then has the same SAD, 256 ×
// lift, and there the 4×4-sum bound equals it — exact ties on the pruning
// edge, decided by L1 and then by raster position.
func periodicPlanes(rng *rand.Rand, p, ax, ay, lift int) (cur, ref *frame.Plane) {
	tile := make([]uint8, p*p)
	for i := range tile {
		tile[i] = uint8(rng.Intn(200))
	}
	cur, ref = paddedPlane(rng, 56, 48, 5), paddedPlane(rng, 56, 48, 9)
	for y := 0; y < ref.H; y++ {
		for x := 0; x < ref.W; x++ {
			ref.Pix[y*ref.Stride+x] = tile[y%p*p+x%p]
		}
	}
	for y := 16; y < 32; y++ {
		for x := 20; x < 36; x++ {
			cur.Pix[y*cur.Stride+x] = tile[(y+ay)%p*p+(x+ax)%p] + uint8(lift)
		}
	}
	return cur, ref
}

// TestKernelTiersSADBestMatchScalar is the sadBest differential: on every
// registered tier the winner, its SAD and ok must equal the no-early-exit,
// orderless definition, over random and tie-heavy content, odd strides,
// corner and interior anchors (edge-clipped windows), clip-rectangle
// shapes down to 1×1 and initial bests on both sides of the true minimum.
// SADBestFew is held to its list order on the spiral head and on a
// shuffled one.
//
// The windows are ±5, ±15 (the full search's, where the AVX2 tier's
// successive elimination skips most candidates) and ±20 (wider than the
// elimination grid: the plain scan). Camera content is two consecutive
// Foreman frames with the block searched around its own position, as the
// encoder does; on flat content every bound equals its SAD, and on the
// tiles every cur sub-block is uniform, so candidates a multiple of four
// columns over have bound = SAD too and ties sit exactly on the pruning
// edge. The periodic rows put ties outside the L1 ≤ 2 head the AVX2
// tier scans first: at phase (3, 0) of period 6 the minimum is shared by
// (±3, 0), (±9, 0), (±3, ±6), … — L1 picks (±3, 0) and raster order
// (−3, 0) — and the head's minimum (its threshold) is far above it; at
// phase (2, 0) of period 4 the head itself holds the tie (±2, 0), and the
// zero-SAD positions the survivors meet, (±2, ±4), (±6, 0), …, must lose
// to it on L1.
func TestKernelTiersSADBestMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	noisyCur, noisyRef := paddedPlane(rng, 56, 48, 5), paddedPlane(rng, 56, 48, 11)
	flat := paddedPlane(rng, 56, 48, 3)
	for i := range flat.Pix {
		flat.Pix[i] = 90
	}
	// Coarse tiles: many candidates tie exactly, so the tie rule (not
	// merely the minimum) is what the comparison checks.
	tiles := paddedPlane(rng, 56, 48, 7)
	for y := 0; y < tiles.H; y++ {
		for x := 0; x < tiles.W; x++ {
			tiles.Pix[y*tiles.Stride+x] = uint8((x/8 + y/8) % 3 * 40)
		}
	}
	seq := video.Generate(video.Foreman, frame.QCIF, 2, 7)
	periodicCur, periodicRef := periodicPlanes(rng, 6, 3, 0, 0)
	nearCur, nearRef := periodicPlanes(rng, 4, 2, 0, 0)
	liftedCur, liftedRef := periodicPlanes(rng, 7, 4, 2, 5)

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
		{"periodic", periodicCur, periodicRef, [][2]int{{20, 16}, {19, 13}, {40, 32}}, false},
		{"periodic/4", nearCur, nearRef, [][2]int{{20, 16}, {19, 13}, {40, 32}}, false},
		{"periodic+5", liftedCur, liftedRef, [][2]int{{20, 16}, {19, 13}, {40, 32}}, false},
		{"camera", seq[1].Y, seq[0].Y, [][2]int{{80, 64}, {0, 0}, {160, 128}, {16, 112}, {37, 50}}, true},
	}

	radii := []int{5, 15, 20}
	shuffled := make([][]Offset, len(radii))
	for i, r := range radii {
		shuffled[i] = append([]Offset(nil), Spiral(r)...)
		rng.Shuffle(len(shuffled[i]), func(a, b int) { shuffled[i][a], shuffled[i][b] = shuffled[i][b], shuffled[i][a] })
	}

	withEachISA(t, func(t *testing.T, isa string) {
		for ri, r := range radii {
			spiral, shuffled := Spiral(r), shuffled[ri]
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
					oracle := windowOracle(c.cur, cx, cy, c.ref, rx, ry, 16, 16)
					few := sadOracle(c.cur, cx, cy, c.ref, rx, ry, 16, 16)
					full := windowClip(c.ref, rx, ry, 16, 16, r)
					_, lowest, _ := oracle(full, 1<<30)
					for _, best := range []int{1 << 30, lowest + 1, lowest, 0} {
						checkSADBest(t, what, oracle, c.cur, cx, cy, c.ref, rx, ry, 16, 16, full, best)
						checkSADBestFew(t, what+"/spiral", few, c.cur, cx, cy, c.ref, rx, ry, 16, 16, spiral, full, best)
						checkSADBestFew(t, what+"/shuffled", few, c.cur, cx, cy, c.ref, rx, ry, 16, 16, shuffled, full, best)
					}
					for x0 := full.MinX; x0 <= full.MaxX; x0 += step0 {
						for x1 := x0; x1 <= full.MaxX; x1 += step1 {
							for y0 := full.MinY; y0 <= full.MaxY; y0 += step0 {
								for y1 := y0; y1 <= full.MaxY; y1 += step1 {
									checkSADBest(t, what+"/sub", oracle, c.cur, cx, cy, c.ref, rx, ry, 16, 16,
										Rect{x0, y0, x1, y1}, 1<<30)
								}
							}
						}
					}
				}
			}
		}
		// The periodic rows' winners, named: L1 decides (±3, 0) over the
		// other zero-SAD positions, then raster order (−3, 0) over (3, 0).
		if o, sad, _ := SADBest(periodicCur, 20, 16, periodicRef, 20, 16, 16, 16, Rect{-15, -15, 15, 15}, 1<<30, nil); o != (Offset{DX: -3}) || sad != 0 {
			t.Fatalf("periodic ±15: got %v sad %d, want (-3, 0) sad 0", o, sad)
		}
		if o, sad, _ := SADBest(nearCur, 20, 16, nearRef, 20, 16, 16, 16, Rect{-15, -15, 15, 15}, 1<<30, nil); o != (Offset{DX: -2}) || sad != 0 {
			t.Fatalf("periodic/4 ±15: got %v sad %d, want (-2, 0) sad 0", o, sad)
		}
		noisy := windowOracle(noisyCur, 20, 16, noisyRef, 19, 13, 16, 16)
		// An empty rectangle names no candidate.
		checkSADBest(t, "empty clip", noisy, noisyCur, 20, 16, noisyRef, 19, 13, 16, 16, Rect{1, 0, 0, 0}, 1<<30)
		// Shapes the table kernels do not take run the scalar scan.
		for _, sz := range [][2]int{{8, 8}, {16, 8}, {12, 16}} {
			w, h := sz[0], sz[1]
			checkSADBest(t, "non-16x16", windowOracle(noisyCur, 20, 16, noisyRef, 19, 13, w, h), noisyCur, 20, 16, noisyRef, 19, 13, w, h,
				windowClip(noisyRef, 19, 13, w, h, 5), 1<<30)
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
// no-early-exit definition. The planes are 16+r_p wide and tall for a
// window radius r_p up to 15, so the ±15 elimination route, its clipped
// edges and the narrow windows of the plain scan all come up. Each call
// searches once with no BoxSums, then runs a sequence of blocks drawn from
// the same inputs through one BoxSums Reset onto ref at radius r_p, as an
// encoder lane does: later blocks read the tiles earlier ones filled.
func FuzzKernelTiersSADBest(f *testing.F) {
	f.Add([]byte("bestbestbestbestbestbestbestbest"), uint8(3), uint8(4), uint8(5), uint8(2), uint8(9), uint8(1), uint8(7), uint8(6), uint16(900))
	f.Add(make([]byte, 48), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(255), uint8(255), uint16(0))
	f.Add([]byte("a periodic tile a periodic tile "), uint8(17), uint8(9), uint8(21), uint8(15), uint8(15), uint8(0), uint8(255), uint8(0xFF), uint16(0xFFFF))
	f.Fuzz(func(t *testing.T, pix []byte, pad8, cxSel, cySel, rxSel, rySel, x0Sel, x1Sel, ySel uint8, best16 uint16) {
		r := 4 + int(pad8>>4)%12
		pw, ph := 16+2*r, 16+2*r-2
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
		full := windowClip(ref, rx, ry, 16, 16, r)
		spanX, spanY := full.MaxX-full.MinX+1, full.MaxY-full.MinY+1
		clip := Rect{
			MinX: full.MinX + int(x0Sel)%spanX, MaxX: full.MinX + int(x1Sel)%spanX,
			MinY: full.MinY + int(ySel&15)%spanY, MaxY: full.MinY + int(ySel>>4)%spanY,
		}
		if x0Sel == 0 && x1Sel == 255 {
			clip = full
		}
		best := int(best16)
		if best16 == 0xFFFF {
			best = 1 << 30
		}
		want, wantSAD, wantOK := windowOracle(cur, cx, cy, ref, rx, ry, 16, 16)(clip, best)
		for _, isa := range KernelISAs() {
			restore, err := SetKernelISA(isa)
			if err != nil {
				t.Fatal(err)
			}
			got, gotSAD, gotOK := SADBest(cur, cx, cy, ref, rx, ry, 16, 16, clip, best, nil)
			if got != want || gotSAD != wantSAD || gotOK != wantOK {
				t.Errorf("%s anchor (%d,%d) clip %+v best %d: got (%v, sad %d, %v), want (%v, sad %d, %v)",
					isa, rx, ry, clip, best, got, gotSAD, gotOK, want, wantSAD, wantOK)
			}
			var sums BoxSums
			sums.Reset(ref, r)
			for k, sel := range [...]uint8{cxSel, cySel, x0Sel, x1Sel, ySel} {
				bx, by := (rx+int(sel)+7*k)%(pw-15), (ry+int(sel>>3)+5*k)%(ph-15)
				win := windowClip(ref, bx, by, 16, 16, r)
				if k%2 == 1 {
					win = clip // a sub-rectangle of another anchor's window, still in-plane
					bx, by = rx, ry
				}
				want, wantSAD, wantOK := windowOracle(cur, cx, cy, ref, bx, by, 16, 16)(win, best)
				got, gotSAD, gotOK := SADBest(cur, cx, cy, ref, bx, by, 16, 16, win, best, &sums)
				if got != want || gotSAD != wantSAD || gotOK != wantOK {
					t.Errorf("%s shared sums, block %d anchor (%d,%d) clip %+v best %d: got (%v, sad %d, %v), want (%v, sad %d, %v)",
						isa, k, bx, by, win, best, got, gotSAD, gotOK, want, wantSAD, wantOK)
				}
			}
			restore()
		}
	})
}
