package frame

import "testing"

// HalfPelBlock computes prediction samples straight from a plane; the
// oracle is the eager tiled view (Interpolate), whose samples come from
// fillTile — different code on different storage — read one at a time
// through AtClamped.

// checkHalfPelBlock compares the w×h block at (hx, hy) against the view.
func checkHalfPelBlock(t testing.TB, p *Plane, view *Interpolated, dst []uint8, hx, hy, w, h int) {
	t.Helper()
	for i := range dst {
		dst[i] = 0xA5 // a stale sample must not pass for a computed one
	}
	HalfPelBlock(dst, w, p, hx, hy, w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if got, want := dst[y*w+x], view.AtClamped(hx+2*x, hy+2*y); got != want {
				t.Fatalf("%dx%d plane apron %d: %dx%d block at (%d,%d) sample (%d,%d) = %d, want %d",
					p.W, p.H, p.Apron(), w, h, hx, hy, x, y, got, want)
			}
		}
	}
}

// TestHalfPelBlockMatchesEagerView sweeps every anchor — hence all four
// phases — from well outside one corner of the plane to well outside the
// other: the interior, each border, the apron overshoot a chroma vector
// can reach, and the band just beyond it where the clamped route takes
// over; then anchors far out of range, where only a corrupt stream's
// vectors land. Padded planes (the codec's references; the decoder's carry
// exactly MinInterpApron) and tight ones, 8×8 and 16×16 blocks.
func TestHalfPelBlockMatchesEagerView(t *testing.T) {
	far := []int{-100000, -4097, -333, 332, 4096, 100001}
	for _, tc := range []struct{ w, h, apron int }{
		{24, 20, MinInterpApron},
		{33, 17, 9}, // an encoder-sized apron on an unaligned plane
		{16, 16, 1}, // apron too thin for a whole overshoot
		{24, 20, 0},
		{8, 8, 0}, // a 16×16 block never fits
	} {
		p := noisyPaddedPlane(tc.w, tc.h, tc.apron, int64(31*tc.w+tc.h+tc.apron))
		view := Interpolate(p)
		for _, n := range []int{8, 16} {
			dst := make([]uint8, n*n)
			m := 2 * (n + tc.apron + 3)
			for hy := -m; hy < 2*tc.h+m; hy++ {
				for hx := -m; hx < 2*tc.w+m; hx++ {
					checkHalfPelBlock(t, p, view, dst, hx, hy, n, n)
				}
			}
			for _, fy := range far {
				for _, fx := range far {
					for ph := 0; ph < 4; ph++ {
						checkHalfPelBlock(t, p, view, dst, fx+ph&1, fy+ph>>1, n, n)
						// One axis far out, the other in range.
						checkHalfPelBlock(t, p, view, dst, fx+ph&1, tc.h+ph>>1, n, n)
						checkHalfPelBlock(t, p, view, dst, tc.w+ph&1, fy+ph>>1, n, n)
					}
				}
			}
		}
		view.Release()
	}
}

// TestHalfPelBlockRectangular covers non-square blocks and widths that are
// not a multiple of the kernels' eight-sample word.
func TestHalfPelBlockRectangular(t *testing.T) {
	p := noisyPaddedPlane(40, 24, 4, 5)
	view := Interpolate(p)
	defer view.Release()
	for _, sz := range [][2]int{{16, 8}, {8, 16}, {5, 3}, {13, 7}, {1, 1}} {
		dst := make([]uint8, sz[0]*sz[1])
		for hy := -12; hy < 2*p.H+12; hy += 3 {
			for hx := -12; hx < 2*p.W+12; hx++ {
				checkHalfPelBlock(t, p, view, dst, hx, hy, sz[0], sz[1])
			}
		}
	}
}

// FuzzHalfPelBlock drives arbitrary plane contents, geometries and anchors
// — the decoder hands HalfPelBlock whatever vector the stream carries.
func FuzzHalfPelBlock(f *testing.F) {
	f.Add(int64(1), int32(17), int32(9))
	f.Add(int64(2), int32(-1), int32(-1))
	f.Add(int64(3), int32(-7), int32(64))
	f.Add(int64(4), int32(1<<20), int32(-1<<20))
	f.Add(int64(-5), int32(2*40+5), int32(2*40+6))
	f.Fuzz(func(t *testing.T, seed int64, hx, hy int32) {
		rng := newTestRNG(seed)
		w, h := 8+int(rng.next()%33), 8+int(rng.next()%33)
		apron := int(rng.next() % 6)
		p := noisyPaddedPlane(w, h, apron, seed)
		view := Interpolate(p)
		defer view.Release()
		for _, n := range []int{8, 16} {
			checkHalfPelBlock(t, p, view, make([]uint8, n*n), int(hx), int(hy), n, n)
		}
	})
}
