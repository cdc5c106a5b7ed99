package metrics

import (
	"math/rand"
	"testing"

	"repro/internal/frame"
)

// paddedPlane builds a w×h plane with a deliberately unaligned stride
// (stride = w + pad) filled from rng, so the SWAR loads hit every byte
// alignment.
func paddedPlane(rng *rand.Rand, w, h, pad int) *frame.Plane {
	p := &frame.Plane{W: w, H: h, Stride: w + pad, Pix: make([]uint8, (w+pad)*h)}
	rng.Read(p.Pix)
	return p
}

func TestAbsDiffLanesExhaustive(t *testing.T) {
	// Every byte pair, placed in every lane simultaneously.
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			x := uint64(a) * laneOnes
			y := uint64(b) * laneOnes
			want := a - b
			if want < 0 {
				want = -want
			}
			got := absDiffLanes(x, y)
			if got != uint64(want)*laneOnes {
				t.Fatalf("absDiffLanes(%#x, %#x) = %#x, want %#x per lane", x, y, got, want)
			}
		}
	}
}

// TestSWARMatchesScalar sweeps block widths 4/8/12/16/20, several heights,
// every block offset, and strides from tight to 17 bytes of padding,
// comparing all SWAR kernels against the scalar references.
func TestSWARMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, pad := range []int{0, 1, 3, 7, 17} {
		cur := paddedPlane(rng, 48, 24, pad)
		ref := paddedPlane(rng, 48, 24, 2*pad+1)
		ip := frame.Interpolate(ref)
		for _, w := range []int{4, 8, 12, 16, 20} {
			for _, h := range []int{4, 8, 16} {
				for cy := 0; cy+h <= cur.H; cy += 3 {
					for cx := 0; cx+w <= cur.W; cx++ {
						rx := (cx + 5) % (ref.W - w)
						ry := (cy + 2) % (ref.H - h)
						if got, want := SAD(cur, cx, cy, ref, rx, ry, w, h), sadScalar(cur, cx, cy, ref, rx, ry, w, h); got != want {
							t.Fatalf("SAD pad=%d w=%d h=%d (%d,%d)->(%d,%d): got %d want %d", pad, w, h, cx, cy, rx, ry, got, want)
						}
						for _, cap := range []int{0, 13, 200, 1 << 20} {
							if got, want := SADCapped(cur, cx, cy, ref, rx, ry, w, h, cap), sadCappedScalar(cur, cx, cy, ref, rx, ry, w, h, cap); got != want {
								t.Fatalf("SADCapped cap=%d pad=%d w=%d h=%d: got %d want %d", cap, pad, w, h, got, want)
							}
						}
						if got, want := IntraSAD(cur, cx, cy, w, h), intraSADScalar(cur, cx, cy, w, h); got != want {
							t.Fatalf("IntraSAD pad=%d w=%d h=%d (%d,%d): got %d want %d", pad, w, h, cx, cy, got, want)
						}
						// Half-pel: exercise both the in-plane kernels and
						// the clamped fallback (odd phases, borders).
						for _, d := range [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {-3, -3}, {2*ref.W - 2*w - 1, 0}} {
							hx, hy := 2*rx+d[0], 2*ry+d[1]
							if got, want := SADHalfPelPlane(cur, cx, cy, ref, hx, hy, w, h), sadHalfPelView(cur, cx, cy, ip, hx, hy, w, h); got != want {
								t.Fatalf("SADHalfPelPlane pad=%d w=%d h=%d h(%d,%d): got %d want %d", pad, w, h, hx, hy, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestSWARWideBlocks pins the fold-overflow guard: widths beyond 256
// samples (where one row would saturate the 16-bit lane fold) must take
// the scalar path and still return exact values.
func TestSWARWideBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cur := paddedPlane(rng, 360, 4, 3)
	ref := paddedPlane(rng, 360, 4, 3)
	// Worst case: all-255 vs all-0 block.
	hot := paddedPlane(rng, 360, 4, 0)
	for i := range hot.Pix {
		hot.Pix[i] = 255
	}
	zero := paddedPlane(rng, 360, 4, 0)
	for i := range zero.Pix {
		zero.Pix[i] = 0
	}
	for _, pl := range [][2]*frame.Plane{{cur, ref}, {hot, zero}} {
		for _, w := range []int{264, 352} {
			if got, want := SAD(pl[0], 0, 0, pl[1], 0, 0, w, 2), sadScalar(pl[0], 0, 0, pl[1], 0, 0, w, 2); got != want {
				t.Errorf("SAD w=%d: got %d want %d", w, got, want)
			}
			if got, want := SADCapped(pl[0], 0, 0, pl[1], 0, 0, w, 2, 1<<30), sadCappedScalar(pl[0], 0, 0, pl[1], 0, 0, w, 2, 1<<30); got != want {
				t.Errorf("SADCapped w=%d: got %d want %d", w, got, want)
			}
			if got, want := IntraSAD(pl[0], 0, 0, w, 2), intraSADScalar(pl[0], 0, 0, w, 2); got != want {
				t.Errorf("IntraSAD w=%d: got %d want %d", w, got, want)
			}
		}
	}
}

// FuzzSADSWAR feeds arbitrary pixel data, block geometry and offsets
// through every SWAR kernel and cross-checks the scalar references,
// whatever kernel tier this host dispatches to.
func FuzzSADSWAR(f *testing.F) {
	f.Add([]byte("seedseedseedseedseedseedseedseed"), uint8(16), uint8(8), uint8(1), uint8(2), uint8(0), uint8(0), uint8(3))
	f.Add(make([]byte, 64), uint8(4), uint8(4), uint8(0), uint8(0), uint8(1), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, pix []byte, wSel, hSel, cxSel, cySel, rxSel, rySel, pad8 uint8) {
		widths := []int{4, 8, 12, 16, 20}
		w := widths[int(wSel)%len(widths)]
		h := 1 + int(hSel)%16
		pad := int(pad8) % 9
		pw, ph := w+8, h+8
		need := (pw + pad) * ph
		buf := make([]uint8, 2*need)
		for i := range buf {
			if len(pix) > 0 {
				buf[i] = pix[i%len(pix)]
			}
		}
		cur := &frame.Plane{W: pw, H: ph, Stride: pw + pad, Pix: buf[:need]}
		ref := &frame.Plane{W: pw, H: ph, Stride: pw + pad, Pix: buf[need:]}
		cx, cy := int(cxSel)%(pw-w+1), int(cySel)%(ph-h+1)
		rx, ry := int(rxSel)%(pw-w+1), int(rySel)%(ph-h+1)

		if got, want := SAD(cur, cx, cy, ref, rx, ry, w, h), sadScalar(cur, cx, cy, ref, rx, ry, w, h); got != want {
			t.Fatalf("SAD: got %d want %d", got, want)
		}
		cap := int(pad8) * 37
		if got, want := SADCapped(cur, cx, cy, ref, rx, ry, w, h, cap), sadCappedScalar(cur, cx, cy, ref, rx, ry, w, h, cap); got != want {
			t.Fatalf("SADCapped(cap=%d): got %d want %d", cap, got, want)
		}
		// IntraSAD dispatches through the kernel table, so its SWAR tier is
		// called as swarTable builds it; other widths never reach it.
		if w%8 == 0 {
			if got, want := intraSADSWAR(cur, cx, cy, w, h, meanOf(planeSumSWAR(cur, cx, cy, w, h), w, h)), intraSADScalar(cur, cx, cy, w, h); got != want {
				t.Fatalf("IntraSAD: got %d want %d", got, want)
			}
		}
		ip := frame.Interpolate(ref)
		hx, hy := 2*rx+int(rySel)%3-1, 2*ry+int(rxSel)%3-1
		if got, want := SADHalfPelPlane(cur, cx, cy, ref, hx, hy, w, h), sadHalfPelView(cur, cx, cy, ip, hx, hy, w, h); got != want {
			t.Fatalf("SADHalfPelPlane(%d,%d): got %d want %d", hx, hy, got, want)
		}
	})
}
