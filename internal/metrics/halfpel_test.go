package metrics

import (
	"math/rand"
	"testing"

	"repro/internal/frame"
)

// TestAvgQuadLanes exhaustively checks the fused-interpolation lane
// helpers against the H.263 rounding rules.
func TestAvgQuadLanes(t *testing.T) {
	for x := 0; x < 256; x += 5 {
		for y := 0; y < 256; y += 7 {
			want := uint64((x+y+1)>>1) * laneOnes
			if got := avgLanes(uint64(x)*laneOnes, uint64(y)*laneOnes); got != want {
				t.Fatalf("avgLanes(%d,%d) = %#x, want %#x per lane", x, y, got, want)
			}
		}
	}
	vals := []int{0, 1, 2, 127, 128, 254, 255}
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range vals {
				for _, d := range vals {
					want := uint64((a+b+c+d+2)>>2) * laneOnes
					got := quadLanes(uint64(a)*laneOnes, uint64(b)*laneOnes,
						uint64(c)*laneOnes, uint64(d)*laneOnes)
					if got != want {
						t.Fatalf("quadLanes(%d,%d,%d,%d) = %#x, want %#x per lane",
							a, b, c, d, got, want)
					}
				}
			}
		}
	}
}

// sadHalfPelView is the half-pel SAD read off a materialised view: every
// prediction sample comes from Interpolated.AtClamped (edge replication
// beyond the grid). It is the oracle the fused kernels are pinned against.
func sadHalfPelView(cur *frame.Plane, cx, cy int, ref *frame.Interpolated, hx, hy, w, h int) int {
	sum := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			d := int(cur.At(cx+x, cy+y)) - int(ref.AtClamped(hx+2*x, hy+2*y))
			if d < 0 {
				d = -d
			}
			sum += d
		}
	}
	return sum
}

// TestSADHalfPelPlaneMatchesScalar sweeps phases, widths and anchors
// (interior and border) comparing the fused SWAR kernels against the
// scalar clamped reference.
func TestSADHalfPelPlaneMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cur := paddedPlane(rng, 48, 32, 3)
	ref := paddedPlane(rng, 48, 32, 5)
	for _, w := range []int{8, 16} {
		for _, h := range []int{8, 16} {
			for cy := 0; cy+h <= cur.H; cy += 5 {
				for cx := 0; cx+w <= cur.W; cx += 3 {
					for _, dh := range [][2]int{
						{0, 0}, {1, 0}, {0, 1}, {1, 1}, {-1, -1}, {3, 1}, {1, 3},
						{2*ref.W - 2*w - 1, 0}, {0, 2*ref.H - 2*h - 1},
						{2*ref.W - 2*w + 1, 2*ref.H - 2*h + 1},
						{-7, 5}, {200, 200},
					} {
						hx, hy := 2*cx+dh[0], 2*cy+dh[1]
						got := SADHalfPelPlane(cur, cx, cy, ref, hx, hy, w, h)
						want := sadHalfPelPlaneScalar(cur, cx, cy, ref, hx, hy, w, h)
						if got != want {
							t.Fatalf("SADHalfPelPlane w=%d h=%d cur(%d,%d) hp(%d,%d): got %d want %d",
								w, h, cx, cy, hx, hy, got, want)
						}
					}
				}
			}
		}
	}
}

// TestSADHalfPelPlaneMatchesGrid pins the fused kernels byte-identical to
// probing a fully materialised half-pel view — the bit-exactness claim
// that lets searchers skip the grid entirely.
func TestSADHalfPelPlaneMatchesGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	cur := paddedPlane(rng, 48, 32, 0)
	ref := paddedPlane(rng, 48, 32, 0)
	ip := frame.Interpolate(ref)
	for cy := 0; cy+16 <= cur.H; cy += 7 {
		for cx := 0; cx+16 <= cur.W; cx += 5 {
			for dy := -2; dy <= 2; dy++ {
				for dx := -2; dx <= 2; dx++ {
					hx, hy := 2*cx+dx, 2*cy+dy
					got := SADHalfPelPlane(cur, cx, cy, ref, hx, hy, 16, 16)
					want := sadHalfPelView(cur, cx, cy, ip, hx, hy, 16, 16)
					if got != want {
						t.Fatalf("fused (%d,%d)+(%d,%d): got %d, grid %d", cx, cy, dx, dy, got, want)
					}
				}
			}
		}
	}
}

// TestSADHalfPelPlaneCappedMatchesScalar sweeps caps and phases comparing
// the capped fused kernels (including their per-row early-exit values)
// against the scalar reference.
func TestSADHalfPelPlaneCappedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	cur := paddedPlane(rng, 48, 32, 2)
	ref := paddedPlane(rng, 48, 32, 3)
	for _, w := range []int{8, 16} {
		for _, h := range []int{8, 16} {
			for cy := 0; cy+h <= cur.H; cy += 5 {
				for cx := 0; cx+w <= cur.W; cx += 7 {
					for _, dh := range [][2]int{{1, 0}, {0, 1}, {1, 1}, {-1, 3}, {3, -1}} {
						hx, hy := 2*cx+dh[0], 2*cy+dh[1]
						for _, cap := range []int{0, 17, 300, 1 << 20} {
							got := SADHalfPelPlaneCapped(cur, cx, cy, ref, hx, hy, w, h, cap)
							want := sadHalfPelPlaneCappedScalar(cur, cx, cy, ref, hx, hy, w, h, cap)
							if got != want {
								t.Fatalf("capped w=%d h=%d cur(%d,%d) hp(%d,%d) cap=%d: got %d want %d",
									w, h, cx, cy, hx, hy, cap, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestSADHalfPelRingMatchesProbes pins the fused 8-probe ring kernel
// against individual SADHalfPelPlane probes at every ring position, over
// many anchors and both block sizes.
func TestSADHalfPelRingMatchesProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	cur := paddedPlane(rng, 48, 32, 1)
	ref := paddedPlane(rng, 48, 32, 2)
	for _, wh := range [][2]int{{8, 8}, {16, 16}, {16, 8}, {8, 16}} {
		w, h := wh[0], wh[1]
		for cy := 0; cy+h <= cur.H; cy += 5 {
			for cx := 0; cx+w <= cur.W; cx += 3 {
				rx := 1 + (cx+7)%(ref.W-w-1)
				ry := 1 + (cy+3)%(ref.H-h-1)
				var ring [9]int
				SADHalfPelRing(cur, cx, cy, ref, rx, ry, w, h, &ring)
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						if dx == 0 && dy == 0 {
							continue
						}
						want := SADHalfPelPlane(cur, cx, cy, ref, 2*rx+dx, 2*ry+dy, w, h)
						if got := ring[(dy+1)*3+dx+1]; got != want {
							t.Fatalf("ring %dx%d cur(%d,%d) ref(%d,%d) probe(%d,%d): got %d want %d",
								w, h, cx, cy, rx, ry, dx, dy, got, want)
						}
					}
				}
			}
		}
	}
}

// TestHalfPelAtPlaneMatchesInterpolated pins the scalar on-the-fly sample
// rule to Interpolated.AtClamped for every position around the grid.
func TestHalfPelAtPlaneMatchesInterpolated(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ref := paddedPlane(rng, 11, 7, 0)
	ip := frame.Interpolate(ref)
	for hy := -4; hy < 2*ref.H+4; hy++ {
		for hx := -4; hx < 2*ref.W+4; hx++ {
			if got, want := halfPelAtPlane(ref, hx, hy), ip.AtClamped(hx, hy); got != want {
				t.Fatalf("halfPelAtPlane(%d,%d) = %d, want %d", hx, hy, got, want)
			}
		}
	}
}

// FuzzSADHalfPelPlane cross-checks the fused kernels against the scalar
// reference on random content, anchors and phases.
func FuzzSADHalfPelPlane(f *testing.F) {
	f.Add(int64(1), 5, 5, 1, 1)
	f.Add(int64(2), 0, 0, -1, -1)
	f.Add(int64(3), 31, 15, 3, 0)
	f.Fuzz(func(t *testing.T, seed int64, cx, cy, dx, dy int) {
		rng := rand.New(rand.NewSource(seed))
		cur := paddedPlane(rng, 40, 24, 1)
		ref := paddedPlane(rng, 40, 24, 4)
		cx = ((cx % 3) + 3) % 3 * 8
		cy = ((cy % 2) + 2) % 2 * 8
		hx := 2*cx + dx%64
		hy := 2*cy + dy%64
		got := SADHalfPelPlane(cur, cx, cy, ref, hx, hy, 16, 16)
		want := sadHalfPelPlaneScalar(cur, cx, cy, ref, hx, hy, 16, 16)
		if got != want {
			t.Fatalf("seed %d cur(%d,%d) hp(%d,%d): got %d want %d", seed, cx, cy, hx, hy, got, want)
		}
	})
}
