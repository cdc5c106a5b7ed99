package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/frame"
)

// TestBoxSumsServeAFrame runs SADBest as an encoder lane does: one BoxSums
// serves every macroblock of a frame, in raster order, and is then Reset
// for the next frame, whose reference is the same plane header holding new
// pixels — as a pooled frame's would. Every result must equal windowOracle
// on every tier.
//
// Each frame here ends with Release (an encoder releases when its session
// ends), so the next Reset takes the storage back from the pool with the
// last frame's sums still in it.
// The content makes a wrong sum show: each reference is a smooth,
// high-contrast texture (a new phase per frame), and each cur block is the
// reference block displaced by its own vector of up to ±7, so the winner
// has SAD 0 and lies outside the L1 ≤ 2 head for most blocks, while the
// head's minimum stays high. A sum that is stale, or never filled, then
// lifts the winner's bound to the head's minimum and eliminates it. The
// second frame visits the blocks in reverse raster order, so a block meets
// tiles no block before it has asked for from the other side. The
// planes are QCIF, CIF (at ±15 only, to bound the oracle's cost) and one
// whose width and height are not multiples of 16; radii 7 and 15 take the
// elimination route with tiles at origins 9 and 1, ±16 the spiral scan
// inside the frame and the elimination route where the frame clips a
// window to 32 or less.
func TestBoxSumsServeAFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, c := range []struct {
		w, h  int
		radii []int
	}{{176, 144, []int{7, 15, 16}}, {352, 288, []int{15}}, {203, 77, []int{7, 15, 16}}} {
		ref := paddedPlane(rng, c.w, c.h, 5)
		var mbs [][2]int
		for y := 0; y+16 <= c.h; y += 16 {
			for x := 0; x+16 <= c.w; x += 16 {
				mbs = append(mbs, [2]int{x, y})
			}
		}
		// Two frames: each one's reference pixels, cur plane and, per
		// radius, the oracle's answers, computed once for every tier.
		type want struct {
			o   Offset
			sad int
			ok  bool
		}
		var refs [2][]uint8
		var curs [2]*frame.Plane
		wants := map[int]*[2][]want{}
		for f := range refs {
			for y := 0; y < c.h; y++ {
				for x := 0; x < c.w; x++ {
					v := 128 + 100*math.Sin(float64(x)/4.3+float64(f)+0.8*math.Sin(float64(y)/9))*math.Cos(float64(y)/5.1-float64(f))
					ref.Pix[y*ref.Stride+x] = uint8(v)
				}
			}
			refs[f] = append([]uint8(nil), ref.Pix...)
			cur := paddedPlane(rng, c.w, c.h, 3)
			for _, mb := range mbs {
				mx, my := rng.Intn(15)-7, rng.Intn(15)-7
				if rng.Intn(3) == 0 {
					mx = -7 // the ±7 window's first column
				}
				for j := 0; j < 16; j++ {
					for i := 0; i < 16; i++ {
						sx, sy := min(max(mb[0]+mx+i, 0), c.w-1), min(max(mb[1]+my+j, 0), c.h-1)
						cur.Pix[(mb[1]+j)*cur.Stride+mb[0]+i] = ref.Pix[sy*ref.Stride+sx]
					}
				}
			}
			curs[f] = cur
			for _, r := range c.radii {
				if wants[r] == nil {
					wants[r] = new([2][]want)
				}
				for _, mb := range mbs {
					o, sad, ok := windowOracle(cur, mb[0], mb[1], ref, mb[0], mb[1], 16, 16)(windowClip(ref, mb[0], mb[1], 16, 16, r), 1<<30)
					wants[r][f] = append(wants[r][f], want{o, sad, ok})
				}
			}
		}
		for _, r := range c.radii {
			t.Run(fmt.Sprintf("%dx%d/±%d", c.w, c.h, r), func(t *testing.T) {
				withEachISA(t, func(t *testing.T, isa string) {
					var sums BoxSums
					for f := range refs {
						copy(ref.Pix, refs[f])
						sums.Reset(ref, r)
						for n := range mbs {
							k := n
							if f == 1 {
								k = len(mbs) - 1 - n
							}
							mb := mbs[k]
							o, sad, ok := SADBest(curs[f], mb[0], mb[1], ref, mb[0], mb[1], 16, 16, windowClip(ref, mb[0], mb[1], 16, 16, r), 1<<30, &sums)
							if w := wants[r][f][k]; o != w.o || sad != w.sad || ok != w.ok {
								t.Fatalf("frame %d block (%d,%d): got (%v, sad %d, %v), want (%v, sad %d, %v)",
									f, mb[0], mb[1], o, sad, ok, w.o, w.sad, w.ok)
							}
						}
						// The storage goes back to the pool, and a search handed
						// the released cache computes its own.
						sums.Release()
						mb := mbs[len(mbs)/2]
						o, sad, ok := SADBest(curs[f], mb[0], mb[1], ref, mb[0], mb[1], 16, 16, windowClip(ref, mb[0], mb[1], 16, 16, r), 1<<30, &sums)
						if w := wants[r][f][len(mbs)/2]; o != w.o || sad != w.sad || ok != w.ok {
							t.Fatalf("frame %d block (%d,%d) after Release: got (%v, sad %d, %v), want (%v, sad %d, %v)",
								f, mb[0], mb[1], o, sad, ok, w.o, w.sad, w.ok)
						}
					}
				})
			})
		}
	}
}
