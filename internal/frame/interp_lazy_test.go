package frame

import (
	"sync"
	"testing"
)

// refInterpolated is the pre-tile-substrate full-grid half-pel builder
// (the old frame.Interpolate), kept verbatim as the differential oracle:
// one (2W)×(2H) buffer holding all four phases interleaved.
type refInterpolated struct {
	W, H int
	Pix  []uint8
}

func refInterpolate(p *Plane) *refInterpolated {
	w2, h2 := 2*p.W, 2*p.H
	ip := &refInterpolated{W: w2, H: h2, Pix: make([]uint8, w2*h2)}
	for y := 0; y < p.H; y++ {
		yB := y + 1
		if yB >= p.H {
			yB = p.H - 1
		}
		rowA := p.Pix[y*p.Stride : y*p.Stride+p.W]
		rowC := p.Pix[yB*p.Stride : yB*p.Stride+p.W]
		out0 := ip.Pix[(2*y)*w2 : (2*y)*w2+w2]
		out1 := ip.Pix[(2*y+1)*w2 : (2*y+1)*w2+w2]
		for x := 0; x < p.W; x++ {
			xB := x + 1
			if xB >= p.W {
				xB = p.W - 1
			}
			a := int(rowA[x])
			b := int(rowA[xB])
			c := int(rowC[x])
			d := int(rowC[xB])
			out0[2*x] = uint8(a)
			out0[2*x+1] = uint8((a + b + 1) >> 1)
			out1[2*x] = uint8((a + c + 1) >> 1)
			out1[2*x+1] = uint8((a + b + c + d + 2) >> 2)
		}
	}
	return ip
}

func (ip *refInterpolated) atClamped(hx, hy int) uint8 {
	if hx < 0 {
		hx = 0
	} else if hx >= ip.W {
		hx = ip.W - 1
	}
	if hy < 0 {
		hy = 0
	} else if hy >= ip.H {
		hy = ip.H - 1
	}
	return ip.Pix[hy*ip.W+hx]
}

func noisyPaddedPlane(w, h, apron int, seed int64) *Plane {
	rng := newTestRNG(seed)
	p := NewPlanePadded(w, h, apron)
	for y := 0; y < h; y++ {
		row := p.Row(y)
		for x := range row {
			row[x] = uint8(rng.next())
		}
	}
	p.ReplicateApron()
	return p
}

// TestLazyMatchesFullGrid pins every lazily materialised half-pel sample
// byte-equal to the old full-grid build, over padded and tight sources,
// through At, AtClamped (including apron and far-out positions) and
// Block.
func TestLazyMatchesFullGrid(t *testing.T) {
	for _, tc := range []struct {
		w, h, apron int
	}{
		{16, 16, MinInterpApron},
		{48, 32, 8},
		{33, 17, MinInterpApron}, // not tile-aligned
		{8, 8, 0},                // tight source: clamped fill path
		{5, 3, 0},
	} {
		var src *Plane
		if tc.apron > 0 {
			src = noisyPaddedPlane(tc.w, tc.h, tc.apron, int64(tc.w*1000+tc.h))
		} else {
			src = noisyPaddedPlane(tc.w, tc.h, 0, int64(tc.w*1000+tc.h))
		}
		want := refInterpolate(src)
		ip := InterpolateLazy(src)
		for hy := -5; hy < ip.H+5; hy++ {
			for hx := -5; hx < ip.W+5; hx++ {
				if got := ip.AtClamped(hx, hy); got != want.atClamped(hx, hy) {
					t.Fatalf("%dx%d apron %d: AtClamped(%d,%d) = %d, want %d",
						tc.w, tc.h, tc.apron, hx, hy, got, want.atClamped(hx, hy))
				}
			}
		}
		ip.Release()

		// A fresh lazy view again, this time touched only through Block at
		// scattered anchors (first-touch ordering differs from the scan
		// above).
		ip = InterpolateLazy(src)
		blk := make([]uint8, 8*8)
		for _, pos := range [][2]int{
			{1, 1}, {2 * tc.w / 2, 3}, {-1, -1}, {2*tc.w - 3, 2*tc.h - 3},
			{-40, 7}, {7, -40}, {2 * tc.w, 2 * tc.h},
		} {
			ip.Block(blk, pos[0], pos[1], 8, 8)
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					wantv := want.atClamped(pos[0]+2*x, pos[1]+2*y)
					if blk[y*8+x] != wantv {
						t.Fatalf("%dx%d apron %d: Block(%v) sample (%d,%d) = %d, want %d",
							tc.w, tc.h, tc.apron, pos, x, y, blk[y*8+x], wantv)
					}
				}
			}
		}
		ip.Release()
	}
}

// TestEagerMatchesFullGrid pins the fully materialised view against the
// oracle too (both access orders share the tile fill code, but the eager
// path skips the claim states).
func TestEagerMatchesFullGrid(t *testing.T) {
	src := noisyPaddedPlane(24, 20, 0, 99)
	want := refInterpolate(src)
	ip := Interpolate(src)
	for hy := 0; hy < ip.H; hy++ {
		for hx := 0; hx < ip.W; hx++ {
			if got := ip.At(hx, hy); got != want.atClamped(hx, hy) {
				t.Fatalf("At(%d,%d) = %d, want %d", hx, hy, got, want.atClamped(hx, hy))
			}
		}
	}
}

// TestLazyPooledReuse checks a released view recycled for a new source
// frame forgets the old samples (claim states reset).
func TestLazyPooledReuse(t *testing.T) {
	a := noisyPaddedPlane(32, 32, MinInterpApron, 1)
	b := noisyPaddedPlane(32, 32, MinInterpApron, 2)
	ip := InterpolateLazy(a)
	ip.Block(make([]uint8, 64), 9, 9, 8, 8) // materialise some tiles
	ip.Release()
	ip = InterpolateLazy(b)
	want := refInterpolate(b)
	for _, pos := range [][2]int{{9, 9}, {1, 0}, {0, 1}, {31, 31}} {
		if got := ip.At(pos[0], pos[1]); got != want.atClamped(pos[0], pos[1]) {
			t.Fatalf("recycled view sample (%d,%d) = %d, want %d (stale tile?)",
				pos[0], pos[1], got, want.atClamped(pos[0], pos[1]))
		}
	}
	ip.Release()
}

// TestConcurrentFirstTouch hammers concurrent first-touch of the same
// tiles from many goroutines — the wavefront pattern. Run under -race
// this certifies the claim-state protocol; the value checks certify
// idempotence.
func TestConcurrentFirstTouch(t *testing.T) {
	src := noisyPaddedPlane(64, 48, MinInterpApron, 7)
	want := refInterpolate(src)
	for round := 0; round < 4; round++ {
		ip := InterpolateLazy(src)
		const workers = 8
		var wg sync.WaitGroup
		errs := make(chan string, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				blk := make([]uint8, 16*16)
				// Every worker walks the whole grid, phase-striped so all
				// of them race on the same tiles in different orders.
				for i := 0; i < 2*64*2*48/64; i++ {
					hx := (i*31 + w*17) % (2*64 - 32)
					hy := (i*13 + w*7) % (2*48 - 32)
					ip.Block(blk, hx, hy, 16, 16)
					for y := 0; y < 16; y += 5 {
						for x := 0; x < 16; x += 5 {
							if blk[y*16+x] != want.atClamped(hx+2*x, hy+2*y) {
								errs <- "value mismatch under concurrent first touch"
								return
							}
						}
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
		ip.Release()
	}
}

// TestInterpFillStatsAdvance sanity-checks the bytes-touched counters:
// materialising one block's phase samples through PhaseRect — the access
// that still fills tiles; Block computes from the source plane and fills
// none — advances them by at most a few tiles, far less than a full-grid
// build.
func TestInterpFillStatsAdvance(t *testing.T) {
	src := noisyPaddedPlane(64, 64, MinInterpApron, 11)
	ip := InterpolateLazy(src)
	t0, b0 := InterpFillStats()
	ip.Block(make([]uint8, 64), 33, 33, 8, 8)
	if t1, b1 := InterpFillStats(); t1 != t0 || b1 != b0 {
		t.Fatalf("Block filled %d tiles (%d bytes), want none", t1-t0, b1-b0)
	}
	ip.PhaseRect(33, 33, 8, 8) // one diagonal-phase block
	t1, b1 := InterpFillStats()
	ip.Release()
	tiles, bytes := t1-t0, b1-b0
	if tiles == 0 || bytes == 0 {
		t.Fatal("fill counters did not advance")
	}
	if tiles > 4 {
		t.Fatalf("one 8x8 block filled %d tiles, want ≤ 4", tiles)
	}
	if full := uint64(3 * 2 * 64 * 2 * 64); bytes >= full/4 {
		t.Fatalf("one block touched %d bytes, suspiciously close to a full build (%d)", bytes, full)
	}
}
