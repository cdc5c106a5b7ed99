package metrics

import (
	"testing"
	"testing/quick"

	"repro/internal/frame"
	"repro/internal/mvfield"
)

func noisyPlane(w, h int, seed uint64) *frame.Plane {
	p := frame.NewPlane(w, h)
	s := seed | 1
	for i := range p.Pix {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		p.Pix[i] = uint8(s * 2685821657736338717 >> 56)
	}
	return p
}

func TestSADIdenticalBlocksIsZero(t *testing.T) {
	p := noisyPlane(32, 32, 7)
	if got := SAD(p, 4, 4, p, 4, 4, 16, 16); got != 0 {
		t.Fatalf("SAD of block with itself = %d", got)
	}
}

func TestSADKnownValue(t *testing.T) {
	a := frame.NewPlane(4, 4)
	b := frame.NewPlane(4, 4)
	a.Fill(10)
	b.Fill(13)
	if got := SAD(a, 0, 0, b, 0, 0, 4, 4); got != 3*16 {
		t.Fatalf("SAD = %d, want 48", got)
	}
}

func TestSADSymmetry(t *testing.T) {
	a := noisyPlane(24, 24, 3)
	b := noisyPlane(24, 24, 11)
	if SAD(a, 2, 2, b, 5, 6, 16, 16) != SAD(b, 5, 6, a, 2, 2, 16, 16) {
		t.Fatal("SAD not symmetric")
	}
}

func TestSADTriangleProperty(t *testing.T) {
	// SAD(a,c) <= SAD(a,b) + SAD(b,c) block-wise (it is an L1 metric).
	f := func(s1, s2, s3 uint64) bool {
		a := noisyPlane(16, 16, s1)
		b := noisyPlane(16, 16, s2)
		c := noisyPlane(16, 16, s3)
		ab := SAD(a, 0, 0, b, 0, 0, 16, 16)
		bc := SAD(b, 0, 0, c, 0, 0, 16, 16)
		ac := SAD(a, 0, 0, c, 0, 0, 16, 16)
		return ac <= ab+bc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSADCappedAgreesWhenUnderCap(t *testing.T) {
	a := noisyPlane(20, 20, 5)
	b := noisyPlane(20, 20, 9)
	full := SAD(a, 1, 1, b, 2, 3, 16, 16)
	if got := SADCapped(a, 1, 1, b, 2, 3, 16, 16, full); got != full {
		t.Fatalf("SADCapped under cap = %d, want %d", got, full)
	}
	// With a tiny cap the result must exceed the cap (signal to discard).
	if got := SADCapped(a, 1, 1, b, 2, 3, 16, 16, 0); got <= 0 && full > 0 {
		t.Fatalf("SADCapped with cap 0 = %d", got)
	}
}

func TestSADCappedNeverChangesWinner(t *testing.T) {
	cur := noisyPlane(48, 48, 21)
	ref := noisyPlane(48, 48, 22)
	// Exhaustive 5x5 search with and without capping must agree on argmin.
	bestFull, bestCapped := -1, -1
	var mvFull, mvCapped [2]int
	capv := 1 << 30
	for dy := -2; dy <= 2; dy++ {
		for dx := -2; dx <= 2; dx++ {
			s := SAD(cur, 16, 16, ref, 16+dx, 16+dy, 16, 16)
			if bestFull < 0 || s < bestFull {
				bestFull, mvFull = s, [2]int{dx, dy}
			}
			sc := SADCapped(cur, 16, 16, ref, 16+dx, 16+dy, 16, 16, capv)
			if bestCapped < 0 || sc < bestCapped {
				bestCapped, mvCapped, capv = sc, [2]int{dx, dy}, sc
			}
		}
	}
	if mvFull != mvCapped || bestFull != bestCapped {
		t.Fatalf("capped argmin %v(%d) != full argmin %v(%d)", mvCapped, bestCapped, mvFull, bestFull)
	}
}

func TestSADHalfPelIntegerPositionsMatchSAD(t *testing.T) {
	cur := noisyPlane(48, 48, 13)
	ref := noisyPlane(48, 48, 17)
	ip := frame.Interpolate(ref)
	for _, mv := range []mvfield.MV{{X: 0, Y: 0}, {X: 2, Y: 4}, {X: -6, Y: 2}, {X: 8, Y: -8}} {
		fx, fy := mv.FullPel()
		want := SAD(cur, 16, 16, ref, 16+fx, 16+fy, 16, 16)
		if got := SADHalfPelPlane(cur, 16, 16, ref, 32+mv.X, 32+mv.Y, 16, 16); got != want {
			t.Fatalf("SADHalfPelPlane(%v) = %d, want %d", mv, got, want)
		}
		if got := sadHalfPelView(cur, 16, 16, ip, 32+mv.X, 32+mv.Y, 16, 16); got != want {
			t.Fatalf("view SAD(%v) = %d, want %d", mv, got, want)
		}
	}
}

func TestSADHalfPelShiftRecovery(t *testing.T) {
	// A half-pel shifted pattern should match best at the true half-pel MV.
	ref := frame.NewPlane(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			ref.Set(x, y, uint8(((x/4)+(y/4))%2*200+20))
		}
	}
	ip := frame.Interpolate(ref)
	// Build cur as the half-pel interpolation at offset (+1, 0) half-pels.
	cur := frame.NewPlane(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			cur.Set(x, y, ip.AtClamped(2*x+1, 2*y))
		}
	}
	best, bestMV := 1<<30, mvfield.MV{}
	for dy := -2; dy <= 2; dy++ {
		for dx := -2; dx <= 2; dx++ {
			mv := mvfield.MV{X: dx, Y: dy}
			s := SADHalfPelPlane(cur, 24, 24, ref, 48+mv.X, 48+mv.Y, 16, 16)
			if s < best {
				best, bestMV = s, mv
			}
		}
	}
	if bestMV != (mvfield.MV{X: 1, Y: 0}) {
		t.Fatalf("best half-pel MV = %v (SAD %d), want (1,0)", bestMV, best)
	}
	if best != 0 {
		t.Fatalf("best SAD = %d, want 0", best)
	}
}

func TestMeanAndIntraSAD(t *testing.T) {
	p := frame.NewPlane(4, 4)
	p.Fill(50)
	if Mean(p, 0, 0, 4, 4) != 50 {
		t.Fatal("Mean of constant block wrong")
	}
	if IntraSAD(p, 0, 0, 4, 4) != 0 {
		t.Fatal("IntraSAD of constant block must be 0")
	}
	// Half the block at 0, half at 100: mean 50, IntraSAD = 16*50.
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			if x < 2 {
				p.Set(x, y, 0)
			} else {
				p.Set(x, y, 100)
			}
		}
	}
	if got := IntraSAD(p, 0, 0, 4, 4); got != 16*50 {
		t.Fatalf("IntraSAD = %d, want 800", got)
	}
}

func TestIntraSADTextureOrdering(t *testing.T) {
	smooth := frame.NewPlane(16, 16)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			smooth.Set(x, y, uint8(100+x)) // gentle ramp
		}
	}
	textured := noisyPlane(16, 16, 99)
	if IntraSAD(smooth, 0, 0, 16, 16) >= IntraSAD(textured, 0, 0, 16, 16) {
		t.Fatal("textured block should have higher IntraSAD than smooth ramp")
	}
}

func TestIntraSADNonNegativeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		p := noisyPlane(16, 16, seed)
		return IntraSAD(p, 0, 0, 16, 16) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
