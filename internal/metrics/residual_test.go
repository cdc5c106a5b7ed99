package metrics

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dct"
	"repro/internal/frame"
)

// The residual path's two table entries are pinned the way every other
// entry is — each tier against the scalar one, bit for bit — plus one
// property the SAD family never needed: PredictBlock writes into a frame
// other goroutines are writing beside it, so a kernel that stores one byte
// outside its window is a data race the race detector cannot see. The
// guard band below is the only thing that would.

// poison fills p with a position-dependent pattern no interpolation of
// small test planes reproduces by accident at every sample.
func poison(p *frame.Plane) {
	for i := range p.Pix {
		p.Pix[i] = uint8(0xA5 ^ i*29)
	}
}

// checkPredict runs PredictBlock for the w×h block at half-pel anchor
// (hx, hy) of ref into a poisoned, strided destination at (dx, dy) and
// compares the window with want (tight, w×h) and every other byte of dst
// with the poison.
func checkPredict(t testing.TB, what string, dst, ref *frame.Plane, dx, dy, hx, hy, w, h int, want []uint8) {
	t.Helper()
	poison(dst)
	PredictBlock(dst, dx, dy, ref, hx, hy, w, h)
	for i, got := range dst.Pix {
		x, y := i%dst.Stride-dx, i/dst.Stride-dy
		if x >= 0 && x < w && y >= 0 && y < h {
			if got != want[y*w+x] {
				t.Fatalf("%s: %dx%d at half-pel (%d,%d): sample (%d,%d) = %d, want %d", what, w, h, hx, hy, x, y, got, want[y*w+x])
			}
			continue
		}
		if got != uint8(0xA5^i*29) {
			t.Fatalf("%s: %dx%d at half-pel (%d,%d) into (%d,%d): wrote outside its window, %d rows / %d columns from its corner",
				what, w, h, hx, hy, dx, dy, y, x)
		}
	}
}

// viewBlock reads the w×h block at (hx, hy) from the eager half-pel view.
func viewBlock(view *frame.Interpolated, hx, hy, w, h int) []uint8 {
	out := make([]uint8, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			out[y*w+x] = view.AtClamped(hx+2*x, hy+2*y)
		}
	}
	return out
}

// TestKernelTiersPredictMatchView sweeps, on every tier, both block shapes
// over every anchor from outside one apron corner to outside the other —
// all four phases, the in-apron kernel route and the clamped route beyond
// it — on a padded plane (the reference layout) and a tight one, into a
// strided destination with a poisoned guard band. The oracle is the eager
// frame.Interpolate view, and frame.HalfPelBlock must agree with it too.
func TestKernelTiersPredictMatchView(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const pw, ph = 24, 20
	planes := map[string]*frame.Plane{
		"padded": frame.NewPlanePadded(pw, ph, frame.MinInterpApron),
		"wide":   frame.NewPlanePadded(pw, ph, 9),
		"tight":  frame.NewPlane(pw, ph),
	}
	for _, p := range planes {
		for y := 0; y < ph; y++ {
			rng.Read(p.Row(y))
		}
		p.ReplicateApron()
	}
	dst := &frame.Plane{W: 40, H: 28, Stride: 43, Pix: make([]uint8, 43*28)}
	withEachISA(t, func(t *testing.T, isa string) {
		for name, p := range planes {
			view := frame.Interpolate(p)
			a := p.Apron()
			for _, n := range []int{8, 16} {
				tile := make([]uint8, n*n)
				for hy := 2*(-a-2) - 1; hy <= 2*(ph+a+2-n)+1; hy++ {
					for hx := 2*(-a-2) - 1; hx <= 2*(pw+a+2-n)+1; hx++ {
						want := viewBlock(view, hx, hy, n, n)
						frame.HalfPelBlock(tile, n, p, hx, hy, n, n)
						if string(tile) != string(want) {
							t.Fatalf("%s: frame.HalfPelBlock %d at (%d,%d) disagrees with the eager view", name, n, hx, hy)
						}
						// Window against the destination's corners and inside.
						dx, dy := (hx&3)*(dst.W-n)/3, (hy&3)*(dst.H-n)/3
						checkPredict(t, isa+"/"+name, dst, p, dx, dy, hx, hy, n, n, want)
					}
				}
			}
		}
	})
}

// FuzzKernelTiersPredict drives arbitrary planes, aprons, anchors and
// destination windows through every tier — the decoder hands PredictBlock
// whatever vector the stream carries.
func FuzzKernelTiersPredict(f *testing.F) {
	f.Add([]byte("predictpredictpredictpredict"), uint8(3), int16(5), int16(7), uint8(1), uint8(2), uint8(3))
	f.Add([]byte{0, 255, 1, 254}, uint8(0), int16(-9), int16(-9), uint8(0), uint8(0), uint8(0))
	f.Add(make([]byte, 40), uint8(16), int16(64), int16(60), uint8(1), uint8(200), uint8(100))
	f.Add([]byte{7}, uint8(1), int16(-3), int16(41), uint8(1), uint8(255), uint8(255))
	f.Fuzz(func(t *testing.T, pix []byte, apron8 uint8, hx16, hy16 int16, big, dxSel, dySel uint8) {
		const pw, ph = 24, 20
		apron := int(apron8) % 18
		p := frame.NewPlanePadded(pw, ph, apron)
		for y := 0; y < ph; y++ {
			row := p.Row(y)
			for x := range row {
				if len(pix) > 0 {
					i := y*pw + x
					row[x] = pix[i%len(pix)] + uint8(i/len(pix))
				}
			}
		}
		p.ReplicateApron()
		n := 8 << (big & 1)
		// Anchors from well outside one apron corner to well outside the other.
		span := 2 * (pw + 2*apron + 8)
		hx := int(hx16)%span - 2*(apron+4)
		hy := int(hy16)%span - 2*(apron+4)
		stride := 40 + int(dxSel)%7
		dst := &frame.Plane{W: 40, H: 28, Stride: stride, Pix: make([]uint8, stride*28)}
		dx, dy := int(dxSel)%(dst.W-n+1), int(dySel)%(dst.H-n+1)
		want := make([]uint8, n*n)
		frame.HalfPelBlock(want, n, p, hx, hy, n, n)
		for _, isa := range KernelISAs() {
			restore, err := SetKernelISA(isa)
			if err != nil {
				t.Fatal(err)
			}
			checkPredict(t, isa, dst, p, dx, dy, hx, hy, n, n, want)
			restore()
		}
	})
}

// checkResidualRows compares every tier's row pass of a − b with
// dct.ForwardRows of the widened residual, bit pattern by bit pattern, and
// checks that finishing it reproduces dct.ForwardQuantizeInter.
func checkResidualRows(t testing.TB, what string, a *frame.Plane, ax, ay int, b *frame.Plane, bx, by int) {
	t.Helper()
	var resid dct.Block
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			resid[y*8+x] = int32(a.At(ax+x, ay+y)) - int32(b.At(bx+x, by+y))
		}
	}
	var want dct.RowPass
	dct.ForwardRows(&want, &resid)
	for _, isa := range KernelISAs() {
		restore, err := SetKernelISA(isa)
		if err != nil {
			t.Fatal(err)
		}
		var got dct.RowPass
		ResidualRows(&got, a, ax, ay, b, bx, by)
		restore()
		for y := range got.Tmp {
			for u, g := range got.Tmp[y] {
				if math.Float64bits(g) != math.Float64bits(want.Tmp[y][u]) {
					t.Fatalf("%s %s: Tmp[%d][%d] = %x (%v), scalar %x (%v); resid %v",
						what, isa, y, u, math.Float64bits(g), g, math.Float64bits(want.Tmp[y][u]), want.Tmp[y][u], resid)
				}
			}
		}
		for u, g := range got.Energy {
			if math.Float64bits(g) != math.Float64bits(want.Energy[u]) {
				t.Fatalf("%s %s: Energy[%d] = %x (%v), scalar %x (%v); resid %v",
					what, isa, u, math.Float64bits(g), g, math.Float64bits(want.Energy[u]), want.Energy[u], resid)
			}
		}
		for _, qp := range []int{1, 8, 31} {
			var gl, wl dct.Block
			gc, glive := dct.QuantizeInterRows(&gl, &got, qp)
			wc, wlive := dct.ForwardQuantizeInter(&wl, &resid, qp)
			if gl != wl || gc != wc || glive != wlive {
				t.Fatalf("%s %s qp %d: finished transform differs from ForwardQuantizeInter", what, isa, qp)
			}
		}
	}
}

// TestKernelTiersResidualRowsBits covers the residual range end to end:
// saturated blocks of either sign, patterns aligned with each basis
// function (the sums that cancel hardest), single impulses, and random
// content at several amplitudes, on strided planes at odd anchors.
func TestKernelTiersResidualRowsBits(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	a := paddedPlane(rng, 24, 20, 5)
	b := paddedPlane(rng, 24, 20, 3)
	set := func(ax, ay, bx, by int, fn func(x, y int) int) {
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				r := fn(x, y) // residual in [−255, 255], realised as a − b
				av, bv := 0, 0
				if r >= 0 {
					bv = rng.Intn(256 - r)
					av = bv + r
				} else {
					av = rng.Intn(256 + r)
					bv = av - r
				}
				a.Set(ax+x, ay+y, uint8(av))
				b.Set(bx+x, by+y, uint8(bv))
			}
		}
	}
	type pattern struct {
		name string
		fn   func(x, y int) int
	}
	patterns := []pattern{
		{"+255", func(x, y int) int { return 255 }},
		{"-255", func(x, y int) int { return -255 }},
		{"zero", func(x, y int) int { return 0 }},
		{"checker", func(x, y int) int { return 255 - 510*((x+y)&1) }},
		{"columns", func(x, y int) int { return 255 - 510*(x&1) }},
		{"rows", func(x, y int) int { return 255 - 510*(y&1) }},
		{"ramp", func(x, y int) int { return 72*x - 252 }},
	}
	for u := 0; u < 8; u++ {
		u := u
		patterns = append(patterns, pattern{"basis", func(x, y int) int {
			return int(math.Round(255 * math.Cos(float64(2*x+1)*float64(u)*math.Pi/16)))
		}})
	}
	for i := 0; i < 64; i++ {
		i := i
		patterns = append(patterns,
			pattern{"impulse+", func(x, y int) int {
				if y*8+x == i {
					return 255
				}
				return 0
			}},
			pattern{"impulse-", func(x, y int) int {
				if y*8+x == i {
					return -255
				}
				return 0
			}})
	}
	for _, amp := range []int{1, 3, 17, 255} {
		amp := amp
		for i := 0; i < 50; i++ {
			patterns = append(patterns, pattern{"random", func(x, y int) int { return rng.Intn(2*amp+1) - amp }})
		}
	}
	anchors := [][4]int{{0, 0, 0, 0}, {3, 5, 7, 1}, {16, 12, 16, 12}, {9, 2, 1, 11}}
	for i, p := range patterns {
		an := anchors[i%len(anchors)]
		set(an[0], an[1], an[2], an[3], p.fn)
		checkResidualRows(t, p.name, a, an[0], an[1], b, an[2], an[3])
	}
}

// FuzzKernelTiersResidualRows drives arbitrary byte blocks through every
// tier's row pass.
func FuzzKernelTiersResidualRows(f *testing.F) {
	f.Add([]byte("residualresidualresidualresidualresidualresidualresidualresidual"), uint8(0), uint8(3))
	f.Add([]byte{0, 255}, uint8(1), uint8(0))
	f.Add([]byte{255, 255, 255, 0, 0, 0, 1}, uint8(7), uint8(9))
	f.Fuzz(func(t *testing.T, pix []byte, pad8, off uint8) {
		if len(pix) == 0 {
			return
		}
		stride := 12 + int(pad8)%9
		a := &frame.Plane{W: 12, H: 12, Stride: stride, Pix: make([]uint8, stride*12)}
		b := &frame.Plane{W: 12, H: 12, Stride: stride, Pix: make([]uint8, stride*12)}
		for i := range a.Pix {
			a.Pix[i] = pix[i%len(pix)]
			b.Pix[i] = pix[(i+len(a.Pix))%len(pix)] + uint8(i/len(pix))
		}
		checkResidualRows(t, "fuzz", a, int(off&3), int(off>>2&3), b, int(off>>4&3), int(off>>6))
	})
}
