package metrics

import (
	"math/rand"
	"testing"

	"repro/internal/frame"
)

// TestKernelTiersSSEMatchScalar is TestKernelTiersMatchScalar's sibling
// for the shapes only SSE sees: the 8×8 residual block at every corner of
// a plane and against a tight 8×8 tile (the half-pel prediction the
// encoder hands it), odd heights (the AVX2 row-pair tail), whole planes
// larger than one kernel strip, and the extreme inputs — all-zero and
// all-255 differences — that load the 32-bit lanes hardest.
func TestKernelTiersSSEMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := paddedPlane(rng, 72, 40, 5)
	b := paddedPlane(rng, 72, 40, 11)
	tile := paddedPlane(rng, 8, 8, 0)
	// 352×288 is 101376 samples: four strips of sseMaxSamples.
	bigA, bigB := paddedPlane(rng, 352, 288, 32), paddedPlane(rng, 352, 288, 64)
	black := &frame.Plane{W: 352, H: 288, Stride: 352, Pix: make([]uint8, 352*288)}
	white := &frame.Plane{W: 352, H: 288, Stride: 352, Pix: make([]uint8, 352*288)}
	for i := range white.Pix {
		white.Pix[i] = 255
	}
	withEachISA(t, func(t *testing.T, isa string) {
		check := func(what string, p *frame.Plane, px, py int, q *frame.Plane, qx, qy, w, h int) {
			t.Helper()
			if got, want := SSE(p, px, py, q, qx, qy, w, h), sseScalar(p, px, py, q, qx, qy, w, h); got != want {
				t.Fatalf("%s %dx%d (%d,%d)/(%d,%d): got %d want %d", what, w, h, px, py, qx, qy, got, want)
			}
		}
		for _, ax := range []int{0, 1, 31, 64} {
			for _, ay := range []int{0, 7, 32} {
				check("corner", a, ax, ay, b, 64-ax, 32-ay, 8, 8)
				check("tile", a, ax, ay, tile, 0, 0, 8, 8)
			}
		}
		for h := 1; h <= 9; h++ {
			for _, w := range []int{8, 16, 24, 40, 72} {
				check("odd height", a, 0, 3, b, 0, 5, w, h)
			}
		}
		check("identical", a, 0, 0, a, 0, 0, 72, 40)
		check("strips", bigA, 0, 0, bigB, 0, 0, 352, 288)
		check("strips, ragged width", bigA, 3, 1, bigB, 1, 2, 347, 285)
		check("saturated", black, 0, 0, white, 0, 0, 352, 288)
		// 6.6e9: past a 32-bit int, which is why SSE returns an int64.
		if got, want := SSE(black, 0, 0, white, 0, 0, 352, 288), int64(352*288)*255*255; got != want {
			t.Fatalf("saturated plane: got %d want %d", got, want)
		}
		// One full strip of worst-case differences: the largest sum a
		// single kernel call may be asked for.
		rows := sseMaxSamples / 352
		if got, want := SSE(black, 0, 0, white, 0, 0, 352, rows), int64(352*rows)*255*255; got != want {
			t.Fatalf("saturated strip: got %d want %d", got, want)
		}
	})
}

// paddedFrame returns a 4:2:0 frame of size s with random visible samples
// whose planes carry apron (luma) and apron/2 (chroma) replicated borders —
// the layout of the encoder's reconstruction; apron 0 gives tight planes,
// the layout of a source frame.
func paddedFrame(rng *rand.Rand, s frame.Size, apron int) *frame.Frame {
	f := &frame.Frame{
		Y:  frame.NewPlanePadded(s.W, s.H, apron),
		Cb: frame.NewPlanePadded(s.W/2, s.H/2, apron/2),
		Cr: frame.NewPlanePadded(s.W/2, s.H/2, apron/2),
	}
	for _, p := range []*frame.Plane{f.Y, f.Cb, f.Cr} {
		for y := 0; y < p.H; y++ {
			rng.Read(p.Row(y))
		}
		p.ReplicateApron()
	}
	return f
}

// gateFrames is a source frame (tight) and a reconstruction (padded, a
// different stride) of the same size.
func gateFrames(rng *rand.Rand, s frame.Size) (src, rec *frame.Frame) {
	return paddedFrame(rng, s, 0), paddedFrame(rng, s, 16)
}

// macroblockSSEOracle is six independent sseScalar calls, one per block in
// coding order.
func macroblockSSEOracle(a, b *frame.Frame, mbx, mby int) (e [6]int64) {
	for i, off := range [4][2]int{{0, 0}, {8, 0}, {0, 8}, {8, 8}} {
		x, y := 16*mbx+off[0], 16*mby+off[1]
		e[i] = sseScalar(a.Y, x, y, b.Y, x, y, 8, 8)
	}
	e[4] = sseScalar(a.Cb, 8*mbx, 8*mby, b.Cb, 8*mbx, 8*mby, 8, 8)
	e[5] = sseScalar(a.Cr, 8*mbx, 8*mby, b.Cr, 8*mbx, 8*mby, 8, 8)
	return e
}

// checkGate compares MacroblockSSE on every tier with the oracle.
func checkGate(t testing.TB, what string, a, b *frame.Frame, mbx, mby int) {
	t.Helper()
	want := macroblockSSEOracle(a, b, mbx, mby)
	for _, isa := range KernelISAs() {
		restore, err := SetKernelISA(isa)
		if err != nil {
			t.Fatal(err)
		}
		got := MacroblockSSE(a, b, mbx, mby)
		restore()
		for i := range got {
			if int64(got[i]) != want[i] {
				t.Fatalf("%s %s MB (%d,%d) block %d: got %d want %d (all %v, want %v)", what, isa, mbx, mby, i, got[i], want[i], got, want)
			}
		}
	}
}

// TestKernelTiersGateMatchScalar covers every macroblock of a QCIF frame —
// the plane corners and edges included — on random content, the
// saturated extremes (every difference ±255: the largest energy a lane
// holds), identical frames, and a source that differs from the
// reconstruction in one block only (an energy leaking into a neighbour's
// slot shows).
func TestKernelTiersGateMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	s := frame.QCIF
	src, rec := gateFrames(rng, s)
	for mby := 0; mby < s.H/16; mby++ {
		for mbx := 0; mbx < s.W/16; mbx++ {
			checkGate(t, "random", src, rec, mbx, mby)
		}
	}
	fill := func(f *frame.Frame, v uint8) {
		for _, p := range []*frame.Plane{f.Y, f.Cb, f.Cr} {
			for y := 0; y < p.H; y++ {
				row := p.Row(y)
				for x := range row {
					row[x] = v
				}
			}
		}
	}
	black, white := paddedFrame(rng, s, 0), paddedFrame(rng, s, 16)
	fill(black, 0)
	fill(white, 255)
	checkGate(t, "saturated", black, white, 0, 0)
	checkGate(t, "saturated", white, black, s.W/16-1, s.H/16-1)
	checkGate(t, "identical", rec, rec, 3, 4)
	for i := 0; i < 6; i++ {
		blank := paddedFrame(rng, s, 0)
		fill(blank, 0)
		marked := paddedFrame(rng, s, 16)
		fill(marked, 0)
		p, x, y := marked.Y, 16*2+8*(i&1), 16*3+8*(i>>1&1)
		switch i {
		case 4:
			p, x, y = marked.Cb, 16, 24
		case 5:
			p, x, y = marked.Cr, 16, 24
		}
		for r := 0; r < 8; r++ {
			for c := 0; c < 8; c++ {
				p.Set(x+c, y+r, uint8(3*r+c))
			}
		}
		checkGate(t, "one block", blank, marked, 2, 3)
	}
}

// FuzzKernelTiersGate drives arbitrary content through every tier's gate
// the way the encoder produces it: the reconstruction holds a prediction
// written in place by PredictBlock — one 16×16 luma fetch, or four 8×8
// fetches with their own vectors (the width chroma fetches take) — at any
// macroblock of the frame, edges included, against a source of arbitrary
// stride.
func FuzzKernelTiersGate(f *testing.F) {
	f.Add([]byte("gategategategategategategategate"), uint8(0), uint8(0), int16(3), int16(-5), int16(1), int16(2), uint8(1))
	f.Add([]byte{0, 255}, uint8(2), uint8(1), int16(-40), int16(40), int16(-1), int16(-1), uint8(6))
	f.Add(make([]byte, 8), uint8(1), uint8(1), int16(0), int16(0), int16(0), int16(0), uint8(0))
	f.Fuzz(func(t *testing.T, pix []byte, mbxSel, mbySel uint8, mvx, mvy, dmx, dmy int16, pad uint8) {
		if len(pix) == 0 {
			return
		}
		const cols, rows = 3, 2
		s := frame.Size{W: 16 * cols, H: 16 * rows}
		spill := func(p *frame.Plane, salt int) {
			for y := 0; y < p.H; y++ {
				row := p.Row(y)
				for x := range row {
					i := y*p.W + x + salt
					row[x] = pix[i%len(pix)] + uint8(i/len(pix))
				}
			}
			p.ReplicateApron()
		}
		stride := int(pad) % 9
		src := &frame.Frame{
			Y:  &frame.Plane{W: s.W, H: s.H, Stride: s.W + stride, Pix: make([]uint8, (s.W+stride)*s.H)},
			Cb: &frame.Plane{W: s.W / 2, H: s.H / 2, Stride: s.W/2 + stride, Pix: make([]uint8, (s.W/2+stride)*s.H/2)},
			Cr: &frame.Plane{W: s.W / 2, H: s.H / 2, Stride: s.W/2 + stride, Pix: make([]uint8, (s.W/2+stride)*s.H/2)},
		}
		ref := paddedFrame(rand.New(rand.NewSource(1)), s, frame.MinInterpApron)
		for i, p := range []*frame.Plane{src.Y, src.Cb, src.Cr, ref.Y, ref.Cb, ref.Cr} {
			spill(p, 7919*i)
		}
		rec := paddedFrame(rand.New(rand.NewSource(2)), s, frame.MinInterpApron)
		mbx, mby := int(mbxSel)%cols, int(mbySel)%rows
		x, y := 16*mbx, 16*mby
		// Vectors clamped into the reference's apron, as the encoder's are.
		clamp := func(v, lo, hi int) int { return max(lo, min(hi, v)) }
		lim := 2 * (frame.MinInterpApron - 1)
		mv := func(d, anchor, size, span int) int { return clamp(d, -2*anchor-lim, 2*(size-span-anchor)+lim) }
		if pad&1 == 0 {
			PredictBlock(rec.Y, x, y, ref.Y, 2*x+mv(int(mvx), x, s.W, 16), 2*y+mv(int(mvy), y, s.H, 16), 16, 16)
		} else {
			for i, off := range [4][2]int{{0, 0}, {8, 0}, {0, 8}, {8, 8}} {
				bx, by := x+off[0], y+off[1]
				dx, dy := int(mvx)+i*int(dmx), int(mvy)-i*int(dmy)
				PredictBlock(rec.Y, bx, by, ref.Y, 2*bx+mv(dx, bx, s.W, 8), 2*by+mv(dy, by, s.H, 8), 8, 8)
			}
		}
		cx, cy := 8*mbx, 8*mby
		for _, pl := range [][2]*frame.Plane{{rec.Cb, ref.Cb}, {rec.Cr, ref.Cr}} {
			PredictBlock(pl[0], cx, cy, pl[1], 2*cx+mv(int(dmx), cx, s.W/2, 8), 2*cy+mv(int(dmy), cy, s.H/2, 8), 8, 8)
		}
		checkGate(t, "fuzz", src, rec, mbx, mby)
	})
}

// FuzzKernelTiersSSE drives arbitrary pixels through every tier's SSE on
// odd strides, with the block pinned to a corner of its plane or placed
// freely, against both an apron-padded plane (the reference-plane layout:
// an edge block sits right against the replicated border) and a tight
// 8×8 tile.
func FuzzKernelTiersSSE(f *testing.F) {
	f.Add([]byte("ssessessessessessessessessessesse"), uint8(1), uint8(8), uint8(3), uint8(0), uint8(5), uint8(2), uint8(7))
	f.Add([]byte{0, 255}, uint8(0), uint8(7), uint8(0), uint8(3), uint8(255), uint8(255), uint8(0))
	f.Add(make([]byte, 64), uint8(4), uint8(1), uint8(8), uint8(1), uint8(1), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, pix []byte, wSel, hSel, pad8, corner, axSel, aySel, bSel uint8) {
		widths := []int{4, 8, 12, 16, 24, 40}
		w := widths[int(wSel)%len(widths)]
		h := 1 + int(hSel)%16
		pw, ph := w+8, h+8
		stride := pw + int(pad8)%9
		need := stride * ph
		buf := make([]uint8, 2*need+64)
		for i := range buf {
			if len(pix) > 0 {
				buf[i] = pix[i%len(pix)] + uint8(i/len(pix))
			}
		}
		a := &frame.Plane{W: pw, H: ph, Stride: stride, Pix: buf[:need]}
		b := frame.NewPlanePadded(pw, ph, 1+int(pad8)%4)
		for y := 0; y < ph; y++ {
			copy(b.Row(y), buf[need+y*stride:])
		}
		b.ReplicateApron()
		tile := &frame.Plane{W: 8, H: 8, Stride: 8, Pix: buf[2*need:]}
		// corner bits pin the anchor to a plane edge on each axis, so
		// the block ends on the very last sample of the buffer; otherwise
		// the selectors place it freely.
		ax, ay := int(axSel)%(pw-w+1), int(aySel)%(ph-h+1)
		switch corner & 3 {
		case 1:
			ax = 0
		case 2:
			ax = pw - w
		}
		switch corner >> 2 & 3 {
		case 1:
			ay = 0
		case 2:
			ay = ph - h
		}
		bx, by := int(bSel&15)%(pw-w+1), int(bSel>>4)%(ph-h+1)
		if corner&16 != 0 {
			bx, by = pw-w, ph-h
		}
		want := sseScalar(a, ax, ay, b, bx, by, w, h)
		wantTile := sseScalar(a, ax%(pw-7), ay%(ph-7), tile, 0, 0, 8, 8)
		for _, isa := range KernelISAs() {
			restore, err := SetKernelISA(isa)
			if err != nil {
				t.Fatal(err)
			}
			if got := SSE(a, ax, ay, b, bx, by, w, h); got != want {
				t.Errorf("%s SSE w=%d h=%d (%d,%d)/(%d,%d): got %d want %d", isa, w, h, ax, ay, bx, by, got, want)
			}
			if got := SSE(a, ax%(pw-7), ay%(ph-7), tile, 0, 0, 8, 8); got != wantTile {
				t.Errorf("%s SSE vs tile at (%d,%d): got %d want %d", isa, ax%(pw-7), ay%(ph-7), got, wantTile)
			}
			restore()
		}
	})
}
