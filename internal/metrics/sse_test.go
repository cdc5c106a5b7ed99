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
		if got, want := SSE(black, 0, 0, white, 0, 0, 352, 288), 352*288*255*255; got != want {
			t.Fatalf("saturated plane: got %d want %d", got, want)
		}
		// One full strip of worst-case differences: the largest sum a
		// single kernel call may be asked for.
		rows := sseMaxSamples / 352
		if got, want := SSE(black, 0, 0, white, 0, 0, 352, rows), 352*rows*255*255; got != want {
			t.Fatalf("saturated strip: got %d want %d", got, want)
		}
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
