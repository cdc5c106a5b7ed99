package metrics

import "repro/internal/frame"

// sseMaxSamples is the most samples one table-kernel call may cover: each
// squared difference is at most 255² = 65025, so a sum over 2^15 samples
// stays below 2^31 and the vector tiers can accumulate in 32-bit lanes
// without ever widening.
const sseMaxSamples = 1 << 15

// SSE returns the sum of squared differences between the w×h block of a
// anchored at (ax, ay) and the block of b anchored at (bx, by). Both
// blocks must lie inside their planes. Over whole planes it is the
// numerator of the per-frame PSNR statistics; the encoder's zero-block gate
// takes its six 8×8 energies per macroblock from MacroblockSSE instead.
//
// The sum is pure integer arithmetic, so every tier returns the same
// value. The guards sit here, before dispatch, like every other entry:
// the widest multiple-of-8 prefix of each row goes to the table kernel in
// strips of at most sseMaxSamples samples, trailing columns and widths
// below 8 run the scalar loop. The result is an int64 because a whole
// plane's sum does not fit a 32-bit int (CIF at 255 per sample is ~6.6e9);
// each strip does.
func SSE(a *frame.Plane, ax, ay int, b *frame.Plane, bx, by, w, h int) int64 {
	wv := w &^ 7
	if wv == 0 || wv > sseMaxSamples {
		return sseScalar(a, ax, ay, b, bx, by, w, h)
	}
	k := kernels()
	var sum int64
	strip := sseMaxSamples / wv
	for y := 0; y < h; y += strip {
		sum += int64(k.sse(a, ax, ay+y, b, bx, by+y, wv, min(strip, h-y)))
	}
	if wv != w {
		sum += sseScalar(a, ax+wv, ay, b, bx+wv, by, w-wv, h)
	}
	return sum
}

// sseScalar is the scalar reference for SSE.
func sseScalar(a *frame.Plane, ax, ay int, b *frame.Plane, bx, by, w, h int) int64 {
	var sum int64
	for y := 0; y < h; y++ {
		ar := a.Pix[(ay+y)*a.Stride+ax : (ay+y)*a.Stride+ax+w]
		br := b.Pix[(by+y)*b.Stride+bx : (by+y)*b.Stride+bx+w]
		for x, av := range ar {
			d := int64(av) - int64(br[x])
			sum += d * d
		}
	}
	return sum
}

// sseStripScalar is sseScalar on the table's terms — one strip of at most
// sseMaxSamples samples, whose sum fits an int everywhere — and the SWAR
// tier's entry too: a 16-bit lane cannot hold a squared byte difference, so
// there is no word-parallel form worth having.
func sseStripScalar(a *frame.Plane, ax, ay int, b *frame.Plane, bx, by, w, h int) int {
	return int(sseScalar(a, ax, ay, b, bx, by, w, h))
}

// MacroblockSSE returns the residual energies Σ(a−b)² of the six 8×8 blocks
// of macroblock (mbx, mby) of two equally sized frames, in coding order:
// the four luma blocks (top-left, top-right, bottom-left, bottom-right),
// then Cb, then Cr. It is the encoder's zero-block gate input for a whole
// macroblock in one call — six SSE(…, 8, 8) values, from one 16-wide luma
// pass and one Cb|Cr pass on the AVX2 tier.
//
// The result comes back by value (like the ring's): an out-pointer through
// the table's indirect call would move the caller's array to the heap.
func MacroblockSSE(a, b *frame.Frame, mbx, mby int) [6]int {
	if a.Cb.Stride != a.Cr.Stride || b.Cb.Stride != b.Cr.Stride {
		return macroblockSSEScalar(a, b, mbx, mby)
	}
	return kernels().mbSSE(a, b, mbx, mby)
}

// macroblockSSEBy computes MacroblockSSE from six calls of an 8×8 sse
// kernel; with sseStripScalar it is the scalar reference.
func macroblockSSEBy(sse func(a *frame.Plane, ax, ay int, b *frame.Plane, bx, by, w, h int) int, a, b *frame.Frame, mbx, mby int) (e [6]int) {
	x, y := 16*mbx, 16*mby
	e[0] = sse(a.Y, x, y, b.Y, x, y, 8, 8)
	e[1] = sse(a.Y, x+8, y, b.Y, x+8, y, 8, 8)
	e[2] = sse(a.Y, x, y+8, b.Y, x, y+8, 8, 8)
	e[3] = sse(a.Y, x+8, y+8, b.Y, x+8, y+8, 8, 8)
	cx, cy := 8*mbx, 8*mby
	e[4] = sse(a.Cb, cx, cy, b.Cb, cx, cy, 8, 8)
	e[5] = sse(a.Cr, cx, cy, b.Cr, cx, cy, 8, 8)
	return e
}

func macroblockSSEScalar(a, b *frame.Frame, mbx, mby int) [6]int {
	return macroblockSSEBy(sseStripScalar, a, b, mbx, mby)
}
