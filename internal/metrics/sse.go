package metrics

import "repro/internal/frame"

// sseMaxSamples is the most samples one table-kernel call may cover: each
// squared difference is at most 255² = 65025, so a sum over 2^15 samples
// stays below 2^31 and the vector tiers can accumulate in 32-bit lanes
// without ever widening.
const sseMaxSamples = 1 << 15

// SSE returns the sum of squared differences between the w×h block of a
// anchored at (ax, ay) and the block of b anchored at (bx, by). Both
// blocks must lie inside their planes. It is the residual energy the
// encoder's zero-block gate compares with dct.InterZeroBound, and over
// whole planes the numerator of the per-frame PSNR statistics.
//
// The sum is pure integer arithmetic, so every tier returns the same
// value. The guards sit here, before dispatch, like every other entry:
// the widest multiple-of-8 prefix of each row goes to the table kernel in
// strips of at most sseMaxSamples samples, trailing columns and widths
// below 8 run the scalar loop. The result is exact whenever it fits an
// int — always on 64-bit targets.
func SSE(a *frame.Plane, ax, ay int, b *frame.Plane, bx, by, w, h int) int {
	wv := w &^ 7
	if wv == 0 || wv > sseMaxSamples {
		return sseScalar(a, ax, ay, b, bx, by, w, h)
	}
	k := kernels()
	sum := 0
	strip := sseMaxSamples / wv
	for y := 0; y < h; y += strip {
		sum += k.sse(a, ax, ay+y, b, bx, by+y, wv, min(strip, h-y))
	}
	if wv != w {
		sum += sseScalar(a, ax+wv, ay, b, bx+wv, by, w-wv, h)
	}
	return sum
}

// sseScalar is the scalar reference for SSE, and the SWAR tier's entry
// too: a 16-bit lane cannot hold a squared byte difference, so there is
// no word-parallel form worth having.
func sseScalar(a *frame.Plane, ax, ay int, b *frame.Plane, bx, by, w, h int) int {
	sum := 0
	for y := 0; y < h; y++ {
		ar := a.Pix[(ay+y)*a.Stride+ax : (ay+y)*a.Stride+ax+w]
		br := b.Pix[(by+y)*b.Stride+bx : (by+y)*b.Stride+bx+w]
		for x, av := range ar {
			d := int(av) - int(br[x])
			sum += d * d
		}
	}
	return sum
}
