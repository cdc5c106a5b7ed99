package frame

import "math"

// MSE returns the mean squared error between two planes of equal size.
func MSE(a, b *Plane) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, ErrSizeMismatch
	}
	var sum int64
	for y := 0; y < a.H; y++ {
		ar, br := a.Row(y), b.Row(y)
		for x := range ar {
			d := int64(ar[x]) - int64(br[x])
			sum += d * d
		}
	}
	return float64(sum) / float64(a.W*a.H), nil
}

// PSNRCap is the value reported for identical planes (MSE = 0), matching
// the convention of common video quality tools.
const PSNRCap = 100.0

// PSNR returns the peak signal-to-noise ratio in dB between two planes of
// equal size, using an 8-bit peak of 255. Identical planes report PSNRCap.
func PSNR(a, b *Plane) (float64, error) {
	mse, err := MSE(a, b)
	if err != nil {
		return 0, err
	}
	return psnrFromMSE(mse), nil
}

func psnrFromMSE(mse float64) float64 {
	if mse == 0 {
		return PSNRCap
	}
	return 10 * math.Log10(255*255/mse)
}

// PSNRFromSSE is PSNR for a caller that has already summed the squared
// sample differences (sse) over a given number of samples — the encoder
// sums them with a SIMD kernel this package cannot import. It applies the
// same arithmetic as PSNR to the same integer, so the two agree to the
// last bit.
func PSNRFromSSE(sse int64, samples int) float64 {
	return psnrFromMSE(float64(sse) / float64(samples))
}

// PSNRYUV returns component PSNRs for two frames. The luma value is the
// figure the paper plots in Figs. 5 and 6.
func PSNRYUV(a, b *Frame) (y, cb, cr float64, err error) {
	if y, err = PSNR(a.Y, b.Y); err != nil {
		return
	}
	if cb, err = PSNR(a.Cb, b.Cb); err != nil {
		return
	}
	cr, err = PSNR(a.Cr, b.Cr)
	return
}
