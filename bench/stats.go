package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs. It
// sorts a copy; an empty input yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := rank(len(s), q) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// rank is the nearest-rank position ⌈q·n⌉ of the q-quantile among n
// samples; the epsilon keeps 0.99·1000 from rounding up to 991.
func rank(n int, q float64) int { return int(math.Ceil(q*float64(n) - 1e-9)) }

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// minTailSamples is how many samples must lie beyond a reported tail
// percentile for it to be more than a handful of outliers.
const minTailSamples = 10

// tailSupported reports whether n samples leave at least minTailSamples
// beyond the q-quantile.
func tailSupported(n int, q float64) bool {
	return n-rank(n, q) >= minTailSamples
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when the layer did no work (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
