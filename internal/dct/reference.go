package dct

import "math"

// Reference transform kernels: the straightforward separable loops this
// package shipped before the restructured fast paths. They are the oracle
// for the differential tests in reference_test.go; the production kernels
// must produce bit-identical int32(math.Round) outputs. Not for hot paths.
//
// Every product is wrapped in an explicit float64 conversion, the language
// spec's barrier against fusing x*y + z into one rounding (see dot8).

// forwardRef is the reference 2-D DCT-II.
func forwardRef(dst, src *Block) {
	var tmp [BlockSize][BlockSize]float64
	// Rows.
	for y := 0; y < BlockSize; y++ {
		for u := 0; u < BlockSize; u++ {
			var s float64
			for x := 0; x < BlockSize; x++ {
				s += float64(float64(src[y*BlockSize+x]) * cosTable[u][x])
			}
			tmp[y][u] = s
		}
	}
	// Columns.
	for u := 0; u < BlockSize; u++ {
		for v := 0; v < BlockSize; v++ {
			var s float64
			for y := 0; y < BlockSize; y++ {
				s += float64(tmp[y][u] * cosTable[v][y])
			}
			dst[v*BlockSize+u] = int32(math.Round(s))
		}
	}
}

// inverseRef is the reference 2-D inverse DCT.
func inverseRef(dst, src *Block) {
	var tmp [BlockSize][BlockSize]float64
	// Columns (sum over v).
	for u := 0; u < BlockSize; u++ {
		for y := 0; y < BlockSize; y++ {
			var s float64
			for v := 0; v < BlockSize; v++ {
				s += float64(float64(src[v*BlockSize+u]) * cosTable[v][y])
			}
			tmp[y][u] = s
		}
	}
	// Rows (sum over u).
	for y := 0; y < BlockSize; y++ {
		for x := 0; x < BlockSize; x++ {
			var s float64
			for u := 0; u < BlockSize; u++ {
				s += float64(tmp[y][u] * cosTable[u][x])
			}
			dst[y*BlockSize+x] = int32(math.Round(s))
		}
	}
}
