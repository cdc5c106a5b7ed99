// Package dct implements the 8×8 type-II discrete cosine transform and the
// H.263 uniform quantiser used by the hybrid encoder substrate
// (internal/codec). The transform is the separable float implementation of
// the reference TMN encoders; the quantiser follows the H.263 rules: a
// dead-zone quantiser for inter and intra-AC coefficients and a fixed /8
// rule for the intra DC coefficient.
//
// Forward and Inverse are restructured for speed — hoisted row conversion,
// contiguous (transposed where needed) basis tables, a DC-only inverse
// fast path — but every restructuring preserves the reference kernels'
// floating-point operation order exactly, so the int32(math.Round) outputs
// are bit-identical to forwardRef/inverseRef (reference.go), which the
// differential tests in reference_test.go enforce.
//
// InterZeroBound (quant.go) is the energy below which an inter residual is
// certain to quantise to nothing; the encoder uses it to leave such blocks
// untransformed.
package dct

import "math"

// BlockSize is the transform dimension (8×8 coefficients per block).
const BlockSize = 8

// Block is one 8×8 coefficient or sample-difference block in row-major
// order. Spatial-domain values are signed (residuals may be negative).
type Block [BlockSize * BlockSize]int32

// cosTable[u][x] = c(u)/2 · cos((2x+1)uπ/16), the separable DCT-II basis.
// cosTableT is its transpose, so both passes of each transform can walk a
// basis row contiguously.
var (
	cosTable  [BlockSize][BlockSize]float64
	cosTableT [BlockSize][BlockSize]float64
)

func init() {
	for u := 0; u < BlockSize; u++ {
		cu := 1.0
		if u == 0 {
			cu = math.Sqrt2 / 2
		}
		for x := 0; x < BlockSize; x++ {
			cosTable[u][x] = cu / 2 * math.Cos(float64(2*x+1)*float64(u)*math.Pi/16)
		}
	}
	for u := 0; u < BlockSize; u++ {
		for x := 0; x < BlockSize; x++ {
			cosTableT[x][u] = cosTable[u][x]
		}
	}
}

// dot8 is the length-8 inner product accumulated left to right — the same
// association (((a0+a1)+a2)+…) the reference kernels' += loops produce, so
// results are bit-identical.
func dot8(a, b *[BlockSize]float64) float64 {
	s := a[0] * b[0]
	s += a[1] * b[1]
	s += a[2] * b[2]
	s += a[3] * b[3]
	s += a[4] * b[4]
	s += a[5] * b[5]
	s += a[6] * b[6]
	s += a[7] * b[7]
	return s
}

// Forward computes the 2-D DCT-II of src into dst (both row-major 8×8).
// Coefficients are rounded to the nearest integer. src and dst may alias.
func Forward(dst, src *Block) {
	var tmp [BlockSize][BlockSize]float64 // tmp[y][u]
	var rowF [BlockSize]float64
	// Rows: convert each source row to float once, then eight contiguous
	// basis products.
	for y := 0; y < BlockSize; y++ {
		row := src[y*BlockSize : y*BlockSize+BlockSize]
		for x, v := range row {
			rowF[x] = float64(v)
		}
		trow := &tmp[y]
		for u := 0; u < BlockSize; u++ {
			trow[u] = dot8(&rowF, &cosTable[u])
		}
	}
	// Columns: gather one float column, then eight contiguous products
	// against the basis rows (summation order over y unchanged).
	var colF [BlockSize]float64
	for u := 0; u < BlockSize; u++ {
		for y := 0; y < BlockSize; y++ {
			colF[y] = tmp[y][u]
		}
		for v := 0; v < BlockSize; v++ {
			dst[v*BlockSize+u] = int32(math.Round(dot8(&colF, &cosTable[v])))
		}
	}
}

// Inverse computes the 2-D inverse DCT of src into dst (row-major 8×8),
// rounding to the nearest integer. src and dst may alias.
//
// Blocks whose only non-zero coefficient is the DC term — the dominant
// case for inter residuals at moderate quantisers — reconstruct to a
// constant plane, computed once with the reference kernels' exact
// floating-point association.
func Inverse(dst, src *Block) {
	dcOnly := true
	for i := 1; i < len(src); i++ {
		if src[i] != 0 {
			dcOnly = false
			break
		}
	}
	if dcOnly {
		// Reference order: tmp = 0 + dc·c, out = 0 + tmp·c; the zero
		// terms of the other basis functions never perturb the sum.
		c := cosTable[0][0]
		v := int32(math.Round(float64(src[0]) * c * c))
		for i := range dst {
			dst[i] = v
		}
		return
	}
	var tmp [BlockSize][BlockSize]float64 // tmp[y][u]
	var colF [BlockSize]float64
	// Columns (sum over v): gather each coefficient column to float once;
	// cosTableT[y] makes the v-ordered sum a contiguous product.
	for u := 0; u < BlockSize; u++ {
		for v := 0; v < BlockSize; v++ {
			colF[v] = float64(src[v*BlockSize+u])
		}
		for y := 0; y < BlockSize; y++ {
			tmp[y][u] = dot8(&colF, &cosTableT[y])
		}
	}
	// Rows (sum over u): tmp rows and cosTableT rows are both contiguous.
	for y := 0; y < BlockSize; y++ {
		trow := &tmp[y]
		out := dst[y*BlockSize : y*BlockSize+BlockSize]
		for x := 0; x < BlockSize; x++ {
			out[x] = int32(math.Round(dot8(trow, &cosTableT[x])))
		}
	}
}
