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
// untransformed, and ForwardQuantizeInter (= ForwardRows, then
// QuantizeInterRows) applies the same bound per coefficient column after
// the row pass, so a surviving block runs the column pass only where a
// level can be non-zero. QuantizeIntraRows does the same for intra blocks
// with IntraZeroBound, QuantizeIntra's edge.
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
//
// Each product is wrapped in an explicit float64 conversion: the language
// spec lets a compiler fuse x*y + z into one rounding (arm64, ppc64 and
// s390x do) unless a conversion pins the product's own rounding, and the
// pinned bitstreams are the unfused ones — multiply, round, add, round,
// which is also what the vector row pass in internal/metrics executes. The
// conversion is free where nothing fuses (amd64).
func dot8(a, b *[BlockSize]float64) float64 {
	s := float64(a[0] * b[0])
	s += float64(a[1] * b[1])
	s += float64(a[2] * b[2])
	s += float64(a[3] * b[3])
	s += float64(a[4] * b[4])
	s += float64(a[5] * b[5])
	s += float64(a[6] * b[6])
	s += float64(a[7] * b[7])
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

// RowPass is the forward transform between its two passes: the row-pass
// intermediate Tmp[y][u] = Σ_x resid[y][x]·basis[u][x] and, per coefficient
// column u, its energy Energy[u] = Σ_y Tmp[y][u]², both accumulated left to
// right with every product and every sum rounded on its own. ForwardRows is
// the definition; the kernel tiers behind metrics.ResidualRows produce the
// same seventy-two float64 bit patterns from the two byte blocks directly.
type RowPass struct {
	Tmp    [BlockSize][BlockSize]float64
	Energy [BlockSize]float64
}

// RowBasis returns the transposed basis, RowBasis()[x][u] = c(u)/2 ·
// cos((2x+1)uπ/16): for one input sample x, the contiguous vector of its
// weights in the eight outputs u — the operand layout of a row pass that
// keeps one lane per output coefficient. Read-only.
func RowBasis() *[BlockSize][BlockSize]float64 { return &cosTableT }

// ForwardRows runs Forward's row pass over resid into rp, accumulating the
// column energies on the way.
func ForwardRows(rp *RowPass, resid *Block) {
	rp.Energy = [BlockSize]float64{}
	var rowF [BlockSize]float64
	for y := 0; y < BlockSize; y++ {
		row := resid[y*BlockSize : y*BlockSize+BlockSize]
		for x, v := range row {
			rowF[x] = float64(v)
		}
		trow := &rp.Tmp[y]
		for u := 0; u < BlockSize; u++ {
			t := dot8(&rowF, &cosTable[u])
			trow[u] = t
			rp.Energy[u] += float64(t * t)
		}
	}
}

// ForwardQuantizeInter is Forward followed by QuantizeInter at qp, fused so
// that a block pays only for the coefficient columns that can hold a
// non-zero level: levels receives exactly the sixty-four values the two
// calls would produce. coded reports whether any of them is non-zero (the
// scan a caller would otherwise run), live how many of the eight columns
// needed their column pass — 0 means the block was settled by half a
// transform. levels and resid may alias. It is ForwardRows followed by
// QuantizeInterRows; the encoder takes the row pass from
// metrics.ResidualRows instead and calls the second half itself.
func ForwardQuantizeInter(levels, resid *Block, qp int) (coded bool, live int) {
	var rp RowPass
	ForwardRows(&rp, resid)
	return QuantizeInterRows(levels, &rp, qp)
}

// QuantizeInterRows finishes a forward transform from its row pass and
// quantises it with QuantizeInter's rule, running the column pass only
// where a level can be non-zero.
//
// The column pass maps Tmp[·][u] to F(u, ·) through the orthonormal 1-D
// basis, so every coefficient of the column obeys |F(u, v)| ≤ √E_u — the
// Cauchy–Schwarz step of InterZeroBound's derivation, applied to one column
// rather than the whole block. From there the argument is that
// derivation's word for word: E_u ≤ InterZeroBound(qp) = k²−k puts all
// eight |F(u, v)| below k−½, each rounds to an integer inside the dead
// zone, and the column is eight zero levels without a column pass, with the
// same margin (> 1/(8k) ≥ 0.0016 coefficient units) over the float kernel's
// error (~1e-11; E_u's own rounding error is of that order too). The shared
// bound is tied to the quantiser by TestInterZeroBoundFollowsQuantizer. A
// column above the bound runs Forward's dot8 products in Forward's order,
// then QuantizeInter's rule, so its levels are bit-identical to the
// two-call route's.
func QuantizeInterRows(levels *Block, rp *RowPass, qp int) (coded bool, live int) {
	qp = ClampQp(qp)
	bound := float64(InterZeroBound(qp))
	half, step := int32(qp/2), int32(2*qp)
	*levels = Block{}
	var colF [BlockSize]float64
	var nz int32
	for u := 0; u < BlockSize; u++ {
		if rp.Energy[u] <= bound {
			continue
		}
		live++
		for y := 0; y < BlockSize; y++ {
			colF[y] = rp.Tmp[y][u]
		}
		// Products first, quantiser second: interleaved, the integer divide
		// stalls the float pipeline and a fully live block runs ~15 % slower.
		var c [BlockSize]int32
		for v := 0; v < BlockSize; v++ {
			c[v] = int32(math.Round(dot8(&colF, &cosTable[v])))
		}
		for v := 0; v < BlockSize; v++ {
			l := quantInterCoef(c[v], half, step)
			levels[v*BlockSize+u] = l
			nz |= l
		}
	}
	return nz != 0, live
}

// QuantizeIntraRows is QuantizeInterRows for intra blocks: it finishes a
// forward transform of raw samples from its row pass and quantises it with
// QuantizeIntra's rules, running the column pass only where a level can be
// non-zero. levels receives exactly the sixty-four values Forward followed
// by QuantizeIntra would produce; ac reports whether any AC level (index
// > 0) is non-zero, live how many of the eight columns ran.
//
// Column 0 always runs: it holds the DC coefficient, whose /8 rule never
// yields zero. A column u ≥ 1 with E_u ≤ IntraZeroBound(qp) is eight zero
// levels without a column pass (see the bound's derivation); the others run
// Forward's dot8 products in Forward's order, then QuantizeIntra's rule.
func QuantizeIntraRows(levels *Block, rp *RowPass, qp int) (ac bool, live int) {
	qp = ClampQp(qp)
	bound := float64(IntraZeroBound(qp))
	step := int32(2 * qp)
	*levels = Block{}
	var colF [BlockSize]float64
	var nz int32
	for u := 0; u < BlockSize; u++ {
		if u > 0 && rp.Energy[u] <= bound {
			continue
		}
		live++
		for y := 0; y < BlockSize; y++ {
			colF[y] = rp.Tmp[y][u]
		}
		var c [BlockSize]int32
		for v := 0; v < BlockSize; v++ {
			c[v] = int32(math.Round(dot8(&colF, &cosTable[v])))
		}
		v0 := 0
		if u == 0 {
			levels[0] = quantIntraDC(c[0])
			v0 = 1
		}
		for v := v0; v < BlockSize; v++ {
			l := quantIntraAC(c[v], step)
			levels[v*BlockSize+u] = l
			nz |= l
		}
	}
	return nz != 0, live
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
