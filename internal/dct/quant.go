package dct

// The H.263 quantiser. QUANT (Qp) ranges 1..31; the quantisation step for
// AC and inter coefficients is 2·Qp with a dead zone, and the intra DC
// coefficient uses a fixed step of 8.

// MinQp and MaxQp bound the H.263 QUANT parameter.
const (
	MinQp = 1
	MaxQp = 31
)

// ClampQp limits qp to the legal H.263 range.
func ClampQp(qp int) int {
	if qp < MinQp {
		return MinQp
	}
	if qp > MaxQp {
		return MaxQp
	}
	return qp
}

// maxLevel bounds quantised levels as in H.263 (FLC range for TCOEF).
const maxLevel = 127

func clampLevel(l int32) int32 {
	if l > maxLevel {
		return maxLevel
	}
	if l < -maxLevel {
		return -maxLevel
	}
	return l
}

// QuantizeInter quantises an inter (residual) coefficient block in place
// semantics: dst[i] = sign(c)·(|c|−Qp/2)/(2Qp), the H.263 dead-zone rule.
func QuantizeInter(dst, src *Block, qp int) {
	qp = ClampQp(qp)
	half, step := int32(qp/2), int32(2*qp)
	for i, c := range src {
		dst[i] = quantInterCoef(c, half, step)
	}
}

// quantInterCoef is the dead-zone rule for one coefficient, with half =
// Qp/2 and step = 2·Qp; QuantizeInter and ForwardQuantizeInter both apply
// it, so they cannot drift apart.
func quantInterCoef(c, half, step int32) int32 {
	neg := c < 0
	if neg {
		c = -c
	}
	l := (c - half) / step
	if l < 0 {
		l = 0
	}
	if neg {
		l = -l
	}
	return clampLevel(l)
}

// InterZeroBound returns the largest residual energy (the integer sum of
// squared sample differences of an 8×8 block) for which Forward followed
// by QuantizeInter at qp is guaranteed to produce sixty-four zero levels.
// The encoder uses it to skip both for blocks that cannot be coded; a
// block above the bound may still quantise to zero — the test is
// sufficient, never necessary.
//
// Derivation — it follows the quantiser above, so change them together
// (TestInterZeroBoundFollowsQuantizer recomputes it from QuantizeInter):
//
//   - QuantizeInter maps |c| to (|c| − Qp/2)/(2Qp), truncated and clamped
//     at zero: level 0 exactly when |c| < k, with k = 2·Qp + Qp/2 the edge
//     of the dead zone — on integers, |c| ≤ k−1.
//   - Forward rounds each real coefficient F to the nearest integer (half
//     away from zero), so |c| ≤ k−1 exactly when |F| < k − ½.
//   - The 8×8 DCT-II basis is orthonormal: each F is the inner product of
//     the residual with a unit vector, and by Cauchy–Schwarz
//     |F| ≤ ‖resid‖₂ = √SSE.
//   - So SSE < (k−½)² = k² − k + ¼ suffices, and SSE being an integer,
//     that is SSE ≤ k² − k.
//
// The margin left for the float kernel is k − ½ − √(k²−k) > 1/(8k) ≥
// 0.0016 coefficient units at Qp 31; Forward's error is of order 1e-11.
func InterZeroBound(qp int) int {
	qp = ClampQp(qp)
	k := 2*qp + qp/2
	return k*k - k
}

// QuantizeIntra quantises an intra coefficient block: DC uses the fixed /8
// rule (clamped to 1..254 as in H.263), AC uses |c|/(2Qp) without dead zone.
func QuantizeIntra(dst, src *Block, qp int) {
	qp = ClampQp(qp)
	step := int32(2 * qp)
	dst[0] = quantIntraDC(src[0])
	for i := 1; i < len(src); i++ {
		dst[i] = quantIntraAC(src[i], step)
	}
}

// quantIntraDC and quantIntraAC are QuantizeIntra's two rules, step =
// 2·Qp; QuantizeIntra and QuantizeIntraRows both apply them, so they cannot
// drift apart.
func quantIntraDC(c int32) int32 {
	dc := (c + 4) / 8
	if dc < 1 {
		dc = 1
	}
	if dc > 254 {
		dc = 254
	}
	return dc
}

func quantIntraAC(c, step int32) int32 {
	neg := c < 0
	if neg {
		c = -c
	}
	l := c / step
	if neg {
		l = -l
	}
	return clampLevel(l)
}

// IntraZeroBound returns the largest energy E_u of a coefficient column of
// the forward transform's row pass (RowPass.Energy[u]) for which every
// coefficient of that column is guaranteed an AC level 0 under
// QuantizeIntra at qp. QuantizeIntraRows uses it to skip the column pass of
// such columns u ≥ 1 (column 0 holds the DC coefficient, whose rule has no
// zero). As with InterZeroBound the test is sufficient, never necessary.
//
// Derivation — InterZeroBound's, with QuantizeIntra's edge (change them
// together; TestIntraZeroBoundFollowsQuantizer recomputes it from
// QuantizeIntra):
//
//   - QuantizeIntra maps an AC |c| to |c|/(2Qp), truncated: level 0 exactly
//     when |c| < k, with k = 2·Qp — on integers, |c| ≤ k−1.
//   - Forward rounds each real coefficient F to the nearest integer (half
//     away from zero), so |c| ≤ k−1 exactly when |F| < k − ½.
//   - The column pass maps column u of the row-pass intermediate through the
//     orthonormal 1-D basis, so by Cauchy–Schwarz |F(u, v)| ≤ √E_u for
//     every v.
//   - So E_u < (k−½)² = k² − k + ¼ suffices; E_u ≤ k² − k leaves the same
//     margin as the inter bound (> 1/(8k) coefficient units, against a
//     float error of order 1e-11).
func IntraZeroBound(qp int) int {
	qp = ClampQp(qp)
	k := 2 * qp
	return k*k - k
}

// DequantizeInter reconstructs inter coefficients from levels using the
// H.263 rule: |c| = Qp·(2|L|+1) for odd Qp, Qp·(2|L|+1)−1 for even Qp,
// zero levels stay zero.
func DequantizeInter(dst, src *Block, qp int) {
	qp = ClampQp(qp)
	for i, l := range src {
		dst[i] = dequantCoef(l, qp)
	}
}

// DequantizeIntra reconstructs intra coefficients: DC is level·8, AC uses
// the same rule as inter.
func DequantizeIntra(dst, src *Block, qp int) {
	qp = ClampQp(qp)
	for i, l := range src {
		if i == 0 {
			dst[0] = l * 8
			continue
		}
		dst[i] = dequantCoef(l, qp)
	}
}

func dequantCoef(l int32, qp int) int32 {
	if l == 0 {
		return 0
	}
	neg := l < 0
	if neg {
		l = -l
	}
	c := int32(qp) * (2*l + 1)
	if qp%2 == 0 {
		c--
	}
	// Clip to the H.263 coefficient range.
	if c > 2047 {
		c = 2047
	}
	if neg {
		c = -c
	}
	return c
}
