package dct

import (
	"math"
	"math/rand"
	"testing"
)

// QuantizeIntraRows is the intra twin of QuantizeInterRows: the encoder
// takes an intra block's row pass from the residual kernel (against a zero
// block) and finishes it here, skipping every AC column whose row-pass
// energy proves it all-zero. These tests hold it to Forward + QuantizeIntra
// level for level, and the bound to QuantizeIntra's rule.

// checkIntraRows asserts, at every quantiser, that the row-pass route
// produces Forward + QuantizeIntra's sixty-four levels on a dirty
// destination, ac = any non-zero AC level, live = column 0 plus every
// column above IntraZeroBound by the test's own row pass — and that every
// column it skipped is zero in the two-call output.
func checkIntraRows(t *testing.T, what string, blk *Block) {
	t.Helper()
	var coef Block
	Forward(&coef, blk)
	colE := columnEnergies(blk)
	var rp RowPass
	ForwardRows(&rp, blk)
	for qp := MinQp; qp <= MaxQp; qp++ {
		var want, got Block
		QuantizeIntra(&want, &coef, qp)
		for i := range got {
			got[i] = -77
		}
		ac, live := QuantizeIntraRows(&got, &rp, qp)
		if got != want {
			t.Fatalf("%s qp %d: row-pass levels %v, Forward+QuantizeIntra %v (block %v)", what, qp, got, want, *blk)
		}
		wantAC := false
		for _, l := range want[1:] {
			wantAC = wantAC || l != 0
		}
		if ac != wantAC {
			t.Fatalf("%s qp %d: ac = %v, levels %v", what, qp, ac, want)
		}
		wantLive := 1
		bound := float64(IntraZeroBound(qp))
		for u := 1; u < BlockSize; u++ {
			if colE[u] > bound {
				wantLive++
				continue
			}
			for v := 0; v < BlockSize; v++ {
				if want[v*BlockSize+u] != 0 {
					t.Fatalf("%s qp %d: column %d has energy %v ≤ bound %v, yet level (%d,%d) = %d",
						what, qp, u, colE[u], bound, u, v, want[v*BlockSize+u])
				}
			}
		}
		if live != wantLive {
			t.Fatalf("%s qp %d: %d live columns, want %d (block %v)", what, qp, live, wantLive, *blk)
		}
	}
}

// TestIntraZeroBoundFollowsQuantizer recomputes the bound from
// QuantizeIntra itself, as TestInterZeroBoundFollowsQuantizer does for the
// inter rule: k is the smallest AC magnitude QuantizeIntra maps to a
// non-zero level, found by probing, and the bound must be k²−k — the largest
// integer below (k−½)². A change to the intra AC rule fails here until
// IntraZeroBound moves with it.
func TestIntraZeroBoundFollowsQuantizer(t *testing.T) {
	for qp := MinQp; qp <= MaxQp; qp++ {
		k := 0
		for c := int32(0); c < 4096 && k == 0; c++ {
			var src, pos, neg Block
			src[9] = c
			QuantizeIntra(&pos, &src, qp)
			src[9] = -c
			QuantizeIntra(&neg, &src, qp)
			if pos[9] != -neg[9] {
				t.Fatalf("qp %d: AC rule not symmetric at ±%d", qp, c)
			}
			if pos[9] != 0 {
				k = int(c)
			}
		}
		if k == 0 {
			t.Fatalf("qp %d: no magnitude below 4096 quantises to a non-zero AC level", qp)
		}
		want := k*k - k
		if got := IntraZeroBound(qp); got != want {
			t.Fatalf("qp %d: IntraZeroBound = %d, but QuantizeIntra's zero level ends at %d, so k²−k = %d", qp, got, k, want)
		}
		lim := (float64(k) - 0.5) * (float64(k) - 0.5)
		if !(float64(want) < lim && float64(want+1) > lim) {
			t.Fatalf("qp %d: bound %d does not sit just below (k−½)² = %v", qp, want, lim)
		}
	}
	if IntraZeroBound(0) != IntraZeroBound(MinQp) || IntraZeroBound(99) != IntraZeroBound(MaxQp) {
		t.Fatal("IntraZeroBound does not clamp qp like QuantizeIntra does")
	}
}

// TestIntraRowsMatchForward covers the sample blocks an intra macroblock
// presents: saturated (0, 255, a full-swing checkerboard), flat at every
// level, single impulses of either polarity at every position, ramps, and
// random texture at several amplitudes around mid-grey — at Qp 1…31 each.
func TestIntraRowsMatchForward(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	fill := func(fn func(i int) int32) *Block {
		var b Block
		for i := range b {
			b[i] = max(0, min(255, fn(i)))
		}
		return &b
	}
	checkIntraRows(t, "checker", fill(func(i int) int32 { return 255 * int32((i/8+i%8)&1) }))
	for v := int32(0); v <= 255; v += 3 {
		checkIntraRows(t, "flat", fill(func(int) int32 { return v }))
	}
	for pos := 0; pos < 64; pos++ {
		checkIntraRows(t, "impulse up", fill(func(i int) int32 {
			if i == pos {
				return 255
			}
			return 0
		}))
		checkIntraRows(t, "impulse down", fill(func(i int) int32 {
			if i == pos {
				return 0
			}
			return 255
		}))
	}
	checkIntraRows(t, "ramp x", fill(func(i int) int32 { return 36 * int32(i%8) }))
	checkIntraRows(t, "ramp y", fill(func(i int) int32 { return 36 * int32(i/8) }))
	for _, amp := range []int32{1, 4, 20, 127} {
		for trial := 0; trial < 40; trial++ {
			checkIntraRows(t, "random", fill(func(int) int32 { return 128 + rng.Int31n(2*amp+1) - amp }))
		}
	}
}

// TestIntraZeroColumnAdversarial is TestZeroColumnAdversarial for the
// intra bound: for every quantiser and AC basis function (u ≥ 1, v), the
// mid-grey block plus the integer pattern most aligned with that function
// is grown until column u's row-pass energy crosses IntraZeroBound — the
// constant 128 lives in column 0 alone, so the AC columns see the pattern's
// energies exactly. At or below the bound the column must be skipped and be
// zero under Forward + QuantizeIntra; above it, it must run. Somewhere a
// skipped column must reach |c| = k−1, the last magnitude with level 0.
func TestIntraZeroColumnAdversarial(t *testing.T) {
	closest := 0.0
	block := func(u, v, e int) Block {
		r := alignedResidual(u, v, e)
		for i := range r {
			r[i] += 128
		}
		return r
	}
	for qp := MinQp; qp <= MaxQp; qp++ {
		bound := IntraZeroBound(qp)
		k := float64(2 * qp)
		colEnergy := func(u, v, e int) float64 {
			b := block(u, v, e)
			return columnEnergies(&b)[u]
		}
		for v := 0; v < BlockSize; v++ {
			for u := 1; u < BlockSize; u++ {
				lo, hi := bound, 2*bound+64
				for colEnergy(u, v, hi) <= float64(bound) {
					if hi *= 2; hi > 1<<20 {
						t.Fatalf("qp %d (%d,%d): column energy never crosses the bound", qp, u, v)
					}
				}
				for hi-lo > 1 {
					if mid := (lo + hi) / 2; colEnergy(u, v, mid) <= float64(bound) {
						lo = mid
					} else {
						hi = mid
					}
				}
				at, over := block(u, v, lo), block(u, v, hi)
				for _, b := range []*Block{&at, &over} {
					for _, s := range b {
						if s < 0 || s > 255 {
							t.Fatalf("qp %d (%d,%d): sample %d outside 0..255", qp, u, v, s)
						}
					}
				}
				checkIntraRows(t, "column at bound", &at)
				checkIntraRows(t, "column above bound", &over)
				var coef Block
				Forward(&coef, &at)
				if c := math.Abs(float64(coef[v*8+u])) / (k - 1); c > closest {
					closest = c
				}
			}
		}
	}
	if closest < 1 {
		t.Fatalf("no skipped intra column reached |c| = k−1 (closest %.3f of it)", closest)
	}
}

// FuzzQuantizeIntraRows drives arbitrary 8×8 sample blocks through the
// row-pass route at every quantiser.
func FuzzQuantizeIntraRows(f *testing.F) {
	f.Add([]byte{128, 129, 127, 128}, uint8(0))
	f.Add([]byte{0, 255}, uint8(1))
	f.Add(make([]byte, 64), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, shift uint8) {
		var b Block
		for i := range b {
			if len(data) > 0 {
				// shift squeezes the swing around mid-grey, where the AC
				// columns sit near the bounds.
				b[i] = 128 + (int32(data[i%len(data)])-128)>>(shift%8)
			}
		}
		checkIntraRows(t, "fuzz", &b)
	})
}
