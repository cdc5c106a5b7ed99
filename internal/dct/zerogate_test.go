package dct

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The zero-block gate (InterZeroBound) is a proof obligation, not a
// heuristic: a block whose residual energy is at or below the bound must
// quantise to sixty-four zero levels, because the encoder then never runs
// Forward or QuantizeInter on it. The contract is one-directional — a
// block above the bound may quantise to zero too — and these tests check
// exactly that direction against the real kernels.

func energy(b *Block) int {
	e := 0
	for _, v := range b {
		e += int(v) * int(v)
	}
	return e
}

// checkGate asserts the gate's promise for resid at every quantiser that
// gates it, and — at all 31 — that ForwardQuantizeInter, which applies the
// same bound one coefficient column at a time, is indistinguishable from
// the route it fuses.
func checkGate(t *testing.T, what string, resid *Block) {
	t.Helper()
	e := energy(resid)
	var coef, levels Block
	Forward(&coef, resid)
	colE := columnEnergies(resid)
	for qp := MinQp; qp <= MaxQp; qp++ {
		QuantizeInter(&levels, &coef, qp)
		checkFused(t, what, resid, &levels, &colE, qp)
		if e > InterZeroBound(qp) {
			continue
		}
		if levels != (Block{}) {
			t.Fatalf("%s: energy %d ≤ bound %d at qp %d, yet levels %v (resid %v)",
				what, e, InterZeroBound(qp), qp, levels, *resid)
		}
	}
}

// columnEnergies is the row pass of Forward with the per-column energy
// E_u = Σ_y tmp[y][u]² ForwardQuantizeInter tests against the bound,
// accumulated in the same order so the two agree to the last bit.
func columnEnergies(resid *Block) (e [BlockSize]float64) {
	var rowF [BlockSize]float64
	for y := 0; y < BlockSize; y++ {
		for x := range rowF {
			rowF[x] = float64(resid[y*BlockSize+x])
		}
		for u := 0; u < BlockSize; u++ {
			t := dot8(&rowF, &cosTable[u])
			e[u] += t * t
		}
	}
	return e
}

// checkFused asserts ForwardQuantizeInter's whole contract for resid at
// qp against want, the levels of Forward + QuantizeInter, and colE, the
// block's columnEnergies: the same sixty-four levels (on a destination
// that starts dirty), coded = the any-non-zero scan, live = the number of
// columns whose row-pass energy exceeds the bound — and every column it
// skipped is zero in want.
func checkFused(t *testing.T, what string, resid, want *Block, colE *[BlockSize]float64, qp int) {
	t.Helper()
	var got Block
	for i := range got {
		got[i] = -77
	}
	coded, live := ForwardQuantizeInter(&got, resid, qp)
	if got != *want {
		t.Fatalf("%s qp %d: fused levels %v, Forward+QuantizeInter %v (resid %v)", what, qp, got, *want, *resid)
	}
	if coded != (*want != Block{}) {
		t.Fatalf("%s qp %d: coded = %v, levels %v", what, qp, coded, *want)
	}
	wantLive := 0
	for u, e := range colE {
		if e > float64(InterZeroBound(qp)) {
			wantLive++
			continue
		}
		for v := 0; v < BlockSize; v++ {
			if want[v*BlockSize+u] != 0 {
				t.Fatalf("%s qp %d: column %d has energy %v ≤ bound %d, yet level (%d,%d) = %d",
					what, qp, u, e, InterZeroBound(qp), u, v, want[v*BlockSize+u])
			}
		}
	}
	if live != wantLive {
		t.Fatalf("%s qp %d: %d live columns, want %d (resid %v)", what, qp, live, wantLive, *resid)
	}
}

// TestInterZeroBoundFollowsQuantizer recomputes the bound from
// QuantizeInter itself: k is the smallest magnitude the quantiser maps to
// a non-zero level, found by probing, and the bound must be k²−k — the
// largest integer below (k−½)². A quantiser change that moves the dead
// zone fails here until InterZeroBound moves with it.
func TestInterZeroBoundFollowsQuantizer(t *testing.T) {
	for qp := MinQp; qp <= MaxQp; qp++ {
		k := 0
		for c := int32(0); c < 4096 && k == 0; c++ {
			var src, pos, neg Block
			src[9] = c
			QuantizeInter(&pos, &src, qp)
			src[9] = -c
			QuantizeInter(&neg, &src, qp)
			if pos[9] != -neg[9] {
				t.Fatalf("qp %d: dead zone not symmetric at ±%d", qp, c)
			}
			if pos[9] != 0 {
				k = int(c)
			}
		}
		if k == 0 {
			t.Fatalf("qp %d: no magnitude below 4096 quantises to a non-zero level", qp)
		}
		want := k*k - k
		if got := InterZeroBound(qp); got != want {
			t.Fatalf("qp %d: InterZeroBound = %d, but QuantizeInter's dead zone ends at %d, so k²−k = %d", qp, got, k, want)
		}
		// The bound is the last integer strictly inside (k−½)².
		lim := (float64(k) - 0.5) * (float64(k) - 0.5)
		if !(float64(want) < lim && float64(want+1) > lim) {
			t.Fatalf("qp %d: bound %d does not sit just below (k−½)² = %v", qp, want, lim)
		}
	}
	if InterZeroBound(0) != InterZeroBound(MinQp) || InterZeroBound(99) != InterZeroBound(MaxQp) {
		t.Fatal("InterZeroBound does not clamp qp like QuantizeInter does")
	}
}

// fourSquares writes n ≥ 0 as a sum of four squares (Lagrange).
func fourSquares(n int) [4]int32 {
	for a := int(math.Sqrt(float64(n))) + 1; a >= 0; a-- {
		for b := 0; b <= a && a*a+b*b <= n; b++ {
			for c := 0; c <= b && a*a+b*b+c*c <= n; c++ {
				rest := n - a*a - b*b - c*c
				d := int(math.Sqrt(float64(rest)))
				for d*d > rest {
					d--
				}
				for (d+1)*(d+1) <= rest {
					d++
				}
				if d*d == rest {
					return [4]int32{int32(a), int32(b), int32(c), int32(d)}
				}
			}
		}
	}
	panic("unreachable: every non-negative integer is a sum of four squares")
}

// alignedResidual builds the integer residual of exactly the given energy
// that is as parallel to DCT basis function (u, v) as integers allow —
// the input that pushes coefficient (u, v) closest to the Cauchy–Schwarz
// limit √energy. Sixty samples follow the real-valued optimum
// √energy·basis (truncated, then bumped while energy remains, most
// heavily weighted samples first); the four least-weighted samples absorb
// the remainder as a four-square sum, so the energy lands exactly. Every
// sample carries the sign of the basis function.
func alignedResidual(u, v, e int) Block {
	var w [64]float64
	order := make([]int, 64)
	for i := range w {
		w[i] = cosTable[v][i/8] * cosTable[u][i%8]
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return math.Abs(w[order[a]]) > math.Abs(w[order[b]]) })
	var r Block
	used := 0
	s := math.Sqrt(float64(e))
	for _, i := range order[:60] {
		r[i] = int32(s * math.Abs(w[i]))
		used += int(r[i] * r[i])
	}
	for bumped := true; bumped; {
		bumped = false
		for _, i := range order[:60] {
			if d := int(2*r[i] + 1); used+d <= e {
				r[i]++
				used += d
				bumped = true
			}
		}
	}
	sq := fourSquares(e - used)
	for j, i := range order[60:] {
		r[i] = sq[j]
	}
	for i := range r {
		if w[i] < 0 {
			r[i] = -r[i]
		}
	}
	return r
}

// TestZeroBlockGateAdversarial drives, for every quantiser and every one
// of the 64 basis functions, the residual most aligned with that function
// at exactly the bound (must gate, must quantise to zero) and one unit of
// energy above it (must not gate).
func TestZeroBlockGateAdversarial(t *testing.T) {
	closest := 0.0
	for qp := MinQp; qp <= MaxQp; qp++ {
		bound := InterZeroBound(qp)
		k := float64(2*qp + qp/2)
		for v := 0; v < BlockSize; v++ {
			for u := 0; u < BlockSize; u++ {
				at := alignedResidual(u, v, bound)
				if got := energy(&at); got != bound {
					t.Fatalf("qp %d (%d,%d): built energy %d, want %d", qp, u, v, got, bound)
				}
				checkGate(t, "aligned at bound", &at)
				var coef Block
				Forward(&coef, &at)
				if c := math.Abs(float64(coef[v*8+u])) / (k - 1); c > closest {
					closest = c
				}
				over := alignedResidual(u, v, bound+1)
				if got := energy(&over); got != bound+1 || got <= InterZeroBound(qp) {
					t.Fatalf("qp %d (%d,%d): energy %d must sit one above the bound %d", qp, u, v, got, bound)
				}
				checkGate(t, "aligned above bound", &over) // gated at larger qp only
			}
		}
	}
	// The construction must actually reach the edge of the dead zone
	// somewhere (a coefficient equal to k−1), or it tests nothing.
	if closest < 1 {
		t.Fatalf("no adversarial block reached |c| = k−1 (closest %.3f of it)", closest)
	}
}

// TestZeroColumnAdversarial is the adversarial construction turned on one
// column: for every quantiser, column u and basis function (u, v), the
// aligned residual is grown until its row-pass energy in column u crosses
// the bound, which yields two residuals one unit of energy apart. In the
// one still at or below the bound column u must be skipped and must
// quantise to zero under the full route; in the one above it must run.
// checkFused holds the fused function to exactly that: its live count has
// to equal the columns over the bound by the test's own row pass (the
// other columns carry the integer construction's leakage, which at the
// smallest quantisers is itself over the bound), every column at or below
// must be zero in Forward + QuantizeInter's output, and the levels must
// match. Both residuals are gate survivors wherever the alignment is
// imperfect — the population the column test exists for.
func TestZeroColumnAdversarial(t *testing.T) {
	closest := 0.0
	for qp := MinQp; qp <= MaxQp; qp++ {
		bound := InterZeroBound(qp)
		k := float64(2*qp + qp/2)
		colEnergy := func(u, v, e int) float64 {
			r := alignedResidual(u, v, e)
			return columnEnergies(&r)[u]
		}
		for v := 0; v < BlockSize; v++ {
			for u := 0; u < BlockSize; u++ {
				// Σ_u E_u is the block's energy (Parseval), so E_u ≤ bound at
				// energy = bound; alignment improves with energy, so E_u
				// crosses over not far above. Bisect to adjacent energies on
				// either side of the crossing.
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
				at, over := alignedResidual(u, v, lo), alignedResidual(u, v, hi)

				var coef, want Block
				Forward(&coef, &at)
				QuantizeInter(&want, &coef, qp)
				colE := columnEnergies(&at)
				if colE[u] > float64(bound) {
					t.Fatalf("qp %d (%d,%d): built column energy %v, want ≤ %d", qp, u, v, colE[u], bound)
				}
				checkFused(t, "column at bound", &at, &want, &colE, qp)
				if c := math.Abs(float64(coef[v*8+u])) / (k - 1); c > closest {
					closest = c
				}

				Forward(&coef, &over)
				QuantizeInter(&want, &coef, qp)
				colE = columnEnergies(&over)
				if colE[u] <= float64(bound) {
					t.Fatalf("qp %d (%d,%d): built column energy %v, want > %d", qp, u, v, colE[u], bound)
				}
				checkFused(t, "column above bound", &over, &want, &colE, qp)
			}
		}
	}
	// As for the block gate: somewhere a skipped column must hold a
	// coefficient at the very edge of the dead zone, or this tests nothing.
	if closest < 1 {
		t.Fatalf("no skipped column reached |c| = k−1 (closest %.3f of it)", closest)
	}
}

// TestZeroBlockGateTable covers the block shapes the encoder meets:
// dense noise with its energy straddling each bound, sparse blocks,
// single spikes at every position, and constant planes.
func TestZeroBlockGateTable(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for qp := MinQp; qp <= MaxQp; qp++ {
		bound := InterZeroBound(qp)
		// Dense: uniform in [−a, a] has mean energy 64·a(a+1)/3; sweep a
		// so blocks land on both sides of the bound.
		a0 := int(math.Sqrt(3*float64(bound)/64)) + 1
		for trial := 0; trial < 200; trial++ {
			a := a0/2 + rng.Intn(a0+1)
			var r Block
			for i := range r {
				r[i] = int32(rng.Intn(2*a+1) - a)
			}
			checkGate(t, "dense", &r)
		}
		// Sparse: a handful of samples carry all the energy.
		for trial := 0; trial < 200; trial++ {
			var r Block
			n := 1 + rng.Intn(6)
			m := int(math.Sqrt(float64(bound)/float64(n))) + 1
			for j := 0; j < n; j++ {
				r[rng.Intn(64)] = int32(rng.Intn(2*m+1) - m)
			}
			checkGate(t, "sparse", &r)
		}
		// Spikes: the largest magnitude the bound admits, and one more.
		m := int32(math.Sqrt(float64(bound)))
		for pos := 0; pos < 64; pos++ {
			for _, v := range []int32{m, -m, m + 1, -m - 1} {
				var r Block
				r[pos] = v
				checkGate(t, "spike", &r)
			}
		}
		// Constant planes load the DC coefficient alone: F = 8c exactly.
		for c := int32(-10); c <= 10; c++ {
			var r Block
			for i := range r {
				r[i] = c
			}
			checkGate(t, "constant", &r)
		}
	}
}

// FuzzZeroBlockGate feeds arbitrary small residuals through the gate's
// contract at every quantiser. shift scales the samples so the fuzzer
// reaches energies on both sides of every bound (the largest is 5852).
func FuzzZeroBlockGate(f *testing.F) {
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, uint8(0))
	f.Add([]byte{0x7f, 0x80, 0x7f, 0x80}, uint8(3))
	f.Add(make([]byte, 64), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, shift uint8) {
		var r Block
		for i := range r {
			if len(data) > 0 {
				r[i] = int32(int8(data[i%len(data)])) >> (shift % 7)
			}
		}
		checkGate(t, "fuzz", &r)
	})
}

// FuzzForwardQuantizeInter covers the fused transform over the encoder's
// whole input range — residuals are differences of 8-bit samples, ±255 —
// starting from FuzzZeroBlockGate's corpus (scale 0 reproduces its small
// blocks, which sit around the bounds) plus full-range seeds.
func FuzzForwardQuantizeInter(f *testing.F) {
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, uint8(0), uint8(0))
	f.Add([]byte{0x7f, 0x80, 0x7f, 0x80}, uint8(3), uint8(0))
	f.Add(make([]byte, 64), uint8(1), uint8(0))
	f.Add([]byte{0x7f, 0x80, 0x7f, 0x80}, uint8(0), uint8(1))
	f.Add([]byte{40, 0, 0, 0, 0, 0, 0, 0, 216, 0, 0, 0, 0, 0, 0, 0, 3}, uint8(0), uint8(1))
	f.Add([]byte{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233}, uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, shift, scale uint8) {
		var r Block
		for i := range r {
			if len(data) > 0 {
				v := int32(int8(data[i%len(data)])) >> (shift % 7)
				if scale%2 == 1 {
					v *= 2 // ±256, clipped to the residual range below
				}
				r[i] = max(-255, min(255, v))
			}
		}
		checkGate(t, "fuzz", &r) // holds the fused route to the two-call one at every qp
	})
}
