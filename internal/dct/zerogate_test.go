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
// gates it.
func checkGate(t *testing.T, what string, resid *Block) {
	t.Helper()
	e := energy(resid)
	var coef, levels Block
	Forward(&coef, resid)
	for qp := MinQp; qp <= MaxQp; qp++ {
		if e > InterZeroBound(qp) {
			continue
		}
		QuantizeInter(&levels, &coef, qp)
		if levels != (Block{}) {
			t.Fatalf("%s: energy %d ≤ bound %d at qp %d, yet levels %v (resid %v)",
				what, e, InterZeroBound(qp), qp, levels, *resid)
		}
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
