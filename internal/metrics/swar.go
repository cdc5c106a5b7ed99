package metrics

import "encoding/binary"

// SWAR (SIMD-within-a-register) kernels for the SAD family: 8 pixels are
// processed per uint64 load by splitting the bytes into 16-bit lanes, so
// one ALU op acts on four samples at once. The scalar implementations in
// sad.go (sadScalar and friends) are the reference the differential and
// fuzz tests compare against; every kernel here returns bit-identical
// results, including SADCapped's per-row early-termination value.
//
// Lane layout: a uint64 holds four 16-bit lanes, each carrying one byte
// value in [0,255]. Per-lane |x−y| is computed borrow-free by biasing each
// lane with +256 before the subtraction, and lane sums are folded with one
// multiply (the classic Σ-via-0x0001000100010001 trick). Lane sums stay
// below 2^16 for any block up to 128 samples per fold, far above the 16×16
// macroblocks this codec uses; folds happen at least once per row.

const (
	laneLo   = 0x00ff00ff00ff00ff // low byte of each 16-bit lane
	laneOnes = 0x0001000100010001 // 1 in each 16-bit lane
	laneBias = 0x0100010001000100 // 256 in each 16-bit lane
)

// absDiffLanes returns the per-16-bit-lane |x−y| for lane values ≤ 0xff.
func absDiffLanes(x, y uint64) uint64 {
	// d lane = x − y + 256 ∈ [1,511]: bit 8 is set exactly when x ≥ y, and
	// no lane ever borrows from its neighbour. For x ≥ y the answer is
	// d−256; otherwise it is 256−d = (d XOR 0x1ff) − 255, since d fits in
	// 9 bits. Folding both cases: |x−y| = (d ^ 0x1ff·(1−m)) − 255 − m with
	// m the x≥y lane flag — branch-free and multiply-free.
	d := x + laneBias - y
	m := (d >> 8) & laneOnes
	nm := m ^ laneOnes
	return (d ^ (nm<<9 - nm)) - laneLo - m
}

// foldLanes sums the four 16-bit lanes. Valid while the true total < 2^16.
func foldLanes(v uint64) int {
	return int((v * laneOnes) >> 48)
}

// avgLanes returns the per-lane rounding-up average (x+y+1)>>1 for lane
// values ≤ 0xff — the H.263 half-pel rule. Sums fit 9 bits, so lanes never
// carry into their neighbours; the bit each lane leaks into the one below
// during the shift is cleared by the final mask.
func avgLanes(x, y uint64) uint64 {
	return ((x + y + laneOnes) >> 1) & laneLo
}

// quadLanes returns the per-lane (a+b+c+d+2)>>2 for lane values ≤ 0xff —
// the H.263 diagonal half-pel rule. Sums fit 10 bits per lane; shift leaks
// are masked off.
func quadLanes(a, b, c, d uint64) uint64 {
	return ((a + b + c + d + 2*laneOnes) >> 2) & laneLo
}

// load8 reads 8 bytes little-endian. binary.LittleEndian.Uint64 is an
// intrinsic (one MOVQ on amd64); the wrapper keeps call sites short enough
// for the inliner.
func load8(b []uint8) uint64 {
	return binary.LittleEndian.Uint64(b)
}
