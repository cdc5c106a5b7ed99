package metrics

import "repro/internal/frame"

// Offset is one full-pel candidate displacement of a search window,
// packed small so a whole ±15 spiral table is a few KB of L1.
type Offset struct{ DX, DY int16 }

// Rect is an inclusive rectangle of displacements: candidate (DX, DY) is
// inside when MinX ≤ DX ≤ MaxX and MinY ≤ DY ≤ MaxY.
type Rect struct{ MinX, MinY, MaxX, MaxY int }

// Empty reports whether r contains no displacement at all.
func (r Rect) Empty() bool { return r.MinX > r.MaxX || r.MinY > r.MaxY }

// Contains reports whether displacement o lies inside r.
func (r Rect) Contains(o Offset) bool {
	return int(o.DX) >= r.MinX && int(o.DX) <= r.MaxX &&
		int(o.DY) >= r.MinY && int(o.DY) <= r.MaxY
}

// SADBest scans cands in order, skipping those outside clip, and returns
// the index of the first candidate whose SAD — w×h block of cur at
// (cx, cy) against ref at (rx+DX, ry+DY) — is strictly below every
// earlier one and below best, together with that exact SAD. When no
// candidate beats best it returns (-1, best).
//
// Only the winner is defined. Unlike SADCapped there are no per-candidate
// values to pin, so a tier may abandon a losing candidate at whatever row
// granularity suits it: a candidate is dropped only once its partial sum
// has reached the running minimum, which it can then no longer beat, so
// every tier reports the same index and SAD. Every candidate inside clip
// must keep its block inside ref.
func SADBest(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int, cands []Offset, clip Rect, best int) (idx, sad int) {
	if len(cands) == 0 || clip.Empty() {
		return -1, best
	}
	if sadBestKernelFits(cur, cx, cy, ref, rx, ry, w, h, clip) {
		return kernels().sadBest(cur, cx, cy, ref, rx, ry, cands, clip, best)
	}
	return sadBestBy(sadCappedScalar, cur, cx, cy, ref, rx, ry, w, h, cands, clip, best)
}

// FewCands is the capacity of SADBestFew's candidate list.
const FewCands = 16

// SADBestFew is SADBest over cands[:n] for a short list the caller builds
// per block — a predictive searcher's predictor set, or one descent probe
// with the bar at bestSAD+1. The contract and the kernels are SADBest's;
// what differs is how the list travels. A slice handed through the kernel
// table escapes, so a caller's stack array would cost an allocation per
// call (or force the list into some long-lived scratch); an array passed
// by value does not — the same reason the ring entry returns its probes
// by value — and 64 bytes are cheaper to copy than to allocate.
func SADBestFew(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int, cands [FewCands]Offset, n int, clip Rect, best int) (idx, sad int) {
	if n <= 0 || clip.Empty() {
		return -1, best
	}
	list := cands[:n] // n > FewCands panics here, before any kernel trusts it
	if sadBestKernelFits(cur, cx, cy, ref, rx, ry, w, h, clip) {
		return kernels().sadBestFew(cur, cx, cy, ref, rx, ry, cands, n, clip, best)
	}
	return sadBestBy(sadCappedScalar, cur, cx, cy, ref, rx, ry, w, h, list, clip, best)
}

// sadBestKernelFits is the guard both entry points share: the table
// kernels take a 16×16 block with the cur block and every in-clip
// candidate inside the visible planes; anything else is the scalar scan.
func sadBestKernelFits(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int, clip Rect) bool {
	return w == 16 && h == 16 &&
		cx >= 0 && cy >= 0 && cx+16 <= cur.W && cy+16 <= cur.H &&
		rx+clip.MinX >= 0 && ry+clip.MinY >= 0 &&
		rx+clip.MaxX+16 <= ref.W && ry+clip.MaxY+16 <= ref.H
}

// sadBestBy is SADBest over a single-candidate capped kernel: the scalar
// reference with sadCappedScalar, the SWAR tier with sadCappedSWAR. A
// capped value is exact whenever it is ≤ cap, so s < best is decided on
// exact sums only.
func sadBestBy(capped func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h, cap int) int,
	cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int, cands []Offset, clip Rect, best int) (idx, sad int) {
	idx = -1
	for i, c := range cands {
		if !clip.Contains(c) {
			continue
		}
		if s := capped(cur, cx, cy, ref, rx+int(c.DX), ry+int(c.DY), w, h, best); s < best {
			idx, best = i, s
		}
	}
	return idx, best
}
