package metrics

import "repro/internal/frame"

// Offset is one full-pel candidate displacement of a search window,
// packed small so a whole ±15 spiral table is a few KB of L1.
type Offset struct{ DX, DY int16 }

// Rect is an inclusive rectangle of displacements: candidate (DX, DY) is
// inside when MinX ≤ DX ≤ MaxX and MinY ≤ DY ≤ MaxY.
type Rect struct{ MinX, MinY, MaxX, MaxY int }

func (r Rect) contains(o Offset) bool {
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
	if len(cands) == 0 || clip.MinX > clip.MaxX || clip.MinY > clip.MaxY {
		return -1, best
	}
	if w == 16 && h == 16 &&
		cx >= 0 && cy >= 0 && cx+16 <= cur.W && cy+16 <= cur.H &&
		rx+clip.MinX >= 0 && ry+clip.MinY >= 0 &&
		rx+clip.MaxX+16 <= ref.W && ry+clip.MaxY+16 <= ref.H {
		return kernels().sadBest(cur, cx, cy, ref, rx, ry, cands, clip, best)
	}
	return sadBestBy(sadCappedScalar, cur, cx, cy, ref, rx, ry, w, h, cands, clip, best)
}

// sadBestBy is SADBest over a single-candidate capped kernel: the scalar
// reference with sadCappedScalar, the SWAR tier with sadCappedSWAR. A
// capped value is exact whenever it is ≤ cap, so s < best is decided on
// exact sums only.
func sadBestBy(capped func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h, cap int) int,
	cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int, cands []Offset, clip Rect, best int) (idx, sad int) {
	idx = -1
	for i, c := range cands {
		if !clip.contains(c) {
			continue
		}
		if s := capped(cur, cx, cy, ref, rx+int(c.DX), ry+int(c.DY), w, h, best); s < best {
			idx, best = i, s
		}
	}
	return idx, best
}
