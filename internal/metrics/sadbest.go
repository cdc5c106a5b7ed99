package metrics

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/frame"
)

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

// SADBest returns the displacement o in clip whose SAD — w×h block of cur
// at (cx, cy) against ref at (rx+DX, ry+DY) — is smallest and below best,
// ties going to the shorter L1 vector and then to the raster-first
// (DY, DX): the first strictly-smallest SAD of a scan in Spiral order. It
// returns that exact SAD and ok; when no displacement in clip beats best it
// returns the zero Offset, best and false.
//
// Only the winner is defined. Unlike SADCapped there are no per-candidate
// values to pin, so a tier may abandon a losing candidate at whatever row
// granularity suits it, or before reading it: a candidate is dropped only
// once a lower bound on its SAD — a partial sum, or (AVX2) a successive-
// elimination bound — shows it can no longer win, so every tier reports the
// same winner and SAD. Every displacement inside clip must keep its block
// inside ref.
//
// sums, when non-nil, is the caller's BoxSums, Reset onto ref since ref's
// pixels last changed: the AVX2 bound reads the reference's 4×4 sums from
// it and fills the tiles this window needs that no earlier call filled.
// With nil (or a BoxSums Reset onto a plane of another size) the call
// computes its own window's sums. The result is the same either way.
func SADBest(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int, clip Rect, best int, sums *BoxSums) (o Offset, sad int, ok bool) {
	if clip.Empty() {
		return Offset{}, best, false
	}
	spiral := Spiral(clip.radius())
	if sadBestKernelFits(cur, cx, cy, ref, rx, ry, w, h, clip) {
		o, sad = kernels().sadBest(cur, cx, cy, ref, rx, ry, spiral, clip, best, sums)
	} else {
		o, sad = spiralBest(sadCappedScalar, cur, cx, cy, ref, rx, ry, w, h, spiral, clip, best)
	}
	if sad >= best {
		return Offset{}, best, false
	}
	return o, sad, true
}

// radius is the smallest r whose ±r square holds the rectangle: the
// Spiral table SADBest walks.
func (r Rect) radius() int {
	return max(-r.MinX, r.MaxX, -r.MinY, r.MaxY)
}

// Spiral returns all (2r+1)² full-pel displacements of ±r, r ≥ 0, sorted
// centre-outward: ascending |DX|+|DY|, ties in raster (DY, DX) order. The
// table is built once per radius and shared; callers must not modify it.
//
// A scan that keeps the first strictly-smallest SAD along this order names
// the lowest (SAD, L1, DY, DX) — the candidate a raster scan breaking SAD
// ties toward the shorter vector keeps — and its running minimum drops
// after a handful of candidates, since real motion is mostly short.
// SADBest's first phase on AVX2 is the head of this table, the L1 ≤ 2
// positions (mseaHead of them).
func Spiral(r int) []Offset {
	if t := spiralLast.Load(); t != nil && t.r == r {
		return t.offs
	}
	v, ok := spiralCache.Load(r)
	if !ok {
		n := 2*r + 1
		offs := make([]Offset, 0, n*n)
		for dy := -r; dy <= r; dy++ {
			for dx := -r; dx <= r; dx++ {
				offs = append(offs, Offset{DX: int16(dx), DY: int16(dy)})
			}
		}
		sort.SliceStable(offs, func(i, j int) bool { return offs[i].L1() < offs[j].L1() })
		v, _ = spiralCache.LoadOrStore(r, &spiralTable{r: r, offs: offs})
	}
	t := v.(*spiralTable)
	spiralLast.Store(t)
	return t.offs
}

// spiralTable is one radius' Spiral table. spiralCache holds every table
// built so far; spiralLast is the one asked for last, which every call of
// an encode at one search range asks for again, found without hashing.
type spiralTable struct {
	r    int
	offs []Offset
}

var (
	spiralCache sync.Map // radius (int) → *spiralTable
	spiralLast  atomic.Pointer[spiralTable]
)

// L1 is the displacement's city-block length |DX|+|DY|.
func (o Offset) L1() int {
	return max(int(o.DX), -int(o.DX)) + max(int(o.DY), -int(o.DY))
}

// spiralBest is sadBest over the whole Spiral table: sadBestBy's winner,
// looked up.
func spiralBest(capped func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h, cap int) int,
	cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int, spiral []Offset, clip Rect, best int) (Offset, int) {
	i, sad := sadBestBy(capped, cur, cx, cy, ref, rx, ry, w, h, spiral, clip, best)
	return at(spiral, i), sad
}

// at is list[i], or the zero Offset for the index -1 that names no winner.
func at(list []Offset, i int) Offset {
	if i < 0 {
		return Offset{}
	}
	return list[i]
}

// FewCands is the capacity of SADBestFew's candidate list.
const FewCands = 16

// SADBestFew scans cands[:n] in order, skipping those outside clip, and
// returns the index of the first candidate whose SAD is strictly below
// every earlier one and below best, with that exact SAD, or (-1, best):
// SADBest over a short list the caller builds per block — a predictive
// searcher's predictor set, or one descent probe with the bar at
// bestSAD+1 — instead of the whole window. Only the winner is defined, as
// for SADBest. A slice handed through the kernel table escapes, so a
// caller's stack array would cost an allocation per call (or force the
// list into some long-lived scratch); an array passed by value does not —
// the same reason the ring entry returns its probes by value — and 64
// bytes are cheaper to copy than to allocate.
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

// sadBestBy is SADBestFew's list scan — and, over the Spiral table,
// SADBest's — on a single-candidate capped kernel: the scalar reference
// with sadCappedScalar, the SWAR tier with sadCappedSWAR. A
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
