package search

import (
	"sort"
	"sync"

	"repro/internal/metrics"
	"repro/internal/mvfield"
)

// Spiral scan order for the full search: candidates are visited centre
// outward (ascending L1 vector length) instead of in raster order, so the
// running minimum — the bar every later candidate is abandoned against —
// drops after a handful of candidates instead of after half the raster. Real
// motion is overwhelmingly short, so the first rings almost always contain
// a near-minimal SAD and the remaining ~900 candidates of a ±15 search
// abort on their first rows.
//
// The scan order is chosen so the reported winner is IDENTICAL to the
// raster scan's, not merely equal in SAD. better() breaks SAD ties toward
// the shorter L1 vector, so the final winner of any scan order is the
// first-visited candidate among those minimising (SAD, L1) lexically.
// Visiting candidates sorted by (L1, then raster position v, u) makes that
// first-visited candidate the raster-minimal one — exactly the candidate
// the raster loop would have kept. Points counts are unchanged because the
// candidate set is unchanged.
//
// Ascending L1 also means a later candidate is never shorter than the
// incumbent, so better()'s tie clause cannot fire during the scan: the
// winner is simply the first strictly-smallest SAD. That is the whole
// contract of metrics.SADBest, which is why the table is kept in its
// packed displacement form — one kernel call scans it.
var spiralCache sync.Map // search range (int) → []metrics.Offset in scan order

// spiralOffsets returns all (2r+1)² full-pel candidate displacements for
// ±r, sorted centre-outward: ascending |u|+|v|, ties in raster (v, u)
// order.
func spiralOffsets(r int) []metrics.Offset {
	if v, ok := spiralCache.Load(r); ok {
		return v.([]metrics.Offset)
	}
	n := 2*r + 1
	offs := make([]metrics.Offset, 0, n*n)
	for v := -r; v <= r; v++ {
		for u := -r; u <= r; u++ {
			offs = append(offs, metrics.Offset{DX: int16(u), DY: int16(v)})
		}
	}
	sort.SliceStable(offs, func(i, j int) bool {
		return offsetMV(offs[i]).L1() < offsetMV(offs[j]).L1()
	})
	actual, _ := spiralCache.LoadOrStore(r, offs)
	return actual.([]metrics.Offset)
}

// offsetMV is the motion vector of a full-pel table displacement.
func offsetMV(o metrics.Offset) mvfield.MV {
	return mvfield.FromFullPel(int(o.DX), int(o.DY))
}
