package frame

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Size-bucketed recycling for the pixel substrate.
//
// The encoder and decoder turn over large, identically sized buffers every
// frame: reconstruction planes (one padded frame per encoded/decoded
// frame) and the half-pel phase planes of the interpolated reference view.
// A single sync.Pool mixing every size would hand a QCIF-sized buffer to a
// CIF request (forcing a reallocation) and vice versa — with concurrent
// vcodecd sessions at mixed resolutions the sessions would thrash each
// other's buffers. Planes are therefore pooled whole per (W, H, apron)
// class; the pools are safe for concurrent use and never zero recycled
// memory (every consumer fully overwrites the samples it reads:
// reconstruction planes are written macroblock by macroblock, aprons are
// replicated at reference hand-off, and half-pel tiles are guarded by their
// claim state).

// planeKey is the pool bucket for recycled planes.
type planeKey struct{ w, h, apron int }

// planeBucket is one size class: its pool plus hit/miss counters. The
// counters are the observable cost of pool misses (a miss is a fresh
// allocation) — mixed-resolution workloads like the simulcast ladder are
// exactly where a thrashing bucket would hide without them. One atomic add
// per plane checkout, nothing on the release path.
type planeBucket struct {
	pool   sync.Pool
	hits   atomic.Uint64
	misses atomic.Uint64
}

var planePools sync.Map // planeKey → *planeBucket

func planePool(k planeKey) *planeBucket {
	if p, ok := planePools.Load(k); ok {
		return p.(*planeBucket)
	}
	p, _ := planePools.LoadOrStore(k, &planeBucket{})
	return p.(*planeBucket)
}

// PoolClassStats is one plane-pool size class's cumulative checkout
// counters since process start.
type PoolClassStats struct {
	W, H, Apron  int
	Hits, Misses uint64
}

// PoolStats snapshots every plane-pool size class, ordered by (W, H,
// apron) so metric emission is stable between scrapes.
func PoolStats() []PoolClassStats {
	var out []PoolClassStats
	planePools.Range(func(k, v any) bool {
		key := k.(planeKey)
		b := v.(*planeBucket)
		out = append(out, PoolClassStats{
			W: key.w, H: key.h, Apron: key.apron,
			Hits: b.hits.Load(), Misses: b.misses.Load(),
		})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.W != b.W {
			return a.W < b.W
		}
		if a.H != b.H {
			return a.H < b.H
		}
		return a.Apron < b.Apron
	})
	return out
}

// GetPlanePadded returns a w×h plane with the given apron drawn from the
// size-bucketed pool. The samples (visible and apron) have unspecified
// contents: the caller must fully overwrite the visible area and call
// ReplicateApron before any clamped/apron access. Hand the plane back with
// ReleasePlane once no reference to it (or to sub-slices of its buffer)
// remains.
func GetPlanePadded(w, h, apron int) *Plane {
	b := planePool(planeKey{w, h, apron})
	if v := b.pool.Get(); v != nil {
		b.hits.Add(1)
		return v.(*Plane)
	}
	b.misses.Add(1)
	if apron <= 0 {
		return &Plane{W: w, H: h, Stride: w, Pix: make([]uint8, w*h)}
	}
	stride := w + 2*apron
	return planeFromPadded(make([]uint8, stride*(h+2*apron)), w, h, apron)
}

// ReleasePlane recycles a plane obtained from GetPlanePadded (or any plane
// whose buffer may be reused). Safe to call on nil.
func ReleasePlane(p *Plane) {
	if p == nil {
		return
	}
	planePool(planeKey{p.W, p.H, p.apron}).pool.Put(p)
}

// GetFramePadded returns a 4:2:0 frame whose luma plane carries lumaApron
// and whose chroma planes carry chromaApron, drawn from the plane pools.
// Contents are unspecified (see GetPlanePadded). Release with
// (*Frame).Release.
func GetFramePadded(s Size, lumaApron, chromaApron int) *Frame {
	if s.W%2 != 0 || s.H%2 != 0 {
		panic("frame: odd luma size for 4:2:0")
	}
	f := framePool.Get().(*Frame)
	f.Y = GetPlanePadded(s.W, s.H, lumaApron)
	f.Cb = GetPlanePadded(s.W/2, s.H/2, chromaApron)
	f.Cr = GetPlanePadded(s.W/2, s.H/2, chromaApron)
	return f
}

// framePool recycles the Frame headers themselves, so a frame checkout
// whose planes hit their pools allocates nothing.
var framePool = sync.Pool{New: func() any { return new(Frame) }}

// Release recycles the frame's planes into the size-bucketed pools and
// the frame header into its own. The caller must guarantee nothing still
// references the frame, its planes or their buffers: a later checkout may
// hand out the same *Frame again. Safe to call on nil or on a frame
// already released.
func (f *Frame) Release() {
	if f == nil || f.Y == nil {
		return
	}
	ReleasePlane(f.Y)
	ReleasePlane(f.Cb)
	ReleasePlane(f.Cr)
	f.Y, f.Cb, f.Cr = nil, nil, nil
	framePool.Put(f)
}

// ReplicateAprons refreshes the apron samples of all three planes (see
// Plane.ReplicateApron).
func (f *Frame) ReplicateAprons() {
	f.Y.ReplicateApron()
	f.Cb.ReplicateApron()
	f.Cr.ReplicateApron()
}

// Half-pel materialisation counters: how many tiles (and sample bytes) of
// half-pel phase planes were actually computed. With the lazy tiled view
// these track the working set the interpolation really touches — bench/'s
// frame.halfpel_bytes_per_frame — instead of the full 3×W×H a per-frame
// eager build would pay.
var (
	interpTiles atomic.Uint64
	interpBytes atomic.Uint64
)

// InterpFillStats returns the cumulative count of half-pel tiles
// materialised and the sample bytes computed for them, across all
// Interpolated views since process start. Deltas around an encode give
// the per-sequence figure.
func InterpFillStats() (tiles, bytes uint64) {
	return interpTiles.Load(), interpBytes.Load()
}
