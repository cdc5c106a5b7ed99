package metrics

import (
	"sync"

	"repro/internal/frame"
)

// BoxSums caches the 4×4 box sums of one reference plane — the sum at
// (x, y) is Σ ref[y..y+3][x..x+3], for x ≤ W−4 and y ≤ H−4 — which the
// AVX2 SADBest route's successive-elimination bound reads. About seven ±15
// windows cover each position, so an encoder that searches every
// macroblock of a frame against one reference computes each sum once
// instead of once per window.
//
// The sums are filled lazily, one tile of 16×16 positions when a window
// first needs it, so a frame that full-searches only a few blocks (ACBM's
// critical ones) pays only for their tiles. Tile origins sit at −radius mod
// 16 on both axes: an interior ±radius window's sum area then starts on a
// tile corner, and at ±15 its 43×43 sums are exactly 3×3 tiles. A tile is
// clipped to the plane's positions, so a fill reads no apron byte.
//
// A BoxSums belongs to one goroutine: the encoder keeps one per analysis
// lane, which fills what the blocks it runs need, with no locks. Reset puts
// it onto a reference; the caller must Reset it again whenever the
// reference's contents change, since nothing here can tell (a pooled plane
// keeps its header, so not even the pointer says so). The zero value is
// ready for Reset. Tiers other than AVX2 have no bound pass and ignore it.
type BoxSums struct {
	w, h   int // sum positions per row, and rows: the plane's W−3 and H−3
	shift  int // radius mod sumTile: tile i starts at position sumTile·i − shift
	tilesX int
	tilesY int
	gen    uint32    // this Reset's generation, ≥ 1
	filled []uint32  // per tile, the generation that filled it
	buf    *[]uint16 // the sums, from sumsPool: row y at y·w, then sumTail words of slack
}

// sumsPool recycles BoxSums storage (~50 KB for QCIF, ~200 KB for CIF)
// across encoders, as the codec's mbResultsPool does its result slabs: a
// lane takes it on its first fill and keeps it across frames, and the
// encoder gives it back with Release when its session ends, so a
// stream of short sessions does not allocate it once each.
var sumsPool sync.Pool // stores *[]uint16

// sumTile is the side of a BoxSums tile, in positions.
const sumTile = 16

// Reset empties b and sets it up for ref's plane geometry, its tiles
// aligned to ±radius windows. It allocates nothing: the first fill after it
// takes the storage.
func (b *BoxSums) Reset(ref *frame.Plane, radius int) {
	b.w, b.h = ref.W-3, ref.H-3
	b.shift = (radius%sumTile + sumTile) % sumTile
	b.tilesX, b.tilesY = b.tile(b.w-1)+1, b.tile(b.h-1)+1
	if b.gen++; b.gen == 0 {
		clear(b.filled)
		b.gen = 1
	}
	// Storage too small for this geometry is dropped here, so that a fill
	// needs to check only for none.
	if len(b.filled) < b.tilesX*b.tilesY {
		b.filled = nil
	}
	if b.buf != nil && len(*b.buf) < b.w*b.h+sumTail {
		b.buf = nil
	}
}

// tile is the index of the tile row or column holding position p ≥ 0.
func (b *BoxSums) tile(p int) int { return int(uint(p+b.shift) / sumTile) }

// Release gives b's storage back to the pool and empties b until the next
// Reset: a SADBest handed b in between computes its own window's sums.
// The owner calls it when it is done with b, not per frame.
func (b *BoxSums) Release() {
	if b.buf != nil {
		sumsPool.Put(b.buf)
		b.buf = nil
	}
	b.w, b.h = 0, 0
}

// grow gives b the stamps and sums its geometry needs where it holds none:
// new stamps (zero, no generation), and sums from the pool or allocated.
func (b *BoxSums) grow() {
	if b.filled == nil {
		b.filled = make([]uint32, b.tilesX*b.tilesY)
	}
	if b.buf == nil {
		n := b.w*b.h + sumTail
		p, _ := sumsPool.Get().(*[]uint16)
		if p == nil || cap(*p) < n {
			s := make([]uint16, n)
			p = &s
		}
		*p = (*p)[:n]
		b.buf = p
	}
}

// sumTail is the slack past the last row of sums: the bound pass reads up
// to 16 words beyond a row of a window's sum area, masking them off.
const sumTail = 16

// covers reports whether b was Reset onto a plane of ref's geometry, so
// that every position of ref has its slot. A nil b, or one never Reset or
// Released since, covers nothing: the caller then takes a per-call cache.
func (b *BoxSums) covers(ref *frame.Plane) bool {
	return b != nil && b.w == ref.W-3 && b.h == ref.H-3
}
