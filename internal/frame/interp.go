package frame

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
)

// Interpolated is a half-pel upsampled view of a plane, built with the
// H.263 bilinear interpolation rules (rounding up, +1 before the shift).
//
// For a source plane of size W×H the interpolated grid has (2W)×(2H)
// positions. Position (2x, 2y) equals the integer sample (x, y); odd
// coordinates are the horizontal, vertical and diagonal half-pel samples.
// Samples referenced beyond the borders replicate the edge, so motion
// vectors that keep the *integer* block inside the frame are always valid
// at half-pel precision too.
//
// Storage is phase-split: the integer phase is the source plane itself
// (never copied), and the three half-pel phases live in separate W×H
// planes (Phase b: horizontal, c: vertical, d: diagonal), each carrying a
// HalfPelApron replicated-interpolation border. A SAD probe over a block
// uses exactly one phase — the parity of its half-pel anchor — so phase
// planes make it a contiguous row walk instead of a stride-2 gather.
//
// Views from InterpolateLazy materialise phase samples tile by tile on
// first touch: TileSize×TileSize regions (plus the adjoining apron strips
// on border tiles) are computed only when PhaseRect or At lands on them.
// Tile fills are idempotent — every fill of a tile writes the identical
// bytes — and guarded by an atomic claim state, so concurrent
// first-touches of the same tile are race-clean: one claims and fills,
// the rest spin until the fill is published. Views from Interpolate are
// fully materialised up front and skip the claim checks.
//
// Nothing on the codec path touches a tile any more: the encoder and
// decoder fetch prediction bytes with HalfPelBlock on the reference plane
// (Block is that same function), and the searchers' half-pel probes fuse
// the interpolation into the SAD kernel. The tiled view is what the tests
// use as the materialised oracle and what the benchmark harness probes as
// a layer (PhaseRect, Release, InterpFillStats).
type Interpolated struct {
	W, H int // dimensions of the half-pel grid (2× source)

	src     *Plane
	b, c, d hpPhase // phases (1,0), (0,1), (1,1)

	tcols, trows int // tile grid (shared by all three phases)
	pooled       bool
}

// hpPhase is one lazily materialised half-pel phase plane.
type hpPhase struct {
	plane *Plane
	id    int // phaseB/phaseC/phaseD: selects the fill rule
	// state holds one claim word per tile (tileEmpty/tileFilling/
	// tileReady); nil means the phase is fully materialised and needs no
	// claim checks (eager views).
	state []uint32
}

const (
	// HalfPelApron is the replicated-interpolation border carried by each
	// half-pel phase plane, in full-pel units. Any access within this
	// margin of the grid — chroma vectors derived from legal luma vectors
	// overshoot by at most one half-pel position — stays on the fast path.
	HalfPelApron = 2

	// MinInterpApron is the source-plane apron needed to fill phase
	// samples (including the HalfPelApron border) without clamping: the
	// diagonal phase at x = W-1+HalfPelApron reads source column x+1.
	// Reference planes should carry at least this much padding.
	MinInterpApron = HalfPelApron + 1

	// TileSize is the side of one lazily filled phase tile, in full-pel
	// units (so a tile covers a 16×16 macroblock footprint per phase).
	TileSize = 16
)

const (
	tileEmpty uint32 = iota
	tileFilling
	tileReady
)

// Interpolate builds the fully materialised half-pel view of p.
//
//	a = A
//	b = (A + B + 1) / 2
//	c = (A + C + 1) / 2
//	d = (A + B + C + D + 2) / 4
//
// where A is the integer sample and B, C, D its right, below and
// below-right neighbours (edge-replicated).
func Interpolate(p *Plane) *Interpolated {
	ip := newInterpolated(p, false)
	for ty := 0; ty < ip.trows; ty++ {
		for tx := 0; tx < ip.tcols; tx++ {
			ip.fillTile(&ip.b, tx, ty)
			ip.fillTile(&ip.c, tx, ty)
			ip.fillTile(&ip.d, tx, ty)
		}
	}
	// Fully materialised: drop the claim states so every access skips the
	// tile checks.
	ip.b.state, ip.c.state, ip.d.state = nil, nil, nil
	return ip
}

// interpKey buckets pooled views by source size, so concurrent sessions at
// mixed resolutions recycle only their own grids.
type interpKey struct{ w, h int }

var interpPools sync.Map // interpKey → *sync.Pool

func interpPool(k interpKey) *sync.Pool {
	if p, ok := interpPools.Load(k); ok {
		return p.(*sync.Pool)
	}
	p, _ := interpPools.LoadOrStore(k, &sync.Pool{})
	return p.(*sync.Pool)
}

// InterpolateLazy returns a lazily materialised half-pel view of p drawn
// from a size-bucketed pool: no phase sample is computed until a probe or
// block fetch first touches its tile. The caller must hand the view back
// with Release once no reference to it remains. p must stay unchanged for
// the lifetime of the view (it is read on every tile fill).
func InterpolateLazy(p *Plane) *Interpolated {
	k := interpKey{p.W, p.H}
	if v := interpPool(k).Get(); v != nil {
		ip := v.(*Interpolated)
		ip.src = p
		clear(ip.b.state)
		clear(ip.c.state)
		clear(ip.d.state)
		return ip
	}
	return newInterpolated(p, true)
}

// newInterpolated allocates the phase planes and (for lazy views) the tile
// claim states for a view of p.
func newInterpolated(p *Plane, pooled bool) *Interpolated {
	ip := &Interpolated{
		W: 2 * p.W, H: 2 * p.H,
		src:    p,
		tcols:  (p.W + TileSize - 1) / TileSize,
		trows:  (p.H + TileSize - 1) / TileSize,
		pooled: pooled,
	}
	n := ip.tcols * ip.trows
	mk := func(id int) hpPhase {
		return hpPhase{
			plane: GetPlanePadded(p.W, p.H, HalfPelApron),
			id:    id,
			state: make([]uint32, n),
		}
	}
	ip.b, ip.c, ip.d = mk(phaseB), mk(phaseC), mk(phaseD)
	return ip
}

// Release returns a view obtained from InterpolateLazy to its pool. It is
// safe to call on nil and on fully materialised views from Interpolate
// (whose phase planes then become poolable).
func (ip *Interpolated) Release() {
	if ip == nil {
		return
	}
	ip.src = nil
	if !ip.pooled {
		ReleasePlane(ip.b.plane)
		ReleasePlane(ip.c.plane)
		ReleasePlane(ip.d.plane)
		ip.b, ip.c, ip.d = hpPhase{}, hpPhase{}, hpPhase{}
		return
	}
	interpPool(interpKey{ip.W / 2, ip.H / 2}).Put(ip)
}

// phase identifiers, used to pick the fill rule.
const (
	phaseB = iota // (1,0): horizontal half-pel
	phaseC        // (0,1): vertical half-pel
	phaseD        // (1,1): diagonal half-pel
)

// phaseOf maps half-pel parities to the phase plane (nil for the integer
// phase).
func (ip *Interpolated) phaseOf(px, py int) *hpPhase {
	switch {
	case px == 1 && py == 0:
		return &ip.b
	case px == 0 && py == 1:
		return &ip.c
	case px == 1 && py == 1:
		return &ip.d
	}
	return nil
}

// ensure materialises every tile of ph intersecting the plane-coordinate
// rectangle [x0, x1]×[y0, y1] (inclusive; coordinates may reach into the
// apron — border tiles fill their adjoining apron strips). Concurrent
// callers are race-clean: the claim state serialises each tile's single
// idempotent fill.
func (ip *Interpolated) ensure(ph *hpPhase, x0, y0, x1, y1 int) {
	if ph.state == nil {
		return
	}
	w, h := ip.W/2, ip.H/2
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 >= w {
		x1 = w - 1
	}
	if y1 >= h {
		y1 = h - 1
	}
	for ty := y0 / TileSize; ty <= y1/TileSize; ty++ {
		for tx := x0 / TileSize; tx <= x1/TileSize; tx++ {
			i := ty*ip.tcols + tx
			st := &ph.state[i]
			if atomic.LoadUint32(st) == tileReady {
				continue
			}
			if atomic.CompareAndSwapUint32(st, tileEmpty, tileFilling) {
				ip.fillTile(ph, tx, ty)
				atomic.StoreUint32(st, tileReady)
				continue
			}
			for atomic.LoadUint32(st) != tileReady {
				runtime.Gosched()
			}
		}
	}
}

// fillTile computes phase samples for tile (tx, ty): its TileSize×TileSize
// interior, extended into the apron on border tiles so that apron accesses
// behave exactly like AtClamped. Every fill of a tile writes the same
// bytes (the fill is a pure function of the source plane), which is what
// makes concurrent claims safe to wait on.
func (ip *Interpolated) fillTile(ph *hpPhase, tx, ty int) {
	w, h := ip.W/2, ip.H/2
	ap := ph.plane.apron
	fx0, fx1 := tx*TileSize, tx*TileSize+TileSize
	fy0, fy1 := ty*TileSize, ty*TileSize+TileSize
	if tx == 0 {
		fx0 = -ap
	}
	if fx1 >= w {
		fx1 = w + ap
	}
	if ty == 0 {
		fy0 = -ap
	}
	if fy1 >= h {
		fy1 = h + ap
	}
	src := ip.src
	if src.apron >= MinInterpApron {
		// Padded source: the interpolation of the edge-replicated source
		// equals clamped interpolation everywhere (including the apron), so
		// the fill needs no per-sample branches.
		for y := fy0; y < fy1; y++ {
			n := fx1 - fx0
			dst := ph.plane.padRow(y)[ap+fx0 : ap+fx0+n]
			r0 := src.padRow(y)[src.apron+fx0:]
			switch ph.id {
			case phaseB:
				avgRowUp(dst, r0[:n], r0[1:n+1])
			case phaseC:
				r1 := src.padRow(y + 1)[src.apron+fx0:]
				avgRowUp(dst, r0[:n], r1[:n])
			default:
				r1 := src.padRow(y + 1)[src.apron+fx0:]
				quadRowUp(dst, r0[:n], r0[1:n+1], r1[:n], r1[1:n+1])
			}
		}
	} else {
		// Clamped fill for unpadded sources (views over tight planes):
		// rows are clamped wholesale and only the few edge columns fall
		// back to per-sample clamping; the interior span runs the same
		// word-parallel kernels as the padded path.
		clampY := func(y int) int {
			if y < 0 {
				return 0
			}
			if y >= h {
				return h - 1
			}
			return y
		}
		xi0, xi1 := fx0, fx1
		if xi0 < 0 {
			xi0 = 0
		}
		if xi1 > w-1 {
			xi1 = w - 1 // interior needs column x+1 in bounds
		}
		for y := fy0; y < fy1; y++ {
			dst := ph.plane.padRow(y)[ap+fx0 : ap+fx1]
			r0 := src.Row(clampY(y))
			r1 := src.Row(clampY(y + 1))
			if xi1 > xi0 {
				di := dst[xi0-fx0 : xi1-fx0]
				switch ph.id {
				case phaseB:
					avgRowUp(di, r0[xi0:xi1], r0[xi0+1:xi1+1])
				case phaseC:
					avgRowUp(di, r0[xi0:xi1], r1[xi0:xi1])
				default:
					quadRowUp(di, r0[xi0:xi1], r0[xi0+1:xi1+1], r1[xi0:xi1], r1[xi0+1:xi1+1])
				}
			}
			for x := fx0; x < fx1; x++ {
				if x >= xi0 && x < xi1 {
					x = xi1 - 1
					continue
				}
				a := int(src.AtClamped(x, y))
				b := int(src.AtClamped(x+1, y))
				c := int(src.AtClamped(x, y+1))
				d := int(src.AtClamped(x+1, y+1))
				switch ph.id {
				case phaseB:
					dst[x-fx0] = uint8((a + b + 1) >> 1)
				case phaseC:
					dst[x-fx0] = uint8((a + c + 1) >> 1)
				default:
					dst[x-fx0] = uint8((a + b + c + d + 2) >> 2)
				}
			}
		}
	}
	interpTiles.Add(1)
	interpBytes.Add(uint64((fx1 - fx0) * (fy1 - fy0)))
}

// avgRowUp writes the rounding-up byte average (a[i]+b[i]+1)>>1 into dst,
// eight samples per word: avg = (a|b) − ((a^b)>>1) per byte, carried out
// borrow-free with the low-7-bit mask.
func avgRowUp(dst, a, b []uint8) {
	n := len(dst)
	x := 0
	for ; x+8 <= n; x += 8 {
		va := leU64(a[x:])
		vb := leU64(b[x:])
		putLeU64(dst[x:], (va|vb)-((va^vb)>>1&0x7f7f7f7f7f7f7f7f))
	}
	for ; x < n; x++ {
		dst[x] = uint8((int(a[x]) + int(b[x]) + 1) >> 1)
	}
}

// quadRowUp writes (a+b+c+d+2)>>2 per sample into dst, eight samples per
// iteration via 16-bit lanes (sums ≤ 1022 fit a lane; the shift leak into
// the neighbouring lane is masked off before repacking).
func quadRowUp(dst, a, b, c, d []uint8) {
	const lo8 = 0x00ff00ff00ff00ff
	const ones = 0x0001000100010001
	n := len(dst)
	x := 0
	for ; x+8 <= n; x += 8 {
		va, vb := leU64(a[x:]), leU64(b[x:])
		vc, vd := leU64(c[x:]), leU64(d[x:])
		sumLo := va&lo8 + vb&lo8 + vc&lo8 + vd&lo8 + 2*ones
		sumHi := (va>>8)&lo8 + (vb>>8)&lo8 + (vc>>8)&lo8 + (vd>>8)&lo8 + 2*ones
		putLeU64(dst[x:], (sumLo>>2)&lo8|(sumHi>>2)&lo8<<8)
	}
	for ; x < n; x++ {
		dst[x] = uint8((int(a[x]) + int(b[x]) + int(c[x]) + int(d[x]) + 2) >> 2)
	}
}

// leU64/putLeU64 wrap the encoding/binary intrinsics (single MOVQ on
// amd64), matching the load idiom of internal/metrics' SWAR kernels.
func leU64(b []uint8) uint64 { return binary.LittleEndian.Uint64(b) }

func putLeU64(b []uint8, v uint64) { binary.LittleEndian.PutUint64(b, v) }

// PhaseRect ensures the phase samples for the w×h full-pel-step block
// anchored at half-pel position (hx, hy) are materialised and returns the
// backing plane together with the block's plane-coordinate anchor. For
// integer phases the source plane is returned directly. The anchor may
// reach into the HalfPelApron border; accesses beyond it must go through
// AtClamped/Block instead.
func (ip *Interpolated) PhaseRect(hx, hy, w, h int) (p *Plane, x0, y0 int) {
	x0, y0 = hx>>1, hy>>1
	ph := ip.phaseOf(hx&1, hy&1)
	if ph == nil {
		return ip.src, x0, y0
	}
	ip.ensure(ph, x0, y0, x0+w-1, y0+h-1)
	return ph.plane, x0, y0
}

// At returns the half-pel grid sample at (hx, hy), where even coordinates
// are integer positions. Coordinates must be in [0, 2W)×[0, 2H).
func (ip *Interpolated) At(hx, hy int) uint8 {
	x, y := hx>>1, hy>>1
	ph := ip.phaseOf(hx&1, hy&1)
	if ph == nil {
		return ip.src.At(x, y)
	}
	ip.ensure(ph, x, y, x, y)
	return ph.plane.At(x, y)
}

// AtClamped is At with edge replication for out-of-range coordinates.
func (ip *Interpolated) AtClamped(hx, hy int) uint8 {
	if hx < 0 {
		hx = 0
	} else if hx >= ip.W {
		hx = ip.W - 1
	}
	if hy < 0 {
		hy = 0
	} else if hy >= ip.H {
		hy = ip.H - 1
	}
	return ip.At(hx, hy)
}

// Block copies the w×h prediction block whose top-left corner sits at
// half-pel position (hx, hy) into dst (row-major, len ≥ w*h). It is
// HalfPelBlock on the view's source plane: the samples are computed from
// the source directly and no tile is touched.
func (ip *Interpolated) Block(dst []uint8, hx, hy, w, h int) {
	HalfPelBlock(dst, w, ip.src, hx, hy, w, h)
}

// HalfPelBlock writes into dst — rows dstStride apart, len ≥
// (h−1)·dstStride + w, so dst may be a window of a plane being
// reconstructed as well as a tight w×h tile — the w×h prediction block
// whose top-left corner sits at half-pel position (hx, hy) of p: even
// coordinates are integer positions, successive block samples are one full
// pel apart, and each sample is computed from p by the rules Interpolate
// documents. The whole block has one phase, the parity of its anchor, so a
// row is a plain copy (integer phase) or one word-parallel pass over one
// (b, c) or two (d) source rows; nothing but the w×h window of dst is
// written. It is the definition of the encoder's and decoder's prediction
// fetch (metrics.PredictBlock: this function is its scalar tier and what
// every vector tier is pinned to), and what Interpolated.Block returns.
//
// While every source sample the block reads lies within p's apron the
// rows are read straight from the padded storage, which must hold the
// edge-replicated values (ReplicateApron) — a chroma vector derived from a
// legal luma vector overshoots the plane by at most one sample. Anything
// further out (vectors of a corrupt stream, tight planes at the border)
// takes the per-sample edge-clamped route; both produce the bytes
// Interpolated.AtClamped reports for the same positions.
func HalfPelBlock(dst []uint8, dstStride int, p *Plane, hx, hy, w, h int) {
	px, py := hx&1, hy&1
	x0, y0 := hx>>1, hy>>1
	if !p.InApron(x0, y0, w+px, h+py) {
		// (A + B + C + D + 2) >> 2 with B, C, D collapsing onto A along an
		// integer axis is every phase's rule at once: (2A + 2B + 2) >> 2 =
		// (A + B + 1) >> 1, and (4A + 2) >> 2 = A.
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				sx, sy := x0+x, y0+y
				sum := int(p.AtClamped(sx, sy)) + int(p.AtClamped(sx+px, sy)) +
					int(p.AtClamped(sx, sy+py)) + int(p.AtClamped(sx+px, sy+py))
				dst[y*dstStride+x] = uint8((sum + 2) >> 2)
			}
		}
		return
	}
	pix, stride := p.PixFrom(x0, y0), p.Stride
	for y, o := 0, 0; y < h; y, o = y+1, o+stride {
		d := dst[y*dstStride : y*dstStride+w]
		r0 := pix[o : o+w+px]
		switch {
		case py == 0 && px == 0:
			copy(d, r0)
		case py == 0:
			avgRowUp(d, r0[:w], r0[1:])
		case px == 0:
			avgRowUp(d, r0, pix[o+stride:o+stride+w])
		default:
			r1 := pix[o+stride : o+stride+w+1]
			quadRowUp(d, r0[:w], r0[1:], r1[:w], r1[1:])
		}
	}
}
