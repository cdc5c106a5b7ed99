// Package frame provides the pixel-domain substrate for the ACBM
// reproduction: 8-bit luminance/chrominance planes, YUV 4:2:0 frames in the
// QCIF/CIF formats used by the paper, H.263-style half-pel interpolation,
// and quality metrics (MSE/PSNR).
//
// Planes store samples row-major with an explicit stride so that views and
// whole planes share one representation. A plane may additionally carry a
// replicated border apron (NewPlanePadded): the stride then covers the
// padding and Pix is windowed into the padded buffer so that sample (x, y)
// still lives at Pix[y*Stride+x], while coordinates up to Apron() samples
// outside the plane are backed by real memory holding the edge-replicated
// values (after ReplicateApron). Reference planes use this so block
// matching and interpolation never branch on the frame border. All
// block-matching code in internal/search and internal/codec operates on
// *Plane values from this package.
package frame

import (
	"errors"
	"fmt"
)

// Plane is a rectangular grid of 8-bit samples (one video component).
// Pix holds at least Stride*H bytes; sample (x, y) lives at Pix[y*Stride+x].
type Plane struct {
	W, H   int
	Stride int
	Pix    []uint8
	// apron is the replicated border margin available on every side; buf is
	// the full padded buffer Pix is windowed into (buf == nil when apron is
	// 0 and Pix is the whole allocation). The apron samples hold the
	// edge-replicated values only after ReplicateApron.
	apron int
	buf   []uint8
}

// NewPlane returns a zeroed w×h plane with a tight stride.
func NewPlane(w, h int) *Plane {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("frame: invalid plane size %dx%d", w, h))
	}
	return &Plane{W: w, H: h, Stride: w, Pix: make([]uint8, w*h)}
}

// NewPlanePadded returns a zeroed w×h plane whose storage carries an
// apron-sample replicated border on every side: Stride = w + 2*apron and
// Pix is windowed at the visible origin, so Pix[y*Stride+x] addresses the
// visible samples exactly as in a tight plane while the border memory
// stays reachable through the padded buffer. Call ReplicateApron after
// writing the visible samples to refresh the border.
func NewPlanePadded(w, h, apron int) *Plane {
	if apron <= 0 {
		return NewPlane(w, h)
	}
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("frame: invalid plane size %dx%d", w, h))
	}
	stride := w + 2*apron
	buf := make([]uint8, stride*(h+2*apron))
	return planeFromPadded(buf, w, h, apron)
}

// FromPix wraps an existing sample buffer as a plane. The buffer must hold
// at least w*h samples; it is used directly, not copied.
func FromPix(pix []uint8, w, h int) (*Plane, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("frame: invalid plane size %dx%d", w, h)
	}
	if len(pix) < w*h {
		return nil, fmt.Errorf("frame: buffer holds %d samples, need %d", len(pix), w*h)
	}
	return &Plane{W: w, H: h, Stride: w, Pix: pix}, nil
}

// planeFromPadded wraps a padded buffer (len ≥ (w+2a)*(h+2a)) as a plane
// windowed at the visible origin.
func planeFromPadded(buf []uint8, w, h, apron int) *Plane {
	stride := w + 2*apron
	return &Plane{
		W: w, H: h, Stride: stride,
		Pix:   buf[apron*stride+apron:],
		apron: apron,
		buf:   buf,
	}
}

// Apron returns the replicated border margin available on every side of
// the plane (0 for tight planes).
func (p *Plane) Apron() int { return p.apron }

// padRow returns the padded storage row for visible row y (which may be
// negative or ≥ H within the apron), indexed so that the returned slice's
// element apron+x is visible sample (x, y). Valid only for padded planes.
func (p *Plane) padRow(y int) []uint8 {
	off := (y + p.apron) * p.Stride
	return p.buf[off : off+p.Stride]
}

// ReplicateApron refreshes the apron samples by edge replication, making
// every coordinate within Apron() samples of the plane behave exactly like
// AtClamped. The encoder and decoder call it once per frame when a
// reconstruction becomes the prediction reference; until then the apron
// contents are unspecified. No-op for tight planes.
func (p *Plane) ReplicateApron() {
	a := p.apron
	if a == 0 {
		return
	}
	// Left/right margins of every visible row.
	for y := 0; y < p.H; y++ {
		row := p.padRow(y)
		l, r := row[a], row[a+p.W-1]
		for x := 0; x < a; x++ {
			row[x] = l
			row[a+p.W+x] = r
		}
	}
	// Top/bottom margins replicate the full padded edge rows.
	top := p.padRow(0)
	bottom := p.padRow(p.H - 1)
	for y := 1; y <= a; y++ {
		copy(p.padRow(-y), top)
		copy(p.padRow(p.H-1+y), bottom)
	}
}

// At returns the sample at (x, y). The coordinates must be in bounds.
func (p *Plane) At(x, y int) uint8 { return p.Pix[y*p.Stride+x] }

// Set stores v at (x, y). The coordinates must be in bounds.
func (p *Plane) Set(x, y int, v uint8) { p.Pix[y*p.Stride+x] = v }

// AtClamped returns the sample at (x, y) with edge replication: coordinates
// outside the plane are clamped to the nearest border sample. This is the
// access rule used when interpolating at frame borders.
func (p *Plane) AtClamped(x, y int) uint8 {
	if x < 0 {
		x = 0
	} else if x >= p.W {
		x = p.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= p.H {
		y = p.H - 1
	}
	return p.Pix[y*p.Stride+x]
}

// Row returns the y-th row as a slice of exactly W samples.
func (p *Plane) Row(y int) []uint8 { return p.Pix[y*p.Stride : y*p.Stride+p.W] }

// Fill sets every sample to v.
func (p *Plane) Fill(v uint8) {
	for y := 0; y < p.H; y++ {
		row := p.Row(y)
		for x := range row {
			row[x] = v
		}
	}
}

// Clone returns a deep copy with a tight stride.
func (p *Plane) Clone() *Plane {
	q := NewPlane(p.W, p.H)
	for y := 0; y < p.H; y++ {
		copy(q.Row(y), p.Row(y))
	}
	return q
}

// Equal reports whether two planes have identical dimensions and samples.
func (p *Plane) Equal(q *Plane) bool {
	if p.W != q.W || p.H != q.H {
		return false
	}
	for y := 0; y < p.H; y++ {
		pr, qr := p.Row(y), q.Row(y)
		for x := range pr {
			if pr[x] != qr[x] {
				return false
			}
		}
	}
	return true
}

// CopyBlock copies a w×h block from src at (sx, sy) into p at (dx, dy).
// Both rectangles must be fully inside their planes.
func (p *Plane) CopyBlock(dx, dy int, src *Plane, sx, sy, w, h int) {
	for y := 0; y < h; y++ {
		copy(p.Pix[(dy+y)*p.Stride+dx:(dy+y)*p.Stride+dx+w],
			src.Pix[(sy+y)*src.Stride+sx:(sy+y)*src.Stride+sx+w])
	}
}

// Shift returns a copy of p translated by (dx, dy) full pels with edge
// replication for uncovered samples. Positive dx moves content right,
// positive dy moves it down; the true motion of the content is therefore
// (dx, dy). Used by the Fig. 4 move-then-search experiment.
func (p *Plane) Shift(dx, dy int) *Plane {
	q := NewPlane(p.W, p.H)
	for y := 0; y < p.H; y++ {
		for x := 0; x < p.W; x++ {
			q.Set(x, y, p.AtClamped(x-dx, y-dy))
		}
	}
	return q
}

// InBounds reports whether the w×h block anchored at (x, y) lies fully
// inside the plane.
func (p *Plane) InBounds(x, y, w, h int) bool {
	return x >= 0 && y >= 0 && x+w <= p.W && y+h <= p.H
}

// InApron reports whether the w×h block anchored at (x, y) lies inside the
// plane widened by its apron on every side — the region PixFrom can
// address. For a tight plane that is InBounds.
func (p *Plane) InApron(x, y, w, h int) bool {
	a := p.apron
	return x >= -a && y >= -a && x+w <= p.W+a && y+h <= p.H+a
}

// PixFrom returns the plane's storage from sample (x, y) onward, rows
// Stride apart. Unlike Pix it reaches the apron: (x, y) may lie up to
// Apron() samples outside the plane (InApron), where the bytes are the
// edge-replicated samples once ReplicateApron has run.
func (p *Plane) PixFrom(x, y int) []uint8 {
	if p.apron == 0 {
		return p.Pix[y*p.Stride+x:]
	}
	return p.buf[(y+p.apron)*p.Stride+p.apron+x:]
}

// ErrSizeMismatch is returned by operations that require equally sized planes.
var ErrSizeMismatch = errors.New("frame: plane size mismatch")

// AbsDiff writes |a-b| into dst, which must match a and b in size.
func AbsDiff(dst, a, b *Plane) error {
	if a.W != b.W || a.H != b.H || dst.W != a.W || dst.H != a.H {
		return ErrSizeMismatch
	}
	for y := 0; y < a.H; y++ {
		ar, br, dr := a.Row(y), b.Row(y), dst.Row(y)
		for x := range ar {
			d := int(ar[x]) - int(br[x])
			if d < 0 {
				d = -d
			}
			dr[x] = uint8(d)
		}
	}
	return nil
}

// ClampU8 converts v to the 8-bit sample range [0, 255].
func ClampU8(v int) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}
