package video

import (
	"math"

	"repro/internal/frame"
)

// Layer is one element of a scene's stack: a shape that covers part of
// the world (coverage alpha in [0, 1]) with a colour. Layers are
// composited in order. A layer's motion is evaluated once per rendered
// frame, into a layerFrame the renderer samples row by row.
type Layer interface {
	resolve(t int) layerFrame
}

// Camera maps screen pixels to world coordinates with pan and zoom. Zoom
// greater than 1 magnifies (world window shrinks); the pan is the world
// position of the viewport centre.
type Camera struct {
	PanX, PanY func(t int) float64
	Zoom       func(t int) float64 // nil means constant 1
}

// view is a camera resolved for one frame of a given size.
type view struct {
	cx, cy, z float64
	hw, hh    float64 // half the frame's width and height
}

func (c Camera) view(size frame.Size, t int) view {
	v := view{z: 1, hw: float64(size.W) / 2, hh: float64(size.H) / 2}
	if c.Zoom != nil {
		v.z = c.Zoom(t)
	}
	if c.PanX != nil {
		v.cx = c.PanX(t)
	}
	if c.PanY != nil {
		v.cy = c.PanY(t)
	}
	return v
}

// x and y map a screen position (in pixels, pixel centres at +0.5) to
// the world.
func (v view) x(px float64) float64 { return v.cx + (px-v.hw)/v.z }
func (v view) y(py float64) float64 { return v.cy + (py-v.hh)/v.z }

// Scene is an ordered stack of layers viewed through a camera.
type Scene struct {
	Layers []Layer
	Camera Camera
	// SensorAmp adds zero-mean per-frame luma noise of ±SensorAmp to
	// every rendered pixel — camera sensor noise, which the original
	// sequences have and clean synthesis lacks. It raises the SAD floor
	// of even perfect matches, which is what keeps real-world PBM
	// matches from looking "free" to ACBM's conditions.
	SensorAmp  float64
	SensorSeed uint64
}

// WithSensorNoise returns sc with per-frame sensor noise enabled.
func WithSensorNoise(sc *Scene, amp float64, seed uint64) *Scene {
	sc.SensorAmp = amp
	sc.SensorSeed = seed ^ 0x5EED
	return sc
}

// Render rasterises frame t of the scene at the given size (4:2:0 output).
// Luma samples at pixel centres; chroma at the centres of 2×2 luma groups.
//
// The camera and every layer's motion are evaluated once per frame. Each
// sample then composites the stack as if every layer were sampled and
// blended bottom to top — a layer with alpha ≥ 1 replaces what is below
// it, a partial one blends over it — but reads texture only where it
// shows: coverage comes from geometry alone, the topmost fully covering
// layer gives the starting colour, and only the partial layers above it
// are blended. Chroma is a per-layer constant, so chroma samples read no
// texture at all. Render only reads sc, so one Scene may render frames
// on several goroutines at once.
func (sc *Scene) Render(size frame.Size, t int) *frame.Frame {
	return newRaster(sc, size).render(t)
}

// raster renders frames of one scene at one size. Its slices are sized
// once and refilled per frame, so a goroutine that renders many frames
// allocates little more than the frames. A raster belongs to one
// goroutine.
type raster struct {
	sc           *Scene
	size         frame.Size
	layers       []layerFrame
	luma, chroma grid
	tex          []noiseRow // per textured layer
	xs           []float64  // one layer's texture x of each luma column
	sensor       []uint64   // hashX of each luma column's sensor noise
	flat         []float64  // each untextured layer's luma on this row
}

func newRaster(sc *Scene, size frame.Size) *raster {
	n := len(sc.Layers)
	return &raster{
		sc:     sc,
		size:   size,
		layers: make([]layerFrame, n),
		luma:   newGrid(n, size.W),
		chroma: newGrid(n, size.W/2),
		tex:    make([]noiseRow, n),
		xs:     make([]float64, size.W),
		sensor: make([]uint64, size.W),
		flat:   make([]float64, n),
	}
}

func (r *raster) render(t int) *frame.Frame {
	sc, layers := r.sc, r.layers
	f := frame.NewFrame(r.size)
	v := sc.Camera.view(r.size, t)
	for i, l := range sc.Layers {
		layers[i] = l.resolve(t)
	}
	r.luma.place(layers, v, func(px int) float64 { return float64(px) + 0.5 })
	r.chroma.place(layers, v, func(px int) float64 { return float64(2*px) + 1 })
	for i := range layers {
		if l := &layers[i]; l.tex != nil {
			for px, x := range r.luma.x {
				r.xs[px] = x - l.tx
			}
			r.tex[i].place(l.tex, r.xs)
		}
	}
	if sc.SensorAmp > 0 {
		seed := sc.SensorSeed + uint64(t)*0x9E3779B9
		for px := range r.sensor {
			r.sensor[px] = hashX(seed, int64(px))
		}
	}
	lumaAt := func(i, px int) float64 {
		if l := &layers[i]; l.tex != nil {
			return l.base + float64((r.tex[i].sample(px)-0.5)*l.amp)
		}
		return r.flat[i]
	}

	for py := 0; py < r.size.H; py++ {
		wy := v.y(float64(py) + 0.5)
		r.luma.cover(layers, wy)
		for i := range layers {
			if l := &layers[i]; l.tex != nil {
				r.tex[i].row(wy - l.ty)
			} else {
				r.flat[i] = l.grad.luma(wy)
			}
		}
		row := f.Y.Row(py)
		for px := range row {
			top := r.luma.top(px)
			y := 128.0
			if top >= 0 {
				y = lumaAt(top, px)
			}
			for i := top + 1; i < len(layers); i++ {
				if a := r.luma.cov[i][px]; a > 0 {
					y = float64(y*(1-a)) + float64(lumaAt(i, px)*a)
				}
			}
			if sc.SensorAmp > 0 {
				y += float64((hashY(r.sensor[px], int64(py)) - 0.5) * 2 * sc.SensorAmp)
			}
			row[px] = frame.ClampU8(int(math.Round(y)))
		}
	}

	for py := 0; py < r.size.H/2; py++ {
		r.chroma.cover(layers, v.y(float64(2*py)+1))
		cbRow := f.Cb.Row(py)
		crRow := f.Cr.Row(py)
		for px := range cbRow {
			top := r.chroma.top(px)
			cb, cr := 0.0, 0.0
			if top >= 0 {
				cb, cr = layers[top].cb, layers[top].cr
			}
			for i := top + 1; i < len(layers); i++ {
				if a := r.chroma.cov[i][px]; a > 0 {
					l := &layers[i]
					cb = float64(cb*(1-a)) + float64(l.cb*a)
					cr = float64(cr*(1-a)) + float64(l.cr*a)
				}
			}
			cbRow[px] = frame.ClampU8(int(math.Round(128 + cb)))
			crRow[px] = frame.ClampU8(int(math.Round(128 + cr)))
		}
	}
	return f
}

// grid is one sampling lattice of a frame (luma, or chroma at half the
// resolution): the world x of each column, each layer's column term (see
// layerFrame.colTerm), and the coverage of every layer on the current row.
type grid struct {
	x    []float64
	term [][]float64 // per layer: its column term at each column
	span [][2]int    // per layer: the columns whose term is < 1
	cov  [][]float64 // per layer: coverage of each column on this row
}

func newGrid(n, w int) grid {
	g := grid{x: make([]float64, w), term: make([][]float64, n),
		span: make([][2]int, n), cov: make([][]float64, n)}
	for i := range n {
		g.term[i] = make([]float64, w)
		g.cov[i] = make([]float64, w)
	}
	return g
}

// place positions the grid's columns for one frame: column px sits at
// screen x pos(px).
func (g *grid) place(layers []layerFrame, v view, pos func(px int) float64) {
	for px := range g.x {
		g.x[px] = v.x(pos(px))
	}
	for i := range layers {
		l := &layers[i]
		if l.shape == shapeAll {
			for px := range g.cov[i] {
				g.cov[i][px] = l.alpha
			}
			continue
		}
		lo, hi := len(g.x), 0
		for px, x := range g.x {
			if g.term[i][px] = l.colTerm(x); g.term[i][px] < 1 {
				lo, hi = min(lo, px), px+1
			}
		}
		g.span[i] = [2]int{lo, max(lo, hi)}
	}
}

// cover fills cov for the row at world y.
func (g *grid) cover(layers []layerFrame, y float64) {
	for i := range layers {
		l := &layers[i]
		if l.shape == shapeAll {
			continue
		}
		cov, term := g.cov[i], g.term[i]
		clear(cov)
		row := l.rowTerm(y)
		if row >= 1 {
			continue
		}
		for px := g.span[i][0]; px < g.span[i][1]; px++ {
			cov[px] = l.coverage(term[px], row)
		}
	}
}

// top returns the topmost layer that fully covers column px on the
// current row, or -1 if none does.
func (g *grid) top(px int) int {
	for i := len(g.cov) - 1; i >= 0; i-- {
		if g.cov[i][px] >= 1 {
			return i
		}
	}
	return -1
}

// shape is a layerFrame's coverage geometry.
type shape uint8

const (
	shapeAll     shape = iota // alpha everywhere (Background, Gradient)
	shapeBox                  // 1 inside [x0, x1] × [y0, y1] (Window)
	shapeEllipse              // a soft-edged ellipse (Sprite)
	shapeRect                 // a soft-edged rectangle (Sprite with Rect)
)

// layerFrame is a layer resolved for one frame: its geometry, how its
// texture maps, and its colour.
type layerFrame struct {
	shape          shape
	alpha          float64 // shapeAll's coverage
	cx, cy, rx, ry float64 // shapeEllipse/shapeRect: centre and radii
	x0, y0, x1, y1 float64 // shapeBox: the covered rectangle
	tex            *Noise  // nil: flat luma from grad
	grad           *Gradient
	tx, ty         float64 // texture origin: world (x, y) reads tex at (x−tx, y−ty)
	base, amp      float64 // luma = base + (tex - 0.5) × amp
	cb, cr         float64
}

// colTerm, rowTerm and coverage split a shaped layer's coverage test
// into a part per column and a part per row. Coverage is 0 wherever
// either term is ≥ 1, so a row or column whose term is ≥ 1 is skipped
// whole. A box's terms are 0 inside its edges and 1 outside. A sprite's
// are the two parts of its normalised distance, which is at least either
// of them: a rectangle's distance is the larger term, an ellipse's the
// root of their sum (both terms ≥ 0), and edgeAlpha is 0 from 1 out.
func (l *layerFrame) colTerm(x float64) float64 { return l.term(x, l.cx, l.rx, l.x0, l.x1) }
func (l *layerFrame) rowTerm(y float64) float64 { return l.term(y, l.cy, l.ry, l.y0, l.y1) }

func (l *layerFrame) term(v, c, r, lo, hi float64) float64 {
	switch l.shape {
	case shapeBox:
		if v >= lo && v <= hi {
			return 0
		}
		return 1
	case shapeRect:
		return math.Abs(v-c) / r
	}
	d := v - c
	return d * d / (r * r)
}

func (l *layerFrame) coverage(col, row float64) float64 {
	switch l.shape {
	case shapeBox:
		return 1 - max(col, row)
	case shapeRect:
		return edgeAlpha(math.Max(col, row))
	}
	return edgeAlpha(math.Sqrt(col + row))
}

// edgeAlpha is a sprite's coverage at normalised distance dist (< 1
// inside): full inside 1−edge, none from 1 out, linear between. The ~1
// pixel soft edge makes subpixel motion read as smooth intensity change
// rather than jumping coverage.
func edgeAlpha(dist float64) float64 {
	const edge = 0.04
	switch {
	case dist <= 1-edge:
		return 1
	case dist >= 1:
		return 0
	}
	return (1 - dist) / edge
}

// Background is an infinite textured plane (always alpha 1).
type Background struct {
	Tex  Noise
	Base float64 // mean luma
	Amp  float64 // texture amplitude (peak-to-peak luma swing)
	Cb   float64 // chroma offsets from neutral
	Cr   float64
}

func (b *Background) resolve(int) layerFrame {
	return layerFrame{shape: shapeAll, alpha: 1, tex: &b.Tex, base: b.Base, amp: b.Amp, cb: b.Cb, cr: b.Cr}
}

// Gradient adds a smooth vertical luma ramp, giving low-texture scenes
// (Miss America) DC variation between blocks without adding detail.
type Gradient struct {
	Top, Bottom float64 // luma at the top/bottom of the world window
	SpanY       float64 // world-space vertical span of the ramp
	Strength    float64 // blend factor in (0, 1]
}

func (g *Gradient) resolve(int) layerFrame {
	return layerFrame{shape: shapeAll, alpha: g.Strength, grad: g}
}

// luma is the ramp's luma at world y.
func (g *Gradient) luma(y float64) float64 {
	ty := y/g.SpanY + 0.5
	if ty < 0 {
		ty = 0
	}
	if ty > 1 {
		ty = 1
	}
	return g.Top + float64((g.Bottom-g.Top)*ty)
}

// Sprite is a textured ellipse or rectangle moving along a path in world
// coordinates, with edges softened over ~1 pixel (edgeAlpha).
type Sprite struct {
	CX, CY func(t int) float64 // centre path
	RX, RY float64             // radii (half-width/height for Rect)
	Rect   bool
	Tex    Noise
	Base   float64
	Amp    float64
	Cb, Cr float64
	// TexLocked pins the texture to the sprite so it moves with it
	// (true for heads, balls); false pins texture to the world (windows).
	TexLocked bool
}

func (s *Sprite) resolve(t int) layerFrame {
	l := layerFrame{shape: shapeEllipse, cx: s.CX(t), cy: s.CY(t), rx: s.RX, ry: s.RY,
		tex: &s.Tex, base: s.Base, amp: s.Amp, cb: s.Cb, cr: s.Cr}
	if s.Rect {
		l.shape = shapeRect
	}
	if s.TexLocked {
		l.tx, l.ty = l.cx, l.cy
	}
	return l
}

// Window is a rectangular cut-out (screen region in world coordinates)
// showing a separately panning texture — the car window of Carphone, where
// background scenery streams past faster than the cabin.
type Window struct {
	X0, Y0, X1, Y1 float64 // world-space rectangle
	Tex            Noise
	Base, Amp      float64
	Cb, Cr         float64
	ScrollX        func(t int) float64 // texture offset per frame
	ScrollY        func(t int) float64
}

func (w *Window) resolve(t int) layerFrame {
	sx, sy := 0.0, 0.0
	if w.ScrollX != nil {
		sx = w.ScrollX(t)
	}
	if w.ScrollY != nil {
		sy = w.ScrollY(t)
	}
	// x − (−sx) is x + sx exactly: IEEE subtraction adds the negation.
	return layerFrame{shape: shapeBox, x0: w.X0, y0: w.Y0, x1: w.X1, y1: w.Y1,
		tex: &w.Tex, tx: -sx, ty: -sy, base: w.Base, amp: w.Amp, cb: w.Cb, cr: w.Cr}
}
