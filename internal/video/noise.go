package video

import "math"

// Noise is seeded value noise: a random lattice interpolated with a
// smoothstep kernel, summed over octaves (fractional Brownian motion).
// It is continuous in (x, y), so camera pans and sprite motion produce
// genuine subpixel translation — exactly what half-pel motion estimation
// needs to be exercised meaningfully.
//
// Every product that feeds a sum is rounded explicitly (float64(a*b)), so
// no GOARCH fuses it into a multiply-add and the values are the same on
// every ISA.
type Noise struct {
	Seed    uint64
	Scale   float64 // lattice spacing in pixels of the base octave
	Octaves int     // number of octaves (≥1); each halves the scale
}

// smoothstep interpolation weight.
func smooth(t float64) float64 { return t * t * (3 - 2*t) }

// octaves is the number of octaves At sums.
func (n *Noise) octaves() int { return max(n.Octaves, 1) }

// lattice returns octave oct's lattice spacing and hash seed.
func (n *Noise) lattice(oct int) (s float64, seed uint64) {
	s = n.Scale / float64(int64(1)<<uint(oct))
	if s < 1 {
		s = 1
	}
	return s, n.Seed + uint64(oct)*0x1000193
}

// cell splits coordinate v into its lattice cell at spacing s and the
// smoothstep weight of its position inside that cell.
func cell(v, s float64) (int64, float64) {
	f := v / s
	i := math.Floor(f)
	return int64(i), smooth(f - i)
}

// bilerp interpolates a cell's corner values, along x first.
func bilerp(v00, v10, v01, v11, tx, ty float64) float64 {
	a := v00 + float64((v10-v00)*tx)
	b := v01 + float64((v11-v01)*tx)
	return a + float64((b-a)*ty)
}

// octave samples one noise octave.
func (n *Noise) octave(x, y float64, oct int) float64 {
	s, seed := n.lattice(oct)
	x0, tx := cell(x, s)
	y0, ty := cell(y, s)
	h0, h1 := hashX(seed, x0), hashX(seed, x0+1)
	return bilerp(hashY(h0, y0), hashY(h1, y0), hashY(h0, y0+1), hashY(h1, y0+1), tx, ty)
}

// At returns the fBm value at (x, y) in [0, 1). Octave amplitudes halve,
// normalised so the expected range stays in [0, 1).
func (n *Noise) At(x, y float64) float64 {
	sum, amp, norm := 0.0, 1.0, 0.0
	for o := 0; o < n.octaves(); o++ {
		sum += float64(amp * n.octave(x, y, o))
		norm += amp
		amp *= 0.5
	}
	return sum / norm
}

// noiseRow samples a Noise along one raster row, with At's values. The
// lattice cell and weight of every column are computed once per frame,
// the lattice row once per raster row, and each octave keeps the four
// corner values of the cell it last sampled, shifting them when the cell
// advances by one. The hash is pure, so the reuse is exact.
type noiseRow struct {
	octs []octaveRow
	norm float64
}

// octaveRow is one octave of a noiseRow.
type octaveRow struct {
	seed   uint64
	s, amp float64
	x0     []int64   // lattice column of each raster column
	tx     []float64 // its smoothstep weight
	y0     int64     // lattice row of the current raster row
	ty     float64
	// at is the lattice column the corners hold; valid is false until the
	// row's first sample.
	at                 int64
	valid              bool
	v00, v10, v01, v11 float64
}

// place prepares r to sample n at the texture x coordinates xs, one per
// raster column, reusing r's slices when they fit.
func (r *noiseRow) place(n *Noise, xs []float64) {
	if len(r.octs) != n.octaves() {
		r.octs = make([]octaveRow, n.octaves())
	}
	r.norm = 0
	amp := 1.0
	for o := range r.octs {
		c := &r.octs[o]
		c.s, c.seed = n.lattice(o)
		c.amp = amp
		if len(c.x0) != len(xs) {
			c.x0, c.tx = make([]int64, len(xs)), make([]float64, len(xs))
		}
		for i, x := range xs {
			c.x0[i], c.tx[i] = cell(x, c.s)
		}
		r.norm += amp
		amp *= 0.5
	}
}

// row moves the sampler to texture y coordinate y.
func (r *noiseRow) row(y float64) {
	for o := range r.octs {
		c := &r.octs[o]
		c.y0, c.ty = cell(y, c.s)
		c.valid = false
	}
}

// sample returns At(xs[col], y) for the row set by row.
func (r *noiseRow) sample(col int) float64 {
	sum := 0.0
	for o := range r.octs {
		c := &r.octs[o]
		x0 := c.x0[col]
		switch {
		case c.valid && x0 == c.at:
		case c.valid && x0 == c.at+1:
			h := hashX(c.seed, x0+1)
			c.v00, c.v01 = c.v10, c.v11
			c.v10, c.v11 = hashY(h, c.y0), hashY(h, c.y0+1)
		default:
			h0, h1 := hashX(c.seed, x0), hashX(c.seed, x0+1)
			c.v00, c.v10 = hashY(h0, c.y0), hashY(h1, c.y0)
			c.v01, c.v11 = hashY(h0, c.y0+1), hashY(h1, c.y0+1)
		}
		c.at, c.valid = x0, true
		sum += float64(c.amp * bilerp(c.v00, c.v10, c.v01, c.v11, c.tx[col], c.ty))
	}
	return sum / r.norm
}
