// Package metrics implements the block-matching distortion measures of the
// paper: the sum of absolute differences (SAD), the texture measure
// Intra_SAD (Σ|p−µ| over a block), the SAD_deviation statistic of the
// Fig. 4 study, and the Lagrangian cost J = D + λ·R used to compare motion
// estimators.
//
// The kernels the encoder runs (IntraSAD, the half-pel ring, the
// best-of-candidates scans, SSE and the transform path) dispatch through a
// per-ISA kernel table (dispatch.go): architecture-specific assembly where
// available (PSADBW/VPSADBW on amd64), word-parallel SWAR kernels (8 pixels
// per uint64 load) as the portable vector tier, and the scalar loops as the
// reference implementations the differential tests in swar_test.go and
// dispatch_test.go compare every tier against. Single-probe SAD — SAD,
// SADCapped, SADHalfPelPlane and SADHalfPelPlaneCapped — is not in the
// table: no encode or decode path calls it, so it runs the SWAR kernels on
// every host, whatever tier is active. Blocks whose width is not a multiple
// of 8 run the vector kernels over the widest multiple-of-8 body and finish
// the trailing columns scalar.
package metrics

import (
	"math"

	"repro/internal/frame"
)

// swarRowGroup returns how many rows of width w can accumulate in the
// 16-bit SWAR lanes before a fold is required (worst case 255 per sample).
func swarRowGroup(w int) int {
	g := 256 / w
	if g < 1 {
		g = 1
	}
	return g
}

// SAD returns the sum of absolute differences between the w×h block of cur
// anchored at (cx, cy) and the block of ref anchored at (rx, ry). Both
// blocks must lie inside their planes.
func SAD(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int) int {
	if w > 256 {
		// Beyond 256 samples a single row overflows the 16-bit lane fold.
		return sadScalar(cur, cx, cy, ref, rx, ry, w, h)
	}
	if wv := w &^ 7; wv != w {
		if wv == 0 {
			return sadScalar(cur, cx, cy, ref, rx, ry, w, h)
		}
		// Vector body over the widest multiple-of-8 prefix, scalar over
		// the trailing columns (chroma edge blocks: 4/12/20 wide). The
		// sum is exact either way, so the split cannot change values.
		return sadSWAR(cur, cx, cy, ref, rx, ry, wv, h) +
			sadScalar(cur, cx+wv, cy, ref, rx+wv, ry, w-wv, h)
	}
	return sadSWAR(cur, cx, cy, ref, rx, ry, w, h)
}

// sadSWAR is SAD's vector kernel on every host: w%8 == 0, w ≤ 256.
func sadSWAR(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int) int {
	sum := 0
	group := swarRowGroup(w)
	for y0 := 0; y0 < h; y0 += group {
		y1 := y0 + group
		if y1 > h {
			y1 = h
		}
		var acc uint64
		for y := y0; y < y1; y++ {
			co := (cy+y)*cur.Stride + cx
			ro := (ry+y)*ref.Stride + rx
			c := cur.Pix[co : co+w]
			r := ref.Pix[ro : ro+w]
			for x := 0; x+8 <= w; x += 8 {
				a := load8(c[x:])
				b := load8(r[x:])
				acc += absDiffLanes(a&laneLo, b&laneLo) +
					absDiffLanes((a>>8)&laneLo, (b>>8)&laneLo)
			}
		}
		sum += foldLanes(acc)
	}
	return sum
}

// sadScalar is the scalar reference for SAD.
func sadScalar(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int) int {
	sum := 0
	for y := 0; y < h; y++ {
		c := cur.Pix[(cy+y)*cur.Stride+cx : (cy+y)*cur.Stride+cx+w]
		r := ref.Pix[(ry+y)*ref.Stride+rx : (ry+y)*ref.Stride+rx+w]
		for x, cv := range c {
			d := int(cv) - int(r[x])
			if d < 0 {
				d = -d
			}
			sum += d
		}
	}
	return sum
}

// SADCapped is SAD with early termination: it returns a value > cap (not
// necessarily the exact SAD) as soon as the running sum exceeds cap after
// any row. Using it never changes which candidate wins a minimisation,
// only how much work losing candidates cost. The early-termination value
// itself is pinned: it is the exact cumulative sum at the row the cap was
// crossed, equal to sadCappedScalar's.
func SADCapped(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h, cap int) int {
	if w%8 == 0 && w*h <= 256 {
		return sadCappedSWAR(cur, cx, cy, ref, rx, ry, w, h, cap)
	}
	wv := w &^ 7
	if wv == 0 || w > 256 || wv*h > 256 {
		return sadCappedScalar(cur, cx, cy, ref, rx, ry, w, h, cap)
	}
	// Mixed width: vector body plus scalar trailing columns, row by row,
	// folding the cumulative sum at every full row — the same early-exit
	// points and values as the scalar reference.
	sum := 0
	for y := 0; y < h; y++ {
		sum += sadSWAR(cur, cx, cy+y, ref, rx, ry+y, wv, 1)
		c := cur.Pix[(cy+y)*cur.Stride+cx+wv : (cy+y)*cur.Stride+cx+w]
		r := ref.Pix[(ry+y)*ref.Stride+rx+wv : (ry+y)*ref.Stride+rx+w]
		for x, cv := range c {
			d := int(cv) - int(r[x])
			if d < 0 {
				d = -d
			}
			sum += d
		}
		if sum > cap {
			return sum
		}
	}
	return sum
}

// sadCappedSWAR is SADCapped's vector kernel on every host, and through
// sadBestBy the SWAR tier's sadBest: w%8 == 0, w·h ≤ 256. The dominant
// 16-wide macroblock shape takes the unrolled path.
func sadCappedSWAR(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h, cap int) int {
	if w == 16 {
		return sadCapped16(cur, cx, cy, ref, rx, ry, h, cap)
	}
	// The whole block fits one lane accumulator, so the running sum is one
	// fold away at every row — same early-exit points as the scalar code.
	var acc uint64
	sum := 0
	for y := 0; y < h; y++ {
		co := (cy+y)*cur.Stride + cx
		ro := (ry+y)*ref.Stride + rx
		c := cur.Pix[co : co+w]
		r := ref.Pix[ro : ro+w]
		for x := 0; x+8 <= w; x += 8 {
			a := load8(c[x:])
			b := load8(r[x:])
			acc += absDiffLanes(a&laneLo, b&laneLo) +
				absDiffLanes((a>>8)&laneLo, (b>>8)&laneLo)
		}
		sum = foldLanes(acc)
		if sum > cap {
			return sum
		}
	}
	return sum
}

// sadCapped16 is SADCapped for the dominant 16-wide macroblock case: the
// row is fully unrolled with hoisted offsets, so the motion-search inner
// loop spends its cycles in the lane arithmetic rather than slice and
// loop bookkeeping. Early-exit points and return values are identical to
// the generic path (fold + cap check after every row).
func sadCapped16(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, h, cap int) int {
	cp, rp := cur.Pix, ref.Pix
	co := cy*cur.Stride + cx
	ro := ry*ref.Stride + rx
	var acc uint64
	sum := 0
	for y := 0; y < h; y++ {
		c := cp[co : co+16]
		r := rp[ro : ro+16]
		a, b := load8(c), load8(r)
		acc += absDiffLanes(a&laneLo, b&laneLo) +
			absDiffLanes((a>>8)&laneLo, (b>>8)&laneLo)
		a, b = load8(c[8:]), load8(r[8:])
		acc += absDiffLanes(a&laneLo, b&laneLo) +
			absDiffLanes((a>>8)&laneLo, (b>>8)&laneLo)
		sum = foldLanes(acc)
		if sum > cap {
			return sum
		}
		co += cur.Stride
		ro += ref.Stride
	}
	return sum
}

// sadCappedScalar is the scalar reference for SADCapped.
func sadCappedScalar(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h, cap int) int {
	sum := 0
	for y := 0; y < h; y++ {
		c := cur.Pix[(cy+y)*cur.Stride+cx : (cy+y)*cur.Stride+cx+w]
		r := ref.Pix[(ry+y)*ref.Stride+rx : (ry+y)*ref.Stride+rx+w]
		for x, cv := range c {
			d := int(cv) - int(r[x])
			if d < 0 {
				d = -d
			}
			sum += d
		}
		if sum > cap {
			return sum
		}
	}
	return sum
}

// SADHalfPelPlane evaluates a half-pel candidate directly against the
// integer reference plane, fusing the H.263 bilinear interpolation
// (rounding up) into the difference kernel: no half-pel sample is ever
// materialised. (hx, hy) is the block's half-pel anchor; positions beyond
// the plane replicate the edge (scalar path — legal candidates never need
// it). Integer phases run SAD. Half-pel phases run SADHalfPelPlaneCapped
// with cap = math.MaxInt, which returns the exact sum: the searchers probe
// half-pel positions through the ring or with a cap, so one capped probe
// family serves both.
func SADHalfPelPlane(cur *frame.Plane, cx, cy int, ref *frame.Plane, hx, hy, w, h int) int {
	x0, y0 := hx>>1, hy>>1
	if hx&1 == 0 && hy&1 == 0 && x0 >= 0 && y0 >= 0 && x0+w <= ref.W && y0+h <= ref.H {
		return SAD(cur, cx, cy, ref, x0, y0, w, h)
	}
	return SADHalfPelPlaneCapped(cur, cx, cy, ref, hx, hy, w, h, math.MaxInt)
}

// SADHalfPelPlaneCapped is SADHalfPelPlane with SADCapped's early
// termination: it returns a value > cap (not necessarily the exact SAD)
// as soon as the running sum exceeds cap after any row. As with
// SADCapped, using it never changes which candidate wins a minimisation:
// truncated values already exceed the incumbent, and a candidate that
// exactly ties the cap is returned exactly (row sums are monotone, so no
// prefix exceeds the total).
func SADHalfPelPlaneCapped(cur *frame.Plane, cx, cy int, ref *frame.Plane, hx, hy, w, h, cap int) int {
	px, py := hx&1, hy&1
	x0, y0 := hx>>1, hy>>1
	if x0 >= 0 && y0 >= 0 && x0+w+px <= ref.W && y0+h+py <= ref.H {
		if px == 0 && py == 0 {
			return SADCapped(cur, cx, cy, ref, x0, y0, w, h, cap)
		}
		// The whole block fits one lane accumulator (w·h ≤ 256), so the
		// running sum is one fold away at every row — the same early-exit
		// points as the scalar reference.
		if w%8 == 0 && w*h <= 256 {
			switch {
			case py == 0:
				return sadHalfPelHCapped(cur, cx, cy, ref, x0, y0, w, h, cap)
			case px == 0:
				return sadHalfPelVCapped(cur, cx, cy, ref, x0, y0, w, h, cap)
			default:
				return sadHalfPelDCapped(cur, cx, cy, ref, x0, y0, w, h, cap)
			}
		}
	}
	return sadHalfPelPlaneCappedScalar(cur, cx, cy, ref, hx, hy, w, h, cap)
}

func sadHalfPelHCapped(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h, cap int) int {
	var acc uint64
	sum := 0
	for y := 0; y < h; y++ {
		co := (cy+y)*cur.Stride + cx
		ro := (ry+y)*ref.Stride + rx
		c := cur.Pix[co : co+w]
		r := ref.Pix[ro : ro+w+1]
		for x := 0; x+8 <= w; x += 8 {
			cc := load8(c[x:])
			a := load8(r[x:])
			b := load8(r[x+1:])
			acc += absDiffLanes(cc&laneLo, avgLanes(a&laneLo, b&laneLo)) +
				absDiffLanes((cc>>8)&laneLo, avgLanes((a>>8)&laneLo, (b>>8)&laneLo))
		}
		sum = foldLanes(acc)
		if sum > cap {
			return sum
		}
	}
	return sum
}

func sadHalfPelVCapped(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h, cap int) int {
	var acc uint64
	sum := 0
	for y := 0; y < h; y++ {
		co := (cy+y)*cur.Stride + cx
		ro := (ry+y)*ref.Stride + rx
		c := cur.Pix[co : co+w]
		r0 := ref.Pix[ro : ro+w]
		r1 := ref.Pix[ro+ref.Stride : ro+ref.Stride+w]
		for x := 0; x+8 <= w; x += 8 {
			cc := load8(c[x:])
			a := load8(r0[x:])
			b := load8(r1[x:])
			acc += absDiffLanes(cc&laneLo, avgLanes(a&laneLo, b&laneLo)) +
				absDiffLanes((cc>>8)&laneLo, avgLanes((a>>8)&laneLo, (b>>8)&laneLo))
		}
		sum = foldLanes(acc)
		if sum > cap {
			return sum
		}
	}
	return sum
}

func sadHalfPelDCapped(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h, cap int) int {
	var acc uint64
	sum := 0
	for y := 0; y < h; y++ {
		co := (cy+y)*cur.Stride + cx
		ro := (ry+y)*ref.Stride + rx
		c := cur.Pix[co : co+w]
		r0 := ref.Pix[ro : ro+w+1]
		r1 := ref.Pix[ro+ref.Stride : ro+ref.Stride+w+1]
		for x := 0; x+8 <= w; x += 8 {
			cc := load8(c[x:])
			a := load8(r0[x:])
			b := load8(r0[x+1:])
			cv := load8(r1[x:])
			dv := load8(r1[x+1:])
			acc += absDiffLanes(cc&laneLo, quadLanes(a&laneLo, b&laneLo, cv&laneLo, dv&laneLo)) +
				absDiffLanes((cc>>8)&laneLo,
					quadLanes((a>>8)&laneLo, (b>>8)&laneLo, (cv>>8)&laneLo, (dv>>8)&laneLo))
		}
		sum = foldLanes(acc)
		if sum > cap {
			return sum
		}
	}
	return sum
}

// sadHalfPelPlaneCappedScalar is the scalar reference for
// SADHalfPelPlaneCapped (same per-row early-exit points).
func sadHalfPelPlaneCappedScalar(cur *frame.Plane, cx, cy int, ref *frame.Plane, hx, hy, w, h, cap int) int {
	sum := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			d := int(cur.At(cx+x, cy+y)) - int(halfPelAtPlane(ref, hx+2*x, hy+2*y))
			if d < 0 {
				d = -d
			}
			sum += d
		}
		if sum > cap {
			return sum
		}
	}
	return sum
}

// SADHalfPelRing computes the SADs of all 8 half-pel neighbours of the
// full-pel position (rx, ry) in one pass over the block — the half-pel
// refinement ring every integer-precision searcher evaluates. The probes
// share nearly all their input: per 8-pixel group the kernel loads the
// current block once and three reference rows at three offsets, derives
// the two horizontal, two vertical and four diagonal interpolations from
// those lanes, and accumulates eight SADs simultaneously, instead of
// rereading everything per probe. Results land in out indexed
// (dy+1)*3+(dx+1) with the centre slot left untouched — the scan order of
// the refinement loop. Values are bit-identical to SADHalfPelPlane at the
// corresponding positions.
//
// Preconditions: w%8 == 0, w*h ≤ 256, and the ring's window — rows ry−1
// to ry+h, columns rx−1 to rx+w — inside ref's apron,
// ref.InApron(rx-1, ry-1, w+2, h+2); the vector tiers read it through
// PixFrom and nothing beside it. On a tight plane that is the whole ring
// in-plane (all eight probes legal). On a padded plane an edge block's
// ring may reach the apron: the slots whose probes leave the plane then
// read the edge-replicated samples and, once ReplicateApron has run, still
// equal SADHalfPelPlane at their positions; a searcher keeps only the
// legal ones.
func SADHalfPelRing(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int, out *[9]int) {
	// The table kernels return by value: passing out through the
	// indirect call would make the caller's stack array escape to the
	// heap on every refinement. Preserve the caller's centre slot.
	centre := out[4]
	*out = kernels().ring(cur, cx, cy, ref, rx, ry, w, h)
	out[4] = centre
}

// sadHalfPelRingSWAR is the SWAR tier of SADHalfPelRing.
func sadHalfPelRingSWAR(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int) (out [9]int) {
	var aTL, aT, aTR, aL, aR, aBL, aB, aBR uint64
	top := ref.PixFrom(rx-1, ry-1)
	for y := 0; y < h; y++ {
		co := (cy+y)*cur.Stride + cx
		ro := y * ref.Stride
		c := cur.Pix[co : co+w]
		rm := top[ro : ro+w+2]
		r0 := top[ro+ref.Stride : ro+ref.Stride+w+2]
		rp := top[ro+2*ref.Stride : ro+2*ref.Stride+w+2]
		for x := 0; x+8 <= w; x += 8 {
			cc := load8(c[x:])
			cL, cH := cc&laneLo, (cc>>8)&laneLo
			rmL, rm0, rmR := load8(rm[x:]), load8(rm[x+1:]), load8(rm[x+2:])
			r0L, r00, r0R := load8(r0[x:]), load8(r0[x+1:]), load8(r0[x+2:])
			rpL, rp0, rpR := load8(rp[x:]), load8(rp[x+1:]), load8(rp[x+2:])

			rmLl, rmLh := rmL&laneLo, (rmL>>8)&laneLo
			rm0l, rm0h := rm0&laneLo, (rm0>>8)&laneLo
			rmRl, rmRh := rmR&laneLo, (rmR>>8)&laneLo
			r0Ll, r0Lh := r0L&laneLo, (r0L>>8)&laneLo
			r00l, r00h := r00&laneLo, (r00>>8)&laneLo
			r0Rl, r0Rh := r0R&laneLo, (r0R>>8)&laneLo
			rpLl, rpLh := rpL&laneLo, (rpL>>8)&laneLo
			rp0l, rp0h := rp0&laneLo, (rp0>>8)&laneLo
			rpRl, rpRh := rpR&laneLo, (rpR>>8)&laneLo

			aL += absDiffLanes(cL, avgLanes(r0Ll, r00l)) + absDiffLanes(cH, avgLanes(r0Lh, r00h))
			aR += absDiffLanes(cL, avgLanes(r00l, r0Rl)) + absDiffLanes(cH, avgLanes(r00h, r0Rh))
			aT += absDiffLanes(cL, avgLanes(rm0l, r00l)) + absDiffLanes(cH, avgLanes(rm0h, r00h))
			aB += absDiffLanes(cL, avgLanes(r00l, rp0l)) + absDiffLanes(cH, avgLanes(r00h, rp0h))
			aTL += absDiffLanes(cL, quadLanes(rmLl, rm0l, r0Ll, r00l)) +
				absDiffLanes(cH, quadLanes(rmLh, rm0h, r0Lh, r00h))
			aTR += absDiffLanes(cL, quadLanes(rm0l, rmRl, r00l, r0Rl)) +
				absDiffLanes(cH, quadLanes(rm0h, rmRh, r00h, r0Rh))
			aBL += absDiffLanes(cL, quadLanes(r0Ll, r00l, rpLl, rp0l)) +
				absDiffLanes(cH, quadLanes(r0Lh, r00h, rpLh, rp0h))
			aBR += absDiffLanes(cL, quadLanes(r00l, r0Rl, rp0l, rpRl)) +
				absDiffLanes(cH, quadLanes(r00h, r0Rh, rp0h, rpRh))
		}
	}
	out[0], out[1], out[2] = foldLanes(aTL), foldLanes(aT), foldLanes(aTR)
	out[3], out[5] = foldLanes(aL), foldLanes(aR)
	out[6], out[7], out[8] = foldLanes(aBL), foldLanes(aB), foldLanes(aBR)
	return out
}

// halfPelAtPlane computes one half-pel grid sample directly from the
// integer plane with edge replication — the scalar reference for the
// fused kernels: H.263 rounding, (a+b+1)>>1 and (a+b+c+d+2)>>2.
func halfPelAtPlane(ref *frame.Plane, hx, hy int) uint8 {
	if hx < 0 {
		hx = 0
	} else if hx > 2*ref.W-1 {
		hx = 2*ref.W - 1
	}
	if hy < 0 {
		hy = 0
	} else if hy > 2*ref.H-1 {
		hy = 2*ref.H - 1
	}
	x, y := hx>>1, hy>>1
	a := int(ref.At(x, y))
	b := int(ref.AtClamped(x+1, y))
	c := int(ref.AtClamped(x, y+1))
	d := int(ref.AtClamped(x+1, y+1))
	switch {
	case hx&1 == 0 && hy&1 == 0:
		return uint8(a)
	case hy&1 == 0:
		return uint8((a + b + 1) >> 1)
	case hx&1 == 0:
		return uint8((a + c + 1) >> 1)
	}
	return uint8((a + b + c + d + 2) >> 2)
}

// sadHalfPelPlaneScalar is the scalar reference for SADHalfPelPlane.
func sadHalfPelPlaneScalar(cur *frame.Plane, cx, cy int, ref *frame.Plane, hx, hy, w, h int) int {
	sum := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			d := int(cur.At(cx+x, cy+y)) - int(halfPelAtPlane(ref, hx+2*x, hy+2*y))
			if d < 0 {
				d = -d
			}
			sum += d
		}
	}
	return sum
}

// Mean returns the average sample value of the w×h block of p anchored at
// (x, y), rounded to nearest — IntraSAD's µ. The encoder never asks for it
// on its own (every IntraSAD tier derives µ inside the call), so it is the
// scalar sum: the definition the tiers are tested against.
func Mean(p *frame.Plane, x, y, w, h int) int {
	return meanOf(planeSumScalar(p, x, y, w, h), w, h)
}

// meanOf is Mean's rounding of a w×h block's sample sum — the one statement
// of it, which every IntraSAD tier that derives µ itself goes through (the
// AVX2 16×16 kernel hard-codes its 256-sample case: (sum+128)>>8).
func meanOf(sum, w, h int) int { return (sum + w*h/2) / (w * h) }

// planeSumScalar is the scalar reference for the block sample sum.
func planeSumScalar(p *frame.Plane, x, y, w, h int) int {
	sum := 0
	for yy := 0; yy < h; yy++ {
		row := p.Pix[(y+yy)*p.Stride+x : (y+yy)*p.Stride+x+w]
		for _, v := range row {
			sum += int(v)
		}
	}
	return sum
}

// planeSumSWAR is the SWAR tier of the block sample sum: w%8 == 0, w ≤ 256.
func planeSumSWAR(p *frame.Plane, x, y, w, h int) int {
	sum := 0
	group := swarRowGroup(w)
	for y0 := 0; y0 < h; y0 += group {
		y1 := y0 + group
		if y1 > h {
			y1 = h
		}
		var acc uint64
		for yy := y0; yy < y1; yy++ {
			o := (y+yy)*p.Stride + x
			c := p.Pix[o : o+w]
			for xx := 0; xx+8 <= w; xx += 8 {
				a := load8(c[xx:])
				acc += a&laneLo + (a>>8)&laneLo
			}
		}
		sum += foldLanes(acc)
	}
	return sum
}

// IntraSAD returns Σ|p−µ| over the w×h block of p anchored at (x, y),
// where µ is the block mean — the texture measure introduced in §3.1 of
// the paper. High values indicate highly textured blocks. µ is Mean's: the
// table tiers derive it themselves, so the 16×16 macroblock — the only
// shape the encoder asks for — is read once on the AVX2 tier.
func IntraSAD(p *frame.Plane, x, y, w, h int) int {
	if w%8 != 0 || w > 256 {
		return intraSADScalar(p, x, y, w, h)
	}
	return kernels().intraSAD(p, x, y, w, h)
}

// intraSADMuScalar is the scalar reference for Σ|p−µ| at a given µ.
func intraSADMuScalar(p *frame.Plane, x, y, w, h, mu int) int {
	sum := 0
	for yy := 0; yy < h; yy++ {
		row := p.Pix[(y+yy)*p.Stride+x : (y+yy)*p.Stride+x+w]
		for _, v := range row {
			d := int(v) - mu
			if d < 0 {
				d = -d
			}
			sum += d
		}
	}
	return sum
}

// intraSADSWAR is the SWAR tier of Σ|p−µ|: w%8 == 0, w ≤ 256.
func intraSADSWAR(p *frame.Plane, x, y, w, h, mu int) int {
	sum := 0
	mub := uint64(mu) * laneOnes
	group := swarRowGroup(w)
	for y0 := 0; y0 < h; y0 += group {
		y1 := y0 + group
		if y1 > h {
			y1 = h
		}
		var acc uint64
		for yy := y0; yy < y1; yy++ {
			o := (y+yy)*p.Stride + x
			c := p.Pix[o : o+w]
			for xx := 0; xx+8 <= w; xx += 8 {
				a := load8(c[xx:])
				acc += absDiffLanes(a&laneLo, mub) + absDiffLanes((a>>8)&laneLo, mub)
			}
		}
		sum += foldLanes(acc)
	}
	return sum
}

// intraSADScalar is the scalar reference for IntraSAD.
func intraSADScalar(p *frame.Plane, x, y, w, h int) int {
	return intraSADMuScalar(p, x, y, w, h, meanOf(planeSumScalar(p, x, y, w, h), w, h))
}
