package frame

import "encoding/binary"

// 2:1 decimation for the simulcast ladder: each output sample is the
// rounded mean of its 2×2 source quad, (a+b+c+d+2)>>2 — the same rule the
// H.263 diagonal half-pel interpolation uses, so the SWAR lane algebra of
// the SAD kernels applies unchanged. Odd source dimensions replicate the
// last row/column (the quad clamps at the border), giving ceil(W/2) ×
// ceil(H/2) output.
//
// downscaleScalar is the exact reference; downscaleSWAR processes 8
// source bytes per uint64 load (4 output samples) and is differential- and
// fuzz-tested to be bit-identical (downscale_test.go, mirroring the
// metrics kernel tests).

// Lane constants, duplicated from internal/metrics (which imports this
// package, so the dependency cannot point the other way).
const (
	dsLaneLo   = 0x00ff00ff00ff00ff // low byte of each 16-bit lane
	dsLaneOnes = 0x0001000100010001 // 1 in each 16-bit lane
)

// Downscale returns src decimated 2:1 with the rounded box filter. The
// output plane is drawn from the size-bucketed pool (no apron); hand it
// back with ReleasePlane when done.
func Downscale(src *Plane) *Plane {
	dst := GetPlanePadded((src.W+1)/2, (src.H+1)/2, 0)
	DownscaleInto(dst, src)
	return dst
}

// DownscaleInto decimates src 2:1 into dst, which must be ceil(src.W/2) ×
// ceil(src.H/2) (any apron; only the visible area is written).
func DownscaleInto(dst, src *Plane) {
	if dst.W != (src.W+1)/2 || dst.H != (src.H+1)/2 {
		panic("frame: DownscaleInto size mismatch")
	}
	downscaleSWAR(dst, src)
}

// DownscaleFrame decimates a 4:2:0 frame 2:1 in both dimensions. The luma
// size must be divisible by 4 so the halved frame is itself a legal 4:2:0
// format (ladder rungs are macroblock-aligned, which is stricter). The
// result is pooled; release with (*Frame).Release.
func DownscaleFrame(src *Frame) *Frame {
	s := src.Size()
	if s.W%4 != 0 || s.H%4 != 0 {
		panic("frame: DownscaleFrame needs luma dimensions divisible by 4")
	}
	out := GetFramePadded(Size{W: s.W / 2, H: s.H / 2}, 0, 0)
	DownscaleInto(out.Y, src.Y)
	DownscaleInto(out.Cb, src.Cb)
	DownscaleInto(out.Cr, src.Cr)
	return out
}

// downscaleScalar is the exact scalar reference for the 2:1 box filter.
func downscaleScalar(dst, src *Plane) {
	for y := 0; y < dst.H; y++ {
		sy0 := 2 * y
		sy1 := sy0 + 1
		if sy1 >= src.H {
			sy1 = src.H - 1
		}
		top, bot := src.Row(sy0), src.Row(sy1)
		out := dst.Row(y)
		for x := 0; x < dst.W; x++ {
			sx0 := 2 * x
			sx1 := sx0 + 1
			if sx1 >= src.W {
				sx1 = src.W - 1
			}
			s := int(top[sx0]) + int(top[sx1]) + int(bot[sx0]) + int(bot[sx1])
			out[x] = uint8((s + 2) >> 2)
		}
	}
}

// downscaleSWAR computes 4 output samples per step: the even and odd bytes
// of an 8-byte load are split into 16-bit lanes, the four quad terms are
// summed per lane (≤ 1022, well inside 16 bits), and the rounded shift is
// repacked. Row pairs clamp at an odd bottom border by re-reading the last
// row; the odd-width output column falls to the scalar tail.
func downscaleSWAR(dst, src *Plane) {
	wide := src.W / 8 * 4 // output columns computable from full 8-byte loads
	for y := 0; y < dst.H; y++ {
		sy0 := 2 * y
		sy1 := sy0 + 1
		if sy1 >= src.H {
			sy1 = src.H - 1
		}
		top, bot := src.Row(sy0), src.Row(sy1)
		out := dst.Row(y)
		for x := 0; x < wide; x += 4 {
			a := binary.LittleEndian.Uint64(top[2*x:])
			b := binary.LittleEndian.Uint64(bot[2*x:])
			sum := (a & dsLaneLo) + (a >> 8 & dsLaneLo) +
				(b & dsLaneLo) + (b >> 8 & dsLaneLo) + 2*dsLaneOnes
			binary.LittleEndian.PutUint32(out[x:], pack4(sum>>2&dsLaneLo))
		}
		for x := wide; x < dst.W; x++ {
			sx0 := 2 * x
			sx1 := sx0 + 1
			if sx1 >= src.W {
				sx1 = src.W - 1
			}
			s := int(top[sx0]) + int(top[sx1]) + int(bot[sx0]) + int(bot[sx1])
			out[x] = uint8((s + 2) >> 2)
		}
	}
}

// pack4 collapses four 16-bit lanes (values ≤ 0xff) into four bytes.
func pack4(x uint64) uint32 {
	x = (x | x>>8) & 0x0000ffff0000ffff
	return uint32(x | x>>16)
}
