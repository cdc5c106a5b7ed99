//go:build amd64

package metrics

import (
	"math"

	"repro/internal/dct"
	"repro/internal/frame"
)

// This file provides the amd64 kernel tiers: SSE2 (architectural
// baseline — every amd64 CPU has it) built on PSADBW, the packed
// absolute-difference instruction that folds 16 byte differences into
// two quadword sums, and AVX2 where the CPU and OS support it (256-bit
// VPSADBW, two rows per iteration for the dominant 16-wide macroblock).
//
// The assembly in sad_amd64.s only sees flat byte pointers and strides;
// the wrappers below resolve plane geometry, so the .s file stays free
// of Go struct offsets. Every kernel computes the mathematically exact
// sum (and for capped kernels, the exact cumulative per-row sums), so
// they are bit-identical to the scalar reference by construction — and
// pinned to it by the differential and fuzz tests in dispatch_test.go.
//
// H.263 rounding: the diagonal half-pel (a+b+c+d+2)>>2 is NOT a PAVGB
// composition (PAVGB of PAVGBs rounds twice), so the ring kernels widen
// to 16-bit words, where every phase is an add, a bias and a shift.

// Assembly kernels (sad_amd64.s). All pointers address the first byte
// of the block; rows advance by the stride. w%8 == 0, w ≥ 8, h ≥ 1.
//
//go:noescape
func planeSumBlkSSE2(p *byte, stride, w, h int) int

//go:noescape
func intraSADBlkSSE2(p *byte, stride, w, h, mu int) int

// sadHpRingBlkSSE2 takes refTop = &ref.Pix[(ry-1)*stride+rx-1] (the row
// above the anchor, one column left) and writes the eight probe SADs to
// out slots 0..8, skipping the centre slot 4.
//
//go:noescape
func sadHpRingBlkSSE2(cur *byte, curStride int, refTop *byte, refStride int, w, h int, out *[9]int)

// sadHpRingBlkAVX2 is sadHpRingBlkSSE2 for w = 16 (h ≤ 16), every
// reference row loaded once.
//
//go:noescape
func sadHpRingBlkAVX2(cur *byte, curStride int, refTop *byte, refStride int, h int, out *[9]int)

// intraSAD16AVX2 returns IntraSAD of the 16×16 block at p: the mean and
// Σ|p−µ| from one load of the block.
//
//go:noescape
func intraSAD16AVX2(p *byte, stride int) int

// sadBest16SSE2/AVX2 scan n ≥ 1 candidates for the 16×16 block at cur and
// return the first strictly-best index below best, or -1. Candidates
// outside [minX, maxX] × [minY, maxY] are skipped; ref addresses the
// block displaced by (minX, minY) — the anchor itself may lie outside the
// plane — and every candidate inside the rectangle must be in-plane.
//
//go:noescape
func sadBest16SSE2(cur *byte, curStride int, ref *byte, refStride int, cands *Offset, n int, minX, minY, maxX, maxY int, best int) (idx, sad int)

//go:noescape
func sadBest16AVX2(cur *byte, curStride int, ref *byte, refStride int, cands *Offset, n int, minX, minY, maxX, maxY int, best int) (idx, sad int)

// sadBestMSEA16AVX2 is sadBest16AVX2 behind an exact successive-elimination
// pass: a candidate whose 4×4-sum lower bound on its SAD has reached the
// running minimum is skipped unread. Only for windows mseaFits accepts.
//
//go:noescape
func sadBestMSEA16AVX2(cur *byte, curStride int, ref *byte, refStride int, cands *Offset, n int, minX, minY, maxX, maxY int, best int) (idx, sad int)

// mseaFits reports whether sadBestMSEA16AVX2 takes n candidates over clip:
// its grids hold a 32×32 window and one mask bit per candidate for 1024,
// its first box-sum chunk needs sixteen positions (spanX+12) in a row, and
// its candidate filter subtracts the clip origin in 16-bit lanes, where a
// far origin could wrap an out-of-clip int16 displacement into the clip.
// Every other window takes sadBest16AVX2 — the ±15 full search always fits.
func mseaFits(n int, clip Rect) bool {
	const maxSpan, maxCands = 32, 1024
	const maxOrigin = math.MaxInt16 - maxSpan
	spanX, spanY := clip.MaxX-clip.MinX+1, clip.MaxY-clip.MinY+1
	return spanX >= 4 && spanX <= maxSpan && spanY <= maxSpan && n <= maxCands &&
		clip.MinX >= -maxOrigin && clip.MinX <= maxOrigin &&
		clip.MinY >= -maxOrigin && clip.MinY <= maxOrigin
}

// sseBlkSSE2/AVX2 return Σ(a−b)² over a w×h block, w·h ≤ sseMaxSamples:
// bytes widen to words, PMADDWD squares and pair-sums the differences
// into dword lanes, and the lanes fold once at the end.
//
//go:noescape
func sseBlkSSE2(a *byte, aStride int, b *byte, bStride int, w, h int) int

//go:noescape
func sseBlkAVX2(a *byte, aStride int, b *byte, bStride int, w, h int) int

// macroblockSSEAVX2 writes the six 8×8 block energies of the macroblock
// whose luma starts at aY/bY and chroma at aCb, aCr / bCb, bCr to out, in
// coding order.
//
//go:noescape
func macroblockSSEAVX2(aY *byte, aYStride int, bY *byte, bYStride int, aCb, aCr *byte, aCStride int, bCb, bCr *byte, bCStride int, out *[6]int)

// predictBlkSSE2 (residual_amd64.s) writes the w×h prediction block, w = 8
// or 16, from ref — the integer anchor, possibly inside the apron — into
// dst; phase bit 0 is the horizontal half-pel offset, bit 1 the vertical
// one. It writes the w×h window of dst and nothing else.
//
//go:noescape
func predictBlkSSE2(dst *byte, dstStride int, ref *byte, refStride int, w, h, phase int)

// residualRowsSSE2/AVX2 run dct.ForwardRows over the residual a − b of two
// 8×8 byte blocks; basis is dct.RowBasis().
//
//go:noescape
func residualRowsSSE2(a *byte, aStride int, b *byte, bStride int, basis *[8][8]float64, out *dct.RowPass)

//go:noescape
func residualRowsAVX2(a *byte, aStride int, b *byte, bStride int, basis *[8][8]float64, out *dct.RowPass)

// colQuantAVX2 (transform_amd64.s) runs the column pass and quantiser of
// the columns whose row-pass energy exceeds bound (and, intra, column 0)
// over rp into levels, which it zeroes first; basis is dct.RowBasis(),
// half and step the quantiser's (half = 0 for intra, whose DC slot takes
// the /8 rule). nz is non-zero when any level — for intra any AC level —
// is; live counts the columns run.
//
//go:noescape
func colQuantAVX2(levels *dct.Block, rp *dct.RowPass, basis *[8][8]float64, bound, half, step float64, intra int) (nz, live int)

// inverseAddAVX2 reconstructs the 8×8 block at dst from levels at qp
// (already clamped) and the prediction at pred; basis is dct.Basis().
//
//go:noescape
func inverseAddAVX2(dst *byte, dstStride int, pred *byte, predStride int, levels *dct.Block, basis *[8][8]float64, qp, intra int)

//go:noescape
func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbvAsm() (eax, edx uint32)

// cpuFeatureSet reports the SIMD tiers this host's CPU + OS support.
type cpuFeatureSet struct {
	avx, avx2 bool
}

// cpuFeatures probes CPUID. AVX/AVX2 require the CPU flag, OSXSAVE, and
// the OS actually saving the YMM state (XGETBV XCR0 bits 1|2) — the
// standard three-part check: a hypervisor can expose AVX2 in CPUID
// while masking XSAVE, and issuing VEX ops there would fault.
func cpuFeatures() cpuFeatureSet {
	var f cpuFeatureSet
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 1 {
		return f
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&osxsaveBit != 0 {
		xcr0, _ := xgetbvAsm()
		if xcr0&0x6 == 0x6 && ecx1&avxBit != 0 {
			f.avx = true
		}
	}
	if f.avx && maxLeaf >= 7 {
		_, ebx7, _, _ := cpuidAsm(7, 0)
		if ebx7&(1<<5) != 0 {
			f.avx2 = true
		}
	}
	return f
}

// DetectedCPUFeatures lists the SIMD feature flags relevant to kernel
// selection that the host CPU (and OS) advertise, in ascending order.
func DetectedCPUFeatures() []string {
	feats := []string{"sse2"} // architectural baseline on amd64
	f := cpuFeatures()
	if f.avx {
		feats = append(feats, "avx")
	}
	if f.avx2 {
		feats = append(feats, "avx2")
	}
	return feats
}

// archKernelTables returns the amd64 assembly tiers, slowest first:
// SSE2 unconditionally, AVX2 when the host supports it.
func archKernelTables() []*kernelTable {
	tables := []*kernelTable{sse2Table()}
	if cpuFeatures().avx2 {
		tables = append(tables, avx2Table())
	}
	return tables
}

// pix returns the address of sample (x, y) — the base pointer handed to
// the assembly. Bounds are the caller's contract (block in-plane); the
// slice index check here still guards the first byte.
func pix(p *frame.Plane, x, y int) *byte {
	return &p.Pix[y*p.Stride+x]
}

func sse2Table() *kernelTable {
	return &kernelTable{
		name:     "sse2",
		intraSAD: intraSADSSE2,
		ring:     ringSSE2,
		sadBest: func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry int, cands []Offset, clip Rect, best int) (int, int) {
			return sadBest16SSE2(pix(cur, cx, cy), cur.Stride, pix(ref, rx+clip.MinX, ry+clip.MinY), ref.Stride,
				&cands[0], len(cands), clip.MinX, clip.MinY, clip.MaxX, clip.MaxY, best)
		},
		sadBestFew: func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry int, cands [FewCands]Offset, n int, clip Rect, best int) (int, int) {
			return sadBest16SSE2(pix(cur, cx, cy), cur.Stride, pix(ref, rx+clip.MinX, ry+clip.MinY), ref.Stride,
				&cands[0], n, clip.MinX, clip.MinY, clip.MaxX, clip.MaxY, best)
		},
		sse: sseSSE2,
		mbSSE: func(a, b *frame.Frame, mbx, mby int) [6]int {
			return macroblockSSEBy(sseSSE2, a, b, mbx, mby)
		},
		predict: func(dst *frame.Plane, dx, dy int, ref *frame.Plane, hx, hy, w, h int) {
			predictBlkSSE2(pix(dst, dx, dy), dst.Stride, &ref.PixFrom(hx>>1, hy>>1)[0], ref.Stride, w, h, hx&1|hy&1<<1)
		},
		residualRows: func(rp *dct.RowPass, a *frame.Plane, ax, ay int, b *frame.Plane, bx, by int) {
			residualRowsSSE2(pix(a, ax, ay), a.Stride, pix(b, bx, by), b.Stride, dct.RowBasis(), rp)
		},
		colQuant:   colQuantScalar,
		inverseAdd: inverseAddScalar,
	}
}

// colQuantVec adapts colQuantAVX2 to the table: the zero bound
// QuantizeInterRows or QuantizeIntraRows tests each column's row-pass
// energy against, and the quantiser's half and step.
func colQuantVec(levels *dct.Block, rp *dct.RowPass, qp int, intra bool) (bool, int) {
	qp = dct.ClampQp(qp)
	bound, half, in := dct.InterZeroBound(qp), qp/2, 0
	if intra {
		bound, half, in = dct.IntraZeroBound(qp), 0, 1
	}
	nz, live := colQuantAVX2(levels, rp, dct.RowBasis(), float64(bound), float64(half), float64(2*qp), in)
	return nz != 0, live
}

func inverseAddVec(dst *frame.Plane, dx, dy int, pred *frame.Plane, px, py int, levels *dct.Block, qp int, intra bool) {
	in := 0
	if intra {
		in = 1
	}
	inverseAddAVX2(pix(dst, dx, dy), dst.Stride, pix(pred, px, py), pred.Stride, levels, dct.Basis(), dct.ClampQp(qp), in)
}

func intraSADSSE2(p *frame.Plane, x, y, w, h int) int {
	q := pix(p, x, y)
	return intraSADBlkSSE2(q, p.Stride, w, h, meanOf(planeSumBlkSSE2(q, p.Stride, w, h), w, h))
}

func ringSSE2(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int) (out [9]int) {
	sadHpRingBlkSSE2(pix(cur, cx, cy), cur.Stride, &ref.PixFrom(rx-1, ry-1)[0], ref.Stride, w, h, &out)
	return out
}

func sseSSE2(a *frame.Plane, ax, ay int, b *frame.Plane, bx, by, w, h int) int {
	return sseBlkSSE2(pix(a, ax, ay), a.Stride, pix(b, bx, by), b.Stride, w, h)
}

// avx2Table starts from the SSE2 table — entries may come from different
// tiers as long as each one is bit-exact — and replaces with true 256-bit
// kernels: IntraSAD of the 16×16 macroblock (mean and Σ|p−µ|
// from one load of the block); the 16-wide ring (one reference row per YMM
// register in word lanes, each of the h+2 rows loaded once, the vertical
// and diagonal pair sums each shared by the two current rows they serve);
// sadBest (the full-search scan: cur block resident in eight YMM
// registers, two ref rows per VPSADBW; for the windows mseaFits accepts —
// every ±15 one — behind an exact 4×4-sum successive-elimination pass
// whose grids live on the kernel's stack, so most candidates are never
// read; the winner, its SAD and Points stay the plain scan's); sse
// (sixteen squared differences per VPMADDWD; the 8-wide residual block
// takes two rows per iteration);
// mbSSE (the zero-block gate's six energies from one 16-wide luma pass and
// one Cb|Cr pass), residualRows (four float64 lanes per register: a
// row's eight outputs in two), colQuant (one pass per live column, lanes
// across v, the quantiser in float) and inverseAdd (int32-lane
// dequantiser, both inverse passes skipping all-zero coefficient rows and
// columns, four output rows in flight, one 8-byte store per row).
//
// The SSE2 table's colQuant and inverseAdd are the scalar tier's: its
// 128-bit float ops have no ROUNDPD (SSE4.1), which the exact rounding
// uses, and the encoder's hosts have AVX2.
//
// SSE2 under this name, each for a stated reason:
//   - predict: its widest row is one 16-byte register either way.
//   - IntraSAD of other shapes, and the 8-wide ring: nothing on the encode
//     path asks for them (the encoder searches and refines 16×16
//     macroblocks only).
func avx2Table() *kernelTable {
	t := *sse2Table()
	t.name = "avx2"
	t.intraSAD = func(p *frame.Plane, x, y, w, h int) int {
		if w == 16 && h == 16 {
			return intraSAD16AVX2(pix(p, x, y), p.Stride)
		}
		return intraSADSSE2(p, x, y, w, h)
	}
	t.ring = func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int) (out [9]int) {
		if w != 16 {
			return ringSSE2(cur, cx, cy, ref, rx, ry, w, h)
		}
		sadHpRingBlkAVX2(pix(cur, cx, cy), cur.Stride, &ref.PixFrom(rx-1, ry-1)[0], ref.Stride, h, &out)
		return out
	}
	t.sadBest = func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry int, cands []Offset, clip Rect, best int) (int, int) {
		c, r := pix(cur, cx, cy), pix(ref, rx+clip.MinX, ry+clip.MinY)
		if mseaFits(len(cands), clip) {
			return sadBestMSEA16AVX2(c, cur.Stride, r, ref.Stride,
				&cands[0], len(cands), clip.MinX, clip.MinY, clip.MaxX, clip.MaxY, best)
		}
		return sadBest16AVX2(c, cur.Stride, r, ref.Stride,
			&cands[0], len(cands), clip.MinX, clip.MinY, clip.MaxX, clip.MaxY, best)
	}
	t.sadBestFew = func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry int, cands [FewCands]Offset, n int, clip Rect, best int) (int, int) {
		return sadBest16AVX2(pix(cur, cx, cy), cur.Stride, pix(ref, rx+clip.MinX, ry+clip.MinY), ref.Stride,
			&cands[0], n, clip.MinX, clip.MinY, clip.MaxX, clip.MaxY, best)
	}
	t.sse = func(a *frame.Plane, ax, ay int, b *frame.Plane, bx, by, w, h int) int {
		return sseBlkAVX2(pix(a, ax, ay), a.Stride, pix(b, bx, by), b.Stride, w, h)
	}
	t.mbSSE = func(a, b *frame.Frame, mbx, mby int) (e [6]int) {
		x, y, cx, cy := 16*mbx, 16*mby, 8*mbx, 8*mby
		macroblockSSEAVX2(pix(a.Y, x, y), a.Y.Stride, pix(b.Y, x, y), b.Y.Stride,
			pix(a.Cb, cx, cy), pix(a.Cr, cx, cy), a.Cb.Stride,
			pix(b.Cb, cx, cy), pix(b.Cr, cx, cy), b.Cb.Stride, &e)
		return e
	}
	t.residualRows = func(rp *dct.RowPass, a *frame.Plane, ax, ay int, b *frame.Plane, bx, by int) {
		residualRowsAVX2(pix(a, ax, ay), a.Stride, pix(b, bx, by), b.Stride, dct.RowBasis(), rp)
	}
	t.colQuant = colQuantVec
	t.inverseAdd = inverseAddVec
	return &t
}
