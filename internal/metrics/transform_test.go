package metrics

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dct"
	"repro/internal/frame"
)

// The transform's two table entries are held to the dct package's code —
// which is their scalar tier — level for level and sample for sample on
// every tier, and InverseAdd, which writes into a frame other wavefront
// lanes write beside it, to its 8×8 window by a poisoned guard band.
// ColQuant's tests live in the dct package's external tests
// (dct/colquant_test.go), beside the adversarial row passes they reuse.

// checkInverseAdd runs InverseAdd on every tier into a poisoned, strided
// destination at (dx, dy) over the prediction of pred at (px, py) — dst's
// own window when inPlace — and compares the window with dequantise +
// dct.Inverse + add + frame.ClampU8, and every other byte with the poison.
func checkInverseAdd(t testing.TB, what string, levels *dct.Block, qp int, intra bool, pred *frame.Plane, px, py, dx, dy int, inPlace bool) {
	t.Helper()
	var coef dct.Block
	if intra {
		dct.DequantizeIntra(&coef, levels, qp)
	} else {
		dct.DequantizeInter(&coef, levels, qp)
	}
	dct.Inverse(&coef, &coef)
	var want [64]uint8
	for i := range want {
		want[i] = frame.ClampU8(int(int32(pred.At(px+i%8, py+i/8)) + coef[i]))
	}
	dst := &frame.Plane{W: 24, H: 20, Stride: 27, Pix: make([]uint8, 27*20)}
	// The levels travel through the table as a pointer: a heap copy keeps
	// the caller's block from escaping in every test that calls this.
	lv := new(dct.Block)
	*lv = *levels
	for _, isa := range KernelISAs() {
		restore, err := SetKernelISA(isa)
		if err != nil {
			t.Fatal(err)
		}
		poison(dst)
		src, sx, sy := pred, px, py
		if inPlace {
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					dst.Set(dx+x, dy+y, pred.At(px+x, py+y))
				}
			}
			src, sx, sy = dst, dx, dy
		}
		InverseAdd(dst, dx, dy, src, sx, sy, lv, qp, intra)
		restore()
		if *lv != *levels {
			t.Fatalf("%s %s: InverseAdd changed its levels", what, isa)
		}
		for i, got := range dst.Pix {
			x, y := i%dst.Stride-dx, i/dst.Stride-dy
			if x >= 0 && x < 8 && y >= 0 && y < 8 {
				if got != want[y*8+x] {
					t.Fatalf("%s %s qp %d intra %v: sample (%d,%d) = %d, want %d; levels %v", what, isa, qp, intra, x, y, got, want[y*8+x], *levels)
				}
				continue
			}
			if got != uint8(0xA5^i*29) {
				t.Fatalf("%s %s: wrote outside its window at (%d,%d) from its corner", what, isa, x, y)
			}
		}
	}
}

// TestKernelTiersInverseAdd sweeps the reconstruction's inputs: DC-only
// blocks, each basis function alone at the ±2047 dequantised extremes,
// results that saturate at 0 and at 255, random sparse and dense blocks,
// Qp 1…31 and intra DC 1…254, in place and from a separate prediction.
func TestKernelTiersInverseAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	pred := paddedPlane(rng, 24, 20, 5)
	flat := func(v uint8) *frame.Plane {
		p := frame.NewPlane(8, 8)
		for i := range p.Pix {
			p.Pix[i] = v
		}
		return p
	}
	zero, white := flat(0), flat(255)
	anchors := [][4]int{{0, 0, 0, 0}, {3, 5, 16, 12}, {16, 12, 7, 1}, {9, 2, 1, 11}}
	n := 0
	check := func(what string, lv *dct.Block, qp int, intra bool) {
		an := anchors[n%len(anchors)]
		n++
		if intra {
			checkInverseAdd(t, what, lv, qp, true, zero, 0, 0, an[2], an[3], false)
			return
		}
		checkInverseAdd(t, what, lv, qp, false, pred, an[0], an[1], an[2], an[3], n%2 == 0)
		checkInverseAdd(t, what+" on black", lv, qp, false, zero, 0, 0, an[2], an[3], false)
		checkInverseAdd(t, what+" on white", lv, qp, false, white, 0, 0, an[2], an[3], false)
	}
	for qp := dct.MinQp; qp <= dct.MaxQp; qp++ {
		for _, l := range []int32{1, -1, 2, -3, 7, -20, 127, -127} {
			check("DC only", &dct.Block{0: l}, qp, false)
		}
		for i := 0; i < 64; i++ {
			for _, l := range []int32{127, -127} { // 2047 after the clip at every qp ≥ 9
				var lv dct.Block
				lv[i] = l
				check("basis", &lv, qp, false)
				if i > 0 {
					lv[0] = 1 + int32(rng.Intn(254))
					check("intra basis", &lv, qp, true)
				}
			}
		}
		for trial := 0; trial < 20; trial++ {
			var sparse, dense dct.Block
			for j := 1 + rng.Intn(5); j > 0; j-- {
				sparse[rng.Intn(64)] = int32(rng.Intn(61) - 30)
			}
			for i := range dense {
				dense[i] = int32(rng.Intn(9) - 4)
			}
			check("sparse", &sparse, qp, false)
			check("dense", &dense, qp, false)
			sparse[0], dense[0] = 1+int32(rng.Intn(254)), 1+int32(rng.Intn(254))
			check("intra sparse", &sparse, qp, true)
			check("intra dense", &dense, qp, true)
		}
	}
	for dc := int32(1); dc <= 254; dc++ {
		check("intra DC", &dct.Block{0: dc}, 1+int(dc)%31, true)
	}
	// Levels no encoder writes but a corrupt stream may carry: the
	// dequantiser's int32 wrap must match too.
	for _, l := range []int32{math.MaxInt32, math.MinInt32, 1 << 30, -(1 << 30), 1 << 28} {
		check("huge", &dct.Block{9: l, 17: 3}, 16, false)
		check("huge intra", &dct.Block{0: 200, 9: l}, 15, true)
	}
}

// FuzzKernelTiersInverseAdd drives arbitrary levels, quantisers,
// predictions and destination anchors through every tier.
func FuzzKernelTiersInverseAdd(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 250}, uint8(16), uint8(0), uint8(7), false)
	f.Add([]byte{128, 1, 255, 2}, uint8(1), uint8(3), uint8(200), true)
	f.Add([]byte{0x7f, 0x81, 0x7f, 0x81, 0x7f}, uint8(31), uint8(255), uint8(0), false)
	f.Fuzz(func(t *testing.T, data []byte, qp8, sparsity, at uint8, intra bool) {
		if len(data) == 0 {
			return
		}
		var lv dct.Block
		for i := range lv {
			if int(data[i%len(data)])%8 < int(sparsity%9) {
				continue
			}
			lv[i] = int32(int8(data[(i*7+3)%len(data)]))
		}
		if intra {
			lv[0] = int32(data[0])
		}
		rng := rand.New(rand.NewSource(int64(at)))
		pred := paddedPlane(rng, 12, 12, int(at%5))
		checkInverseAdd(t, "fuzz", &lv, 1+int(qp8)%31, intra, pred, int(at&3), int(at>>2&3), int(at>>4%17), int(at>>1%13), at&1 == 1)
	})
}

// checkColQuant holds every tier's ColQuant over rp to the dct package's
// QuantizeInterRows / QuantizeIntraRows at qp: levels (on a dirty
// destination), nz and live.
func checkColQuant(t testing.TB, what string, rp *dct.RowPass, qp int, intra bool) {
	t.Helper()
	var want dct.Block
	var wnz bool
	var wlive int
	if intra {
		wnz, wlive = dct.QuantizeIntraRows(&want, rp, qp)
	} else {
		wnz, wlive = dct.QuantizeInterRows(&want, rp, qp)
	}
	got := new(dct.Block)
	for _, isa := range KernelISAs() {
		restore, err := SetKernelISA(isa)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			got[i] = -77
		}
		nz, live := ColQuant(got, rp, qp, intra)
		restore()
		if *got != want || nz != wnz || live != wlive {
			t.Fatalf("%s %s qp %d intra %v: levels %v nz %v live %d, want %v nz %v live %d",
				what, isa, qp, intra, *got, nz, live, want, wnz, wlive)
		}
	}
}

// FuzzKernelTiersColQuant drives arbitrary byte blocks through the row
// pass and every tier's ColQuant, inter and intra, at every quantiser.
func FuzzKernelTiersColQuant(f *testing.F) {
	f.Add([]byte("colquantcolquantcolquantcolquant"), uint8(0), false)
	f.Add([]byte{128, 129, 127, 128}, uint8(2), true)
	f.Add([]byte{0, 255}, uint8(0), true)
	f.Add([]byte{40, 0, 0, 0, 0, 0, 0, 0, 216}, uint8(1), false)
	f.Fuzz(func(t *testing.T, pix []byte, shift uint8, intra bool) {
		if len(pix) == 0 {
			return
		}
		var blk dct.Block
		for i := range blk {
			v := 128 + (int32(pix[i%len(pix)])-128)>>(shift%8)
			if !intra { // a residual: the difference of two samples
				v -= 128 + (int32(pix[(i+17)%len(pix)])-128)>>(shift%8)
			}
			blk[i] = v
		}
		rp := new(dct.RowPass)
		dct.ForwardRows(rp, &blk)
		for qp := dct.MinQp; qp <= dct.MaxQp; qp++ {
			checkColQuant(t, "fuzz", rp, qp, intra)
		}
	})
}
