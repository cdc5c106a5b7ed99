package dct_test

import (
	"testing"

	"repro/internal/dct"
	"repro/internal/metrics"
)

// metrics.ColQuant is QuantizeInterRows / QuantizeIntraRows on the kernel
// table. Hooked into the row-pass checks of zerogate_test.go and
// intrarows_test.go, every tier of it meets the inputs built to sit on
// either side of a column's zero bound — where a tier that ran a dead
// column, skipped a live one or rounded a coefficient differently would
// show — and must return the function's own levels, nz and live.
func init() { dct.RowPassCheck = checkColQuant }

// checkColQuant holds every tier's ColQuant over rp to QuantizeInterRows
// or QuantizeIntraRows at qp: levels (on a dirty destination), nz, live.
func checkColQuant(t *testing.T, what string, rp *dct.RowPass, qp int, intra bool) {
	t.Helper()
	var want dct.Block
	var wnz bool
	var wlive int
	if intra {
		wnz, wlive = dct.QuantizeIntraRows(&want, rp, qp)
	} else {
		wnz, wlive = dct.QuantizeInterRows(&want, rp, qp)
	}
	var got dct.Block
	for _, isa := range metrics.KernelISAs() {
		restore, err := metrics.SetKernelISA(isa)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			got[i] = -77
		}
		nz, live := metrics.ColQuant(&got, rp, qp, intra)
		restore()
		if got != want || nz != wnz || live != wlive {
			t.Fatalf("%s %s qp %d intra %v: ColQuant levels %v nz %v live %d, want %v nz %v live %d",
				what, isa, qp, intra, got, nz, live, want, wnz, wlive)
		}
	}
}

// FuzzKernelTiersColQuant drives arbitrary sample blocks (intra) and
// residuals (their differences) through the row pass and every tier's
// ColQuant at every quantiser; shift squeezes the swing towards the
// columns' zero bounds.
func FuzzKernelTiersColQuant(f *testing.F) {
	f.Add([]byte("colquantcolquantcolquantcolquant"), uint8(0), false)
	f.Add([]byte{128, 129, 127, 128}, uint8(2), true)
	f.Add([]byte{0, 255}, uint8(0), true)
	f.Add([]byte{40, 0, 0, 0, 0, 0, 0, 0, 216}, uint8(1), false)
	f.Fuzz(func(t *testing.T, pix []byte, shift uint8, intra bool) {
		if len(pix) == 0 {
			return
		}
		sample := func(i int) int32 { return 128 + (int32(pix[i%len(pix)])-128)>>(shift%8) }
		var blk dct.Block
		for i := range blk {
			blk[i] = sample(i)
			if !intra {
				blk[i] -= sample(i + 17)
			}
		}
		var rp dct.RowPass
		dct.ForwardRows(&rp, &blk)
		for qp := dct.MinQp; qp <= dct.MaxQp; qp++ {
			checkColQuant(t, "fuzz", &rp, qp, intra)
		}
	})
}
