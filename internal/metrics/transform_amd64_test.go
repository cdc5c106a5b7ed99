//go:build amd64

package metrics

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dct"
	"repro/internal/frame"
)

// TestInverseAddAVX2DyadicBasis holds the AVX2 reconstruction kernel to
// dct.Inverse's operation order and rounding with the basis swapped for
// random multiples of 1/16. With the real basis a sum almost never lands
// on a half — every AC coefficient the dequantiser makes is odd — so a
// kernel rounding halves the wrong way would pass every test above; with a
// dyadic basis the sums are exact and land on halves all the time, of both
// signs. The reference is the two passes written out, then math.Round.
func TestInverseAddAVX2DyadicBasis(t *testing.T) {
	if !cpuFeatures().avx2 {
		t.Skip("no AVX2")
	}
	rng := rand.New(rand.NewSource(16))
	basis := new([8][8]float64)
	levels := new(dct.Block)
	halves := 0
	for trial := 0; trial < 3000; trial++ {
		for u := range basis {
			for x := range basis[u] {
				basis[u][x] = float64(rng.Intn(17)-8) / 16
			}
		}
		*levels = dct.Block{}
		for j := rng.Intn(12); j >= 0; j-- {
			levels[rng.Intn(64)] = int32(rng.Intn(11) - 5)
		}
		qp, intra := 1+rng.Intn(31), trial%3 == 0
		var coef dct.Block
		if intra {
			dct.DequantizeIntra(&coef, levels, qp)
		} else {
			dct.DequantizeInter(&coef, levels, qp)
		}
		var tmp [8][8]float64
		for y := 0; y < 8; y++ {
			for u := 0; u < 8; u++ {
				s := float64(coef[u]) * basis[0][y]
				for v := 1; v < 8; v++ {
					s += float64(float64(coef[v*8+u]) * basis[v][y])
				}
				tmp[y][u] = s
			}
		}
		pred := frame.NewPlane(8, 8)
		rng.Read(pred.Pix)
		want := make([]uint8, 64)
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				s := tmp[y][0] * basis[0][x]
				for u := 1; u < 8; u++ {
					s += float64(tmp[y][u] * basis[u][x])
				}
				if math.Abs(s-math.Trunc(s)) == 0.5 {
					halves++
				}
				want[y*8+x] = frame.ClampU8(int(int32(pred.Pix[y*8+x]) + int32(math.Round(s))))
			}
		}
		dst := frame.NewPlane(8, 8)
		in := 0
		if intra {
			in = 1
		}
		inverseAddAVX2(&dst.Pix[0], 8, &pred.Pix[0], 8, levels, basis, dct.ClampQp(qp), in)
		if string(dst.Pix) != string(want) {
			t.Fatalf("trial %d qp %d intra %v: got %v want %v (levels %v)", trial, qp, intra, dst.Pix, want, *levels)
		}
	}
	if halves < 300 { // 791 with this seed
		t.Fatalf("only %d sums landed on a half; the test no longer tests rounding", halves)
	}
}
