package metrics

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dct"
	"repro/internal/frame"
	"repro/internal/video"
)

// Kernel microbenchmarks, one sub-benchmark per registered ISA tier for
// the kernel table's entries — the numbers behind the "SIMD ≥1.5× over
// SWAR" acceptance line — and one benchmark for each single-probe SAD
// entry, which runs SWAR on every tier:
//
//	go test -run=- -bench 'Kernel' -benchmem ./internal/metrics/
//
// The 16×16 shapes are the motion-search hot path; 8×8 is the chroma /
// sub-block shape.

func benchPlanes() (cur, ref *frame.Plane) {
	rng := rand.New(rand.NewSource(1234))
	cur = paddedPlane(rng, 352, 64, 16)
	ref = paddedPlane(rng, 352, 64, 16)
	return cur, ref
}

func benchEachISA(b *testing.B, fn func(b *testing.B)) {
	b.Helper()
	for _, isa := range KernelISAs() {
		restore, err := SetKernelISA(isa)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(isa, fn)
		restore()
	}
}

func BenchmarkKernelSAD16x16(b *testing.B) {
	cur, ref := benchPlanes()
	b.SetBytes(16 * 16)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += SAD(cur, 32, 16, ref, 33+i%4, 17, 16, 16)
	}
	benchSink = sink
}

func BenchmarkKernelSAD8x8(b *testing.B) {
	cur, ref := benchPlanes()
	b.SetBytes(8 * 8)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += SAD(cur, 32, 16, ref, 33+i%4, 17, 8, 8)
	}
	benchSink = sink
}

func BenchmarkKernelSADCapped16x16(b *testing.B) {
	cur, ref := benchPlanes()
	b.SetBytes(16 * 16)
	var sink int
	for i := 0; i < b.N; i++ {
		// Cap high enough to never terminate: worst-case cost.
		sink += SADCapped(cur, 32, 16, ref, 33+i%4, 17, 16, 16, 1<<30)
	}
	benchSink = sink
}

func BenchmarkKernelIntraSAD16x16(b *testing.B) {
	cur, _ := benchPlanes()
	benchEachISA(b, func(b *testing.B) {
		b.SetBytes(16 * 16)
		var sink int
		for i := 0; i < b.N; i++ {
			sink += IntraSAD(cur, 32+i%4, 16, 16, 16)
		}
		benchSink = sink
	})
}

// refineCaps returns, per anchor (33+j, 17), the integer SAD the
// half-pel probes around it are capped at — the cap refineHalfPel's
// per-probe route (Collect, and references too narrowly padded for the
// ring) passes.
func refineCaps(cur, ref *frame.Plane) (caps [4]int) {
	for j := range caps {
		caps[j] = SAD(cur, 32, 16, ref, 33+j, 17, 16, 16)
	}
	return caps
}

func BenchmarkKernelHalfPelH16x16(b *testing.B) {
	cur, ref := benchPlanes()
	caps := refineCaps(cur, ref)
	b.SetBytes(16 * 16)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += SADHalfPelPlaneCapped(cur, 32, 16, ref, 2*(33+i%4)+1, 2*17, 16, 16, caps[i%4])
	}
	benchSink = sink
}

func BenchmarkKernelHalfPelD16x16(b *testing.B) {
	cur, ref := benchPlanes()
	caps := refineCaps(cur, ref)
	b.SetBytes(16 * 16)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += SADHalfPelPlaneCapped(cur, 32, 16, ref, 2*(33+i%4)+1, 2*17+1, 16, 16, caps[i%4])
	}
	benchSink = sink
}

func BenchmarkKernelHalfPelRing16x16(b *testing.B) {
	cur, ref := benchPlanes()
	benchEachISA(b, func(b *testing.B) {
		b.SetBytes(8 * 16 * 16)
		var ring [9]int
		for i := 0; i < b.N; i++ {
			SADHalfPelRing(cur, 32, 16, ref, 33+i%4, 17, 16, 16, &ring)
		}
		benchSink = ring[0]
	})
}

// BenchmarkKernelSADBest16x16 scans a whole ±15 window (961 candidates)
// per op, in the spiral order of the full search.
//
//   - noise: no candidate is much better than the rest, so few leave at
//     the first row check and the successive-elimination bound removes
//     almost nothing: close to the worst case.
//   - camera: the interior macroblocks of two consecutive Foreman QCIF
//     frames, one per op in turn — the content the full search meets.
func BenchmarkKernelSADBest16x16(b *testing.B) {
	cands := spiralTable(15)
	clip := Rect{MinX: -15, MinY: -15, MaxX: 15, MaxY: 15}
	b.Run("noise", func(b *testing.B) {
		cur, ref := benchPlanes()
		benchEachISA(b, func(b *testing.B) {
			b.SetBytes(int64(len(cands)) * 16 * 16)
			var sink int
			for i := 0; i < b.N; i++ {
				idx, sad := SADBest(cur, 32, 24, ref, 33+i%4, 24, 16, 16, cands, clip, 1<<30)
				sink += idx + sad
			}
			benchSink = sink
		})
	})
	b.Run("camera", func(b *testing.B) {
		seq := video.Generate(video.Foreman, frame.QCIF, 2, 7)
		cur, ref := seq[1].Y, seq[0].Y
		// Macroblocks whose ±15 window lies inside the frame.
		var mbs [][2]int
		for y := 16; y+16+15 <= cur.H; y += 16 {
			for x := 16; x+16+15 <= cur.W; x += 16 {
				mbs = append(mbs, [2]int{x, y})
			}
		}
		benchEachISA(b, func(b *testing.B) {
			b.SetBytes(int64(len(cands)) * 16 * 16)
			var sink int
			for i := 0; i < b.N; i++ {
				mb := mbs[i%len(mbs)]
				idx, sad := SADBest(cur, mb[0], mb[1], ref, mb[0], mb[1], 16, 16, cands, clip, 1<<30)
				sink += idx + sad
			}
			benchSink = sink
		})
	})
}

// BenchmarkKernelSSE8x8 is one 8×8 energy on plane bytes through the
// generic SSE entry — what the zero-block gate paid per block before it took
// a whole macroblock per call (BenchmarkKernelGateMB).
func BenchmarkKernelSSE8x8(b *testing.B) {
	cur, ref := benchPlanes()
	benchEachISA(b, func(b *testing.B) {
		b.SetBytes(8 * 8)
		var sink int64
		for i := 0; i < b.N; i++ {
			sink += SSE(cur, 32, 16, ref, 33+i%4, 17, 8, 8)
		}
		benchSink = int(sink)
	})
}

// BenchmarkKernelGateMB is the zero-block gate's cost per macroblock: the
// six 8×8 energies of MacroblockSSE, source against a strided, apron-padded
// reconstruction as in the encoder.
func BenchmarkKernelGateMB(b *testing.B) {
	src, rec := gateFrames(rand.New(rand.NewSource(1234)), frame.QCIF)
	benchEachISA(b, func(b *testing.B) {
		b.SetBytes(6 * 8 * 8)
		var sink int
		for i := 0; i < b.N; i++ {
			e := MacroblockSSE(src, rec, 1+i%9, 1+i/9%7)
			sink += e[0] + e[5]
		}
		benchSink = sink
	})
}

// BenchmarkKernelPredict16x16 is the prediction fetch of a one-vector
// macroblock's luma, per half-pel phase, into a strided destination — what
// the encoder and decoder pay per inter macroblock before anything else.
func BenchmarkKernelPredict16x16(b *testing.B) {
	_, ref := benchPlanes()
	dst := frame.NewPlanePadded(352, 64, 16)
	for ph, name := range []string{"int", "b", "c", "d"} {
		b.Run(name, func(b *testing.B) {
			benchEachISA(b, func(b *testing.B) {
				b.SetBytes(16 * 16)
				for i := 0; i < b.N; i++ {
					x := 16 * (i % 20)
					PredictBlock(dst, x, 16, ref, 2*(x+3)+ph&1, 2*17+ph>>1, 16, 16)
				}
				benchSink = int(dst.At(0, 16))
			})
		})
	}
}

// BenchmarkKernelResidualRows is the forward transform's row pass on one
// surviving 8×8 block, bytes in, seventy-two float64s out.
func BenchmarkKernelResidualRows(b *testing.B) {
	cur, ref := benchPlanes()
	rp := new(dct.RowPass)
	benchEachISA(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ResidualRows(rp, cur, 32, 16, ref, 33+i%4, 17)
		}
		benchSink = int(rp.Energy[0])
	})
}

// BenchmarkKernelColQuant is the column pass and quantiser of one inter
// block at Qp 16 with 0, 1, 4 or 8 of its eight coefficient columns above
// the zero bound (the row-pass energies are set to pick them; the
// intermediate is a real residual's). ns/op is ns per block; the scalar
// tier is the dct package's QuantizeInterRows.
func BenchmarkKernelColQuant(b *testing.B) {
	rng := rand.New(rand.NewSource(1234))
	var resid dct.Block
	for i := range resid {
		resid[i] = int32(rng.Intn(121) - 60)
	}
	levels := new(dct.Block)
	for _, live := range []int{0, 1, 4, 8} {
		rp := new(dct.RowPass)
		dct.ForwardRows(rp, &resid)
		for u := range rp.Energy {
			if u >= live {
				rp.Energy[u] = 0
			}
		}
		b.Run(fmt.Sprintf("live%d", live), func(b *testing.B) {
			benchEachISA(b, func(b *testing.B) {
				sink := 0
				for i := 0; i < b.N; i++ {
					_, n := ColQuant(levels, rp, 16, false)
					sink += n
				}
				benchSink = sink
			})
		})
	}
}

// BenchmarkKernelInverseAdd is the reconstruction of one coded inter block
// in place at Qp 16: a DC-only block, a sparse one (three low-frequency
// levels) and a dense one (every level non-zero). ns/op is ns per block;
// the scalar tier is dequantise + dct.Inverse + add + clamp.
func BenchmarkKernelInverseAdd(b *testing.B) {
	_, ref := benchPlanes()
	dst := frame.NewPlanePadded(352, 64, 16)
	copy(dst.Pix, ref.Pix)
	rng := rand.New(rand.NewSource(99))
	dense := new(dct.Block)
	for i := range dense {
		dense[i] = int32(rng.Intn(7) - 3)
		if dense[i] == 0 {
			dense[i] = 1
		}
	}
	for _, c := range []struct {
		name   string
		levels *dct.Block
	}{
		{"dc", &dct.Block{0: 3}},
		{"sparse", &dct.Block{0: -2, 1: 1, 8: 2}},
		{"dense", dense},
	} {
		b.Run(c.name, func(b *testing.B) {
			benchEachISA(b, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					x := 8 * (i % 40)
					InverseAdd(dst, x, 16, dst, x, 16, c.levels, 16, false)
				}
				benchSink = int(dst.At(0, 16))
			})
		})
	}
}

// benchSink defeats dead-code elimination of the benchmark bodies.
var benchSink int
