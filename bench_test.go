package repro

// One benchmark per table and figure of the paper's evaluation, plus
// micro-benchmarks for the hot kernels and ablations of ACBM's design
// choices. The macro benchmarks run reduced-size versions of the full
// experiments (fewer frames/Qps than cmd/acbmbench) so `go test -bench .`
// completes in minutes; the reported custom metrics — positions/MB,
// PSNR, rate savings — are the quantities the paper tabulates.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dct"
	"repro/internal/experiment"
	"repro/internal/frame"
	"repro/internal/ratedist"
	"repro/internal/search"
	"repro/internal/video"
)

// benchQps is the reduced quantiser sweep used by the macro benchmarks.
var benchQps = []int{30, 24, 18}

const benchFrames = 24 // at 30 fps

// --- Table 1: ACBM complexity per sequence × frame rate × Qp ---------------

func benchmarkTable1(b *testing.B, prof video.Profile, dec int) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunTable1(experiment.Table1Config{
			Profiles:    []video.Profile{prof},
			Frames:      benchFrames,
			Qps:         benchQps,
			Decimations: []int{dec},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanPoints(prof, dec), "positions/MB")
		lo, _ := res.Cell(prof, dec, benchQps[len(benchQps)-1])
		b.ReportMetric(100*lo.FSBMRate, "critical%")
	}
}

func BenchmarkTable1_Carphone_30fps(b *testing.B)    { benchmarkTable1(b, video.Carphone, 1) }
func BenchmarkTable1_Carphone_10fps(b *testing.B)    { benchmarkTable1(b, video.Carphone, 3) }
func BenchmarkTable1_Foreman_30fps(b *testing.B)     { benchmarkTable1(b, video.Foreman, 1) }
func BenchmarkTable1_Foreman_10fps(b *testing.B)     { benchmarkTable1(b, video.Foreman, 3) }
func BenchmarkTable1_MissAmerica_30fps(b *testing.B) { benchmarkTable1(b, video.MissAmerica, 1) }
func BenchmarkTable1_MissAmerica_10fps(b *testing.B) { benchmarkTable1(b, video.MissAmerica, 3) }
func BenchmarkTable1_Table_30fps(b *testing.B)       { benchmarkTable1(b, video.TableTennis, 1) }
func BenchmarkTable1_Table_10fps(b *testing.B)       { benchmarkTable1(b, video.TableTennis, 3) }

// --- Figures 5 and 6: rate-distortion curves -------------------------------

func benchmarkRDFigure(b *testing.B, prof video.Profile, dec int) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.RDConfig{
			Profile: prof, Frames: benchFrames, Decimation: dec, Qps: benchQps,
		}
		curves, err := experiment.RDSweep(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		acbm, _ := experiment.FindCurve(curves, "ACBM")
		fsbm, _ := experiment.FindCurve(curves, "FSBM")
		pbm, _ := experiment.FindCurve(curves, "PBM")
		if s, err := ratedist.AvgRateSavings(acbm, fsbm); err == nil {
			b.ReportMetric(100*s, "rate-savings-vs-FSBM%")
		}
		if s, err := ratedist.AvgRateSavings(acbm, pbm); err == nil {
			b.ReportMetric(100*s, "rate-savings-vs-PBM%")
		}
		b.ReportMetric(acbm.Points[len(acbm.Points)-1].PSNR, "ACBM-maxPSNR-dB")
	}
}

func BenchmarkFigure5_Carphone(b *testing.B)    { benchmarkRDFigure(b, video.Carphone, 1) }
func BenchmarkFigure5_Foreman(b *testing.B)     { benchmarkRDFigure(b, video.Foreman, 1) }
func BenchmarkFigure5_MissAmerica(b *testing.B) { benchmarkRDFigure(b, video.MissAmerica, 1) }
func BenchmarkFigure5_Table(b *testing.B)       { benchmarkRDFigure(b, video.TableTennis, 1) }
func BenchmarkFigure6_Carphone(b *testing.B)    { benchmarkRDFigure(b, video.Carphone, 3) }
func BenchmarkFigure6_Foreman(b *testing.B)     { benchmarkRDFigure(b, video.Foreman, 3) }
func BenchmarkFigure6_MissAmerica(b *testing.B) { benchmarkRDFigure(b, video.MissAmerica, 3) }
func BenchmarkFigure6_Table(b *testing.B)       { benchmarkRDFigure(b, video.TableTennis, 3) }

// --- Figure 4: the MV-error preliminary study ------------------------------

func BenchmarkFigure4_MVStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunMVStudy(experiment.MVStudyConfig{
			Size: frame.QCIF,
			MVs:  video.DefaultGlobalMVs[:4],
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.TrueVectorRate(), "true-MV%")
		high, low := res.HighTextureTrueRate()
		b.ReportMetric(100*(high-low), "texture-gap-pp")
	}
}

// --- Ablations: the design choices DESIGN.md calls out ---------------------

// ablationEncode encodes a fixed hard sequence and reports complexity and
// quality for one searcher configuration.
func ablationEncode(b *testing.B, s func() search.Searcher) {
	base := video.Generate(video.Foreman, frame.QCIF, benchFrames, experiment.DefaultSeed)
	frames := video.Decimate(base, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, _, err := codec.EncodeSequence(codec.Config{Qp: 18, Searcher: s(), FPS: 10}, frames)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(stats.AvgSearchPointsPerMB(), "positions/MB")
		b.ReportMetric(stats.AvgPSNRY(), "PSNR-dB")
		b.ReportMetric(stats.BitrateKbps(), "kbit/s")
	}
}

func BenchmarkAblation_ACBM_BothConditions(b *testing.B) {
	ablationEncode(b, func() search.Searcher { return core.New(core.DefaultParams) })
}

func BenchmarkAblation_ACBM_Condition1Only(b *testing.B) {
	// γ=0 disables the texture-relative acceptance.
	ablationEncode(b, func() search.Searcher {
		return core.New(core.Params{Alpha: 1000, Beta: 8, GammaNum: 0, GammaDen: 1})
	})
}

func BenchmarkAblation_ACBM_Condition2Only(b *testing.B) {
	// α=β=0 disables the quantiser-dependent acceptance.
	ablationEncode(b, func() search.Searcher {
		return core.New(core.Params{Alpha: 0, Beta: 0, GammaNum: 1, GammaDen: 4})
	})
}

func BenchmarkAblation_PBM_RefineBudget1(b *testing.B) {
	ablationEncode(b, func() search.Searcher { return &search.PBM{MaxRefineSteps: 1} })
}

func BenchmarkAblation_PBM_RefineBudget8(b *testing.B) {
	ablationEncode(b, func() search.Searcher { return &search.PBM{MaxRefineSteps: 8} })
}

func BenchmarkAblation_FSBM_NoHalfPel(b *testing.B) {
	ablationEncode(b, func() search.Searcher { return &search.FSBM{NoHalfPel: true} })
}

func BenchmarkAblation_FastSearch_TSS(b *testing.B) {
	ablationEncode(b, func() search.Searcher { return &search.TSS{} })
}

func BenchmarkAblation_FastSearch_Diamond(b *testing.B) {
	ablationEncode(b, func() search.Searcher { return &search.Diamond{} })
}

func BenchmarkAblation_FastSearch_CrossDiamond(b *testing.B) {
	ablationEncode(b, func() search.Searcher { return &search.CrossDiamond{} })
}

func BenchmarkAblation_FastSearch_FourStep(b *testing.B) {
	ablationEncode(b, func() search.Searcher { return &search.FSS{} })
}

// --- Micro-benchmarks: the hot kernels -------------------------------------

func benchPlanes() (cur, ref *frame.Plane) {
	f := video.Generate(video.Foreman, frame.QCIF, 2, 1)
	return f[1].Y, f[0].Y
}

func BenchmarkInterpolateQCIF(b *testing.B) {
	_, ref := benchPlanes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame.Interpolate(ref)
	}
}

func BenchmarkDCT8x8Forward(b *testing.B) {
	var src, dst dct.Block
	for i := range src {
		src[i] = int32(i*7%255 - 128)
	}
	for i := 0; i < b.N; i++ {
		dct.Forward(&dst, &src)
	}
}

func BenchmarkDCT8x8Inverse(b *testing.B) {
	var src, dst dct.Block
	for i := range src {
		src[i] = int32(i*7%255 - 128)
	}
	for i := 0; i < b.N; i++ {
		dct.Inverse(&dst, &src)
	}
}

func benchSearchBlock(b *testing.B, s search.Searcher) {
	cur, ref := benchPlanes()
	in := &search.Input{
		Cur: cur, Ref: ref,
		BX: 80, BY: 64, W: 16, H: 16, Range: 15, Qp: 16,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Search(in)
	}
}

func BenchmarkSearchBlock_FSBM(b *testing.B) { benchSearchBlock(b, &search.FSBM{}) }
func BenchmarkSearchBlock_PBM(b *testing.B)  { benchSearchBlock(b, &search.PBM{}) }
func BenchmarkSearchBlock_ACBM(b *testing.B) { benchSearchBlock(b, core.New(core.DefaultParams)) }
func BenchmarkSearchBlock_TSS(b *testing.B)  { benchSearchBlock(b, &search.TSS{}) }

func benchEncodeFrame(b *testing.B, s func() search.Searcher) {
	frames := video.Generate(video.Carphone, frame.QCIF, 2, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := codec.EncodeSequence(codec.Config{Qp: 16, Searcher: s()}, frames); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeFrame_FSBM(b *testing.B) {
	benchEncodeFrame(b, func() search.Searcher { return &search.FSBM{} })
}

func BenchmarkEncodeFrame_ACBM(b *testing.B) {
	benchEncodeFrame(b, func() search.Searcher { return core.New(core.DefaultParams) })
}

func BenchmarkEncodeFrame_PBM(b *testing.B) {
	benchEncodeFrame(b, func() search.Searcher { return &search.PBM{} })
}

// benchEncodeFrameWorkers measures the wavefront-parallel encoder at a
// fixed worker count, reporting encode throughput in MB/s (luma source
// bytes per wall-clock second) and the Table 1 points/block metric —
// which must not move with the worker count.
func benchEncodeFrameWorkers(b *testing.B, workers int) {
	frames := video.Generate(video.Carphone, frame.QCIF, 4, 1)
	lumaBytes := float64(len(frames)) * float64(frame.QCIF.W*frame.QCIF.H)
	var stats *codec.SequenceStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		stats, _, err = codec.EncodeSequence(codec.Config{
			Qp: 16, Searcher: core.New(core.DefaultParams), Workers: workers,
		}, frames)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(stats.AvgSearchPointsPerMB(), "points/block")
	b.ReportMetric(lumaBytes*float64(b.N)/1e6/b.Elapsed().Seconds(), "MB/s")
}

func BenchmarkEncodeFrame_Workers1(b *testing.B) { benchEncodeFrameWorkers(b, 1) }
func BenchmarkEncodeFrame_Workers4(b *testing.B) { benchEncodeFrameWorkers(b, 4) }

// benchEncodeSequence compares the serial EncodeFrame loop with the
// cross-frame pipeline (entropy coding of frame n overlapped with
// analysis of frame n+1). Both produce byte-identical streams; only the
// wall clock may differ, reported as frames per second.
func benchEncodeSequence(b *testing.B, workers int, pipeline bool) {
	frames := video.Generate(video.Carphone, frame.QCIF, 8, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := codec.EncodeSequence(codec.Config{
			Qp: 16, Searcher: core.New(core.DefaultParams),
			Workers: workers, Pipeline: pipeline,
		}, frames)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(frames))*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// BenchmarkEncodeAdaptiveCells is the profiling entry point for
// BENCHMARK.json's adaptive_serial workload: its eight cells — the four
// clips × Qp {30, 24}, ACBM at the default parameters, QCIF, 60 frames (one
// intra frame in sixty), seed 7 — each through a fresh codec.Encoder with
// Workers=1. Reports frames/s. `make profile-adaptive` runs it at
// GOMAXPROCS=1 and writes its CPU profile; a split taken from a shorter
// clip or a lower Qp overstates intra and understates search. The clips
// are generated once per process, outside the timer, and the profile's
// pprof line focuses on the encoder so their generation drops out of it.
func BenchmarkEncodeAdaptiveCells(b *testing.B) {
	clips := adaptiveClips()
	b.ResetTimer()
	frames := 0
	for i := 0; i < b.N; i++ {
		for _, clip := range clips {
			for _, qp := range []int{30, 24} {
				enc := codec.NewEncoder(codec.Config{Qp: qp, Searcher: core.New(core.DefaultParams), Workers: 1})
				for _, f := range clip {
					if _, err := enc.EncodeFrame(f); err != nil {
						b.Fatal(err)
					}
				}
				enc.Bitstream()
				frames += len(clip)
			}
		}
	}
	b.ReportMetric(float64(frames)/b.Elapsed().Seconds(), "frames/s")
}

// adaptiveClips are adaptive_serial's four QCIF clips, 60 frames, seed 7.
var adaptiveClips = sync.OnceValue(func() [][]*frame.Frame {
	clips := make([][]*frame.Frame, len(video.Profiles))
	for i, p := range video.Profiles {
		clips[i] = video.Generate(p, frame.QCIF, 60, 7)
	}
	return clips
})

// BenchmarkEncodeFullsearchCells is BenchmarkEncodeAdaptiveCells for
// BENCHMARK.json's fullsearch_serial workload: its three cells — FSBM on
// Foreman and on Carphone, ACBM at the default parameters on Foreman, all
// at Qp 16, QCIF, 80 frames, seed 7 — each through a fresh codec.Encoder
// with Workers=1. Reports frames/s. `make profile-fullsearch` runs it at
// GOMAXPROCS=1 and writes its CPU profile.
func BenchmarkEncodeFullsearchCells(b *testing.B) {
	clips := fullsearchClips()
	cells := []struct {
		clip     []*frame.Frame
		searcher func() search.Searcher
	}{
		{clips[0], func() search.Searcher { return &search.FSBM{} }},
		{clips[1], func() search.Searcher { return &search.FSBM{} }},
		{clips[0], func() search.Searcher { return core.New(core.DefaultParams) }},
	}
	b.ResetTimer()
	frames := 0
	for i := 0; i < b.N; i++ {
		for _, c := range cells {
			enc := codec.NewEncoder(codec.Config{Qp: 16, Searcher: c.searcher(), Workers: 1})
			for _, f := range c.clip {
				if _, err := enc.EncodeFrame(f); err != nil {
					b.Fatal(err)
				}
			}
			enc.Bitstream()
			frames += len(c.clip)
		}
	}
	b.ReportMetric(float64(frames)/b.Elapsed().Seconds(), "frames/s")
}

// BenchmarkEncodePoolSessions is serve_burst's codec shape without HTTP:
// two closed-loop sessions at once on one codec.Pool(2), as vcodecd runs
// them (packets through codec.EncodeStream, Pipeline on), taking turns at
// adaptive_serial's eight cells — the four QCIF clips × Qp {30, 24}, ACBM
// at the default parameters, 60 frames, seed 7 — each through a fresh
// stream. Reports frames/s over both sessions. It is the module's own
// signal for the shared pool and its slots (`make bench-smoke` runs it
// once); `make profile-serve` runs it at GOMAXPROCS=2 and writes its CPU
// profile.
func BenchmarkEncodePoolSessions(b *testing.B) {
	clips := adaptiveClips()
	pool := codec.NewPool(2)
	defer pool.Close()
	type cell struct {
		clip []*frame.Frame
		qp   int
	}
	var cells []cell
	for _, clip := range clips {
		for _, qp := range []int{30, 24} {
			cells = append(cells, cell{clip, qp})
		}
	}
	b.ResetTimer()
	frames := 0
	for i := 0; i < b.N; i++ {
		var next atomic.Int32
		var wg sync.WaitGroup
		for s := 0; s < 2; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := int(next.Add(1)) - 1; k < len(cells); k = int(next.Add(1)) - 1 {
					c := cells[k]
					es := codec.NewEncodeStream(codec.Config{
						Qp: c.qp, Searcher: core.New(core.DefaultParams), Pool: pool, Pipeline: true,
					}, func(codec.Packet) error { return nil })
					for _, f := range c.clip {
						if err := es.EncodeFrame(f); err != nil {
							b.Error(err)
							return
						}
					}
					if _, err := es.Close(); err != nil {
						b.Error(err)
					}
				}
			}()
		}
		wg.Wait()
		for _, c := range cells {
			frames += len(c.clip)
		}
	}
	b.ReportMetric(float64(frames)/b.Elapsed().Seconds(), "frames/s")
}

// fullsearchClips are fullsearch_serial's two QCIF clips, Foreman and
// Carphone, 80 frames, seed 7.
var fullsearchClips = sync.OnceValue(func() [][]*frame.Frame {
	return [][]*frame.Frame{
		video.Generate(video.Foreman, frame.QCIF, 80, 7),
		video.Generate(video.Carphone, frame.QCIF, 80, 7),
	}
})

func BenchmarkEncodeSequence_Serial(b *testing.B)            { benchEncodeSequence(b, 1, false) }
func BenchmarkEncodeSequence_Pipeline(b *testing.B)          { benchEncodeSequence(b, 1, true) }
func BenchmarkEncodeSequence_Workers4(b *testing.B)          { benchEncodeSequence(b, 4, false) }
func BenchmarkEncodeSequence_Workers4_Pipeline(b *testing.B) { benchEncodeSequence(b, 4, true) }

// BenchmarkEncodeCIF is the scheduler's regression signal inside the root
// module: ACBM on Carphone CIF at Qp 24, where a macroblock costs ~1 µs and
// any per-macroblock hand-off shows. workers2, workers2+pipeline (the
// parallel_cif shape) and pool2 must beat serial on a two-core host;
// BENCHMARK.json's parallel_cif is the gated form. Re-checked at PR 24
// (-benchtime 100x -cpu 2, three runs alternating with the parent commit's
// on a 2-vCPU VM whose speed drifts 15 % — compare within a run): serial
// 1 400/1 480/1 268 frames/s, workers2 2 320/2 423/1 841, workers2+pipeline
// 2 164/2 099/1 468, pool2 2 307/1 775/1 463; the parent read serial
// 1 425/1 357/1 144, workers2 1 793/1 431/1 463, pool2 1 694/1 438/1 615.
func BenchmarkEncodeCIF(b *testing.B) {
	frames := video.Generate(video.Carphone, frame.CIF, 12, 1)
	pool := codec.NewPool(2)
	defer pool.Close()
	for _, m := range []struct {
		name string
		cfg  codec.Config
	}{
		{"serial", codec.Config{Workers: 1}},
		{"workers2", codec.Config{Workers: 2}},
		{"workers2+pipeline", codec.Config{Workers: 2, Pipeline: true}},
		{"pool2", codec.Config{Pool: pool}},
	} {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := m.cfg
				cfg.Qp, cfg.Searcher = 24, core.New(core.DefaultParams)
				if _, _, err := codec.EncodeSequence(cfg, frames); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(frames))*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
		})
	}
}

// BenchmarkEncodeStream measures the streaming session (packet per frame,
// pipeline overlap) with allocation tracking: the per-frame steady state
// is pinned low by the size-bucketed plane/frame pools and the lazy
// half-pel substrate, which is what keeps concurrent vcodecd sessions
// from thrashing each other's working sets.
func BenchmarkEncodeStream(b *testing.B) {
	frames := video.Generate(video.Carphone, frame.QCIF, 8, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := codec.NewEncodeStream(codec.Config{
			Qp: 16, Searcher: core.New(core.DefaultParams), Workers: 1, Pipeline: true,
		}, func(codec.Packet) error { return nil })
		for _, f := range frames {
			if err := s.EncodeFrame(f); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(frames))*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// BenchmarkInterpolateLazyFirstTouch measures the lazy substrate's cost
// for one diagonal-phase block materialised per macroblock position (the
// worst case: every tile of the phase filled once). The codec no longer
// pays it — prediction bytes come from frame.HalfPelBlock, below — so this
// is the cost of the tiled view as bench/ probes it.
func BenchmarkInterpolateLazyFirstTouch(b *testing.B) {
	_, ref := benchPlanes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ip := frame.InterpolateLazy(ref)
		for y := 0; y+16 <= ref.H; y += 16 {
			for x := 0; x+16 <= ref.W; x += 16 {
				ip.PhaseRect(2*x+1, 2*y+1, 16, 16)
			}
		}
		ip.Release()
	}
}

// BenchmarkHalfPelBlock8x8 measures the codec's prediction fetch — one
// 8×8 block written straight from the padded reference plane — per phase:
// a is the integer copy, b and c average two source rows or columns, d
// four samples.
func BenchmarkHalfPelBlock8x8(b *testing.B) {
	_, tight := benchPlanes()
	ref := frame.NewPlanePadded(tight.W, tight.H, frame.MinInterpApron)
	ref.CopyBlock(0, 0, tight, 0, 0, tight.W, tight.H)
	ref.ReplicateApron()
	var dst [64]uint8
	for ph, name := range []string{"a", "b", "c", "d"} {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(64)
			for i := 0; i < b.N; i++ {
				// Walk the anchors so the source rows are not one hot line.
				x, y := 8*(i%20), 8*(i/20%16)
				frame.HalfPelBlock(dst[:], 8, ref, 2*x+ph&1, 2*y+ph>>1, 8, 8)
			}
		})
	}
}

// BenchmarkForwardQuantizeInter measures the fused inter transform on the
// three kinds of gate survivor at Qp 24 (bound 3540): a block whose eight
// coefficient columns are all provably dead (the row pass is the whole
// cost — most survivors), one with a single live column, and one that
// runs every column, beside the two-call route the fused one replaces.
func BenchmarkForwardQuantizeInter(b *testing.B) {
	const qp = 24
	var dead, mixed, live dct.Block
	for i := range dead {
		x, y := i%8, i/8
		dead[i] = int32((x*5+y*3)%7 - 3)     // low-amplitude texture
		mixed[i] = int32(10*(y%2*2-1) + x%2) // rows alternate: vertical detail only
		live[i] = int32(i*37%255 - 127)
	}
	var levels dct.Block
	for _, tc := range []struct {
		name string
		blk  *dct.Block
		cols int
	}{{"dead", &dead, 0}, {"mixed", &mixed, 1}, {"live", &live, 8}} {
		if _, cols := dct.ForwardQuantizeInter(&levels, tc.blk, qp); cols != tc.cols {
			b.Fatalf("%s block runs %d columns, want %d", tc.name, cols, tc.cols)
		}
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dct.ForwardQuantizeInter(&levels, tc.blk, qp)
			}
		})
	}
	b.Run("unfused", func(b *testing.B) {
		var coef dct.Block
		for i := 0; i < b.N; i++ {
			dct.Forward(&coef, &dead)
			dct.QuantizeInter(&levels, &coef, qp)
		}
	})
}

func BenchmarkDecodeSequence(b *testing.B) {
	frames := video.Generate(video.Carphone, frame.QCIF, 4, 1)
	_, bs, err := codec.EncodeSequence(codec.Config{Qp: 16}, frames)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(bs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Decode(bs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSceneRenderQCIF(b *testing.B) {
	sc := video.Foreman.Scene(1)
	for i := 0; i < b.N; i++ {
		sc.Render(frame.QCIF, i)
	}
}

// Example of regenerating a full paper artifact inside a test binary; kept
// as a benchmark so its cost is opt-in.
func BenchmarkHeadline_Foreman10fps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.RDConfig{
			Profile: video.Foreman, Frames: benchFrames, Decimation: 3, Qps: benchQps,
		}
		curves, err := experiment.RDSweep(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		t1, err := experiment.RunTable1(experiment.Table1Config{
			Profiles: []video.Profile{video.Foreman},
			Frames:   benchFrames, Qps: benchQps, Decimations: []int{3},
		})
		if err != nil {
			b.Fatal(err)
		}
		h, err := experiment.ComputeHeadline(cfg, curves, t1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(h.AvgPoints, "positions/MB")
		b.ReportMetric(100*h.Reduction, "reduction%")
		if i == 0 {
			b.Log(fmt.Sprint(h))
		}
	}
}

// --- Extension benchmarks: systems beyond the paper's core evaluation ------

func BenchmarkAblation_RCFSBM(b *testing.B) {
	ablationEncode(b, func() search.Searcher { return &search.RCFSBM{} })
}

func BenchmarkAblation_FastSearch_NTSS(b *testing.B) {
	ablationEncode(b, func() search.Searcher { return &search.NTSS{} })
}

func BenchmarkAblation_FastSearch_HEXBS(b *testing.B) {
	ablationEncode(b, func() search.Searcher { return &search.HEXBS{} })
}

func BenchmarkAblation_ACBM_Budgeted150(b *testing.B) {
	ablationEncode(b, func() search.Searcher {
		bd, err := core.NewBudgeted(150, core.DefaultParams)
		if err != nil {
			b.Fatal(err)
		}
		return bd
	})
}

// BenchmarkEntropyBackends compares stream sizes of the two entropy modes
// on identical content.
func benchmarkEntropy(b *testing.B, mode codec.EntropyMode) {
	frames := video.Generate(video.Carphone, frame.QCIF, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, bs, err := codec.EncodeSequence(codec.Config{Qp: 12, Entropy: mode}, frames)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(bs)), "bytes")
		b.ReportMetric(stats.AvgPSNRY(), "PSNR-dB")
	}
}

func BenchmarkEntropy_ExpGolomb(b *testing.B)  { benchmarkEntropy(b, codec.EntropyExpGolomb) }
func BenchmarkEntropy_Arithmetic(b *testing.B) { benchmarkEntropy(b, codec.EntropyArith) }

func BenchmarkAblation_SensorNoiseMissAmerica(b *testing.B) {
	// The realism knob: camera noise raises the SAD floor and with it
	// ACBM's complexity on easy content (toward the paper's numbers).
	sc := video.WithSensorNoise(video.MissAmerica.Scene(experiment.DefaultSeed), 2.0, 3)
	frames := make([]*frame.Frame, 16)
	for t := range frames {
		frames[t] = sc.Render(frame.QCIF, t)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acbm := core.New(core.DefaultParams)
		stats, _, err := codec.EncodeSequence(codec.Config{Qp: 16, Searcher: acbm}, frames)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(stats.AvgSearchPointsPerMB(), "positions/MB")
		b.ReportMetric(100*acbm.Stats().FSBMRate(), "critical%")
	}
}

func BenchmarkRateControlEncode(b *testing.B) {
	frames := video.Generate(video.Carphone, frame.QCIF, 12, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, _, err := codec.EncodeSequence(codec.Config{
			Qp: 16, FPS: 30, TargetKbps: 48,
		}, frames)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(stats.BitrateKbps(), "kbit/s")
	}
}
