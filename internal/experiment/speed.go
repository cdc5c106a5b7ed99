package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/search"
	"repro/internal/video"
)

// SpeedConfig configures the encoder speed benchmark: wall-clock per
// frame for each searcher across worker counts, on one synthetic
// sequence (Profile defaults to the zero value, Miss America; acbmbench
// passes Foreman). It is the reproducible counterpart of `go test -bench
// EncodeFrame` that cmd/acbmbench can emit as JSON (BENCH_speed.json),
// so the perf trajectory of the encoder is tracked PR over PR.
type SpeedConfig struct {
	Profile video.Profile
	Size    frame.Size
	Frames  int
	Qp      int
	Seed    uint64
	// GoMaxProcs lists the runtime.GOMAXPROCS values to sweep. Default
	// {1, NumCPU} (deduplicated), so the artifact carries a scaling
	// curve even when nobody asked for one. RunSpeed restores the
	// process value when it returns.
	GoMaxProcs []int
	// Workers lists the codec.Config.Workers values to measure. When
	// empty, each GOMAXPROCS point measures {1, gomaxprocs}
	// (deduplicated), so the matrix separates "more runnable
	// goroutines" from "more OS parallelism".
	Workers []int
	// Repeats is how many times each encode runs; the fastest repeat is
	// reported (default 3).
	Repeats int
}

func (c SpeedConfig) withDefaults() SpeedConfig {
	if c.Size == (frame.Size{}) {
		c.Size = frame.QCIF
	}
	if c.Frames <= 0 {
		c.Frames = 30
	}
	if c.Qp <= 0 {
		c.Qp = 16
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	if len(c.GoMaxProcs) == 0 {
		c.GoMaxProcs = []int{1}
		if n := runtime.NumCPU(); n > 1 {
			c.GoMaxProcs = append(c.GoMaxProcs, n)
		}
	}
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
	return c
}

// workersFor expands the Workers axis for one GOMAXPROCS point.
func (c SpeedConfig) workersFor(gomaxprocs int) []int {
	if len(c.Workers) > 0 {
		return c.Workers
	}
	if gomaxprocs > 1 {
		return []int{1, gomaxprocs}
	}
	return []int{1}
}

// SpeedPoint is one (searcher, gomaxprocs, workers, pipeline)
// measurement. The phase
// split — analysis vs entropy wall clock per frame — tracks the encoder's
// serial fraction: analysis parallelises across workers and overlaps the
// entropy phase in pipeline mode, so the entropy column is the Amdahl
// ceiling the bitstream/entropy optimisations must keep shrinking.
type SpeedPoint struct {
	Searcher string `json:"searcher"`
	// GoMaxProcs is the runtime.GOMAXPROCS in force for this point;
	// KernelISA is the SAD kernel tier that produced it.
	GoMaxProcs int    `json:"gomaxprocs"`
	KernelISA  string `json:"kernel_isa"`
	Workers    int    `json:"workers"`
	// Pipeline reports whether entropy coding of frame n overlapped
	// analysis of frame n+1 (codec.Config.Pipeline).
	Pipeline           bool    `json:"pipeline"`
	NsPerFrame         float64 `json:"ns_per_frame"`
	FPS                float64 `json:"fps"`
	AnalysisNsPerFrame float64 `json:"analysis_ns_per_frame"`
	EntropyNsPerFrame  float64 `json:"entropy_ns_per_frame"`
	PointsPerMB        float64 `json:"points_per_block"`
	PSNRY              float64 `json:"psnr_y_db"`
	// AllocsPerFrame / AllocBytesPerFrame track the encoder's steady-state
	// heap churn (runtime.MemStats deltas across the measured encode):
	// working-set relief for multi-session serving shows up here first.
	AllocsPerFrame     float64 `json:"allocs_per_frame"`
	AllocBytesPerFrame float64 `json:"alloc_bytes_per_frame"`
	// InterpBytesPerFrame is the half-pel sample bytes actually
	// materialised per frame by the lazy tiled interpolation — the
	// bytes-touched metric. An eager full-grid build would pay
	// 3×W×H + apron per reference frame regardless of where search and
	// compensation land.
	InterpBytesPerFrame float64 `json:"interp_bytes_per_frame"`
	// Speedup is relative to this searcher's first measured point
	// (workers=1, pipeline off in the default sweeps).
	Speedup float64 `json:"speedup_vs_first"`
}

// SpeedResult is the full speed report, serialisable to BENCH_speed.json.
// Host makes the artifact self-describing: the CPU model, core count
// and active SAD kernel ISA the points were measured under.
type SpeedResult struct {
	Profile string       `json:"profile"`
	Size    string       `json:"size"`
	Frames  int          `json:"frames"`
	Qp      int          `json:"qp"`
	Host    Host         `json:"host"`
	Points  []SpeedPoint `json:"points"`
}

// RunSpeed measures encode wall-clock for FSBM, PBM and ACBM across the
// GOMAXPROCS × Workers × Pipeline matrix. Bitstreams are identical
// across every cell (the wavefront encoder guarantees it), so the
// numbers are directly comparable; the matrix exists to separate the
// three scaling axes — OS parallelism, wavefront width, and
// analysis/entropy overlap. The process GOMAXPROCS is restored before
// returning.
func RunSpeed(cfg SpeedConfig) (*SpeedResult, error) {
	cfg = cfg.withDefaults()
	frames := video.Generate(cfg.Profile, cfg.Size, cfg.Frames, cfg.Seed)
	res := &SpeedResult{
		Profile: cfg.Profile.String(),
		Size:    fmt.Sprintf("%dx%d", cfg.Size.W, cfg.Size.H),
		Frames:  cfg.Frames,
		Qp:      cfg.Qp,
		Host:    DetectHost(),
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	searchers := []struct {
		name string
		mk   func() search.Searcher
	}{
		{"ACBM", func() search.Searcher { return core.New(core.DefaultParams) }},
		{"FSBM", func() search.Searcher { return &search.FSBM{} }},
		{"PBM", func() search.Searcher { return &search.PBM{} }},
	}
	for _, s := range searchers {
		base := 0.0
		for _, gmp := range cfg.GoMaxProcs {
			runtime.GOMAXPROCS(gmp)
			for _, workers := range cfg.workersFor(gmp) {
				for _, pipeline := range []bool{false, true} {
					var best time.Duration
					var stats *codec.SequenceStats
					var analysis, entropy time.Duration
					var allocs, allocBytes, interpBytes uint64
					for rep := 0; rep < cfg.Repeats; rep++ {
						ecfg := codec.Config{
							Qp: cfg.Qp, Searcher: s.mk(), Workers: workers,
						}
						var ms0, ms1 runtime.MemStats
						runtime.ReadMemStats(&ms0)
						_, ib0 := frame.InterpFillStats()
						start := time.Now()
						st, a, en, err := encodeTimed(ecfg, pipeline, frames)
						el := time.Since(start)
						if err != nil {
							return nil, fmt.Errorf("speed %s gomaxprocs=%d workers=%d pipeline=%v: %w",
								s.name, gmp, workers, pipeline, err)
						}
						runtime.ReadMemStats(&ms1)
						_, ib1 := frame.InterpFillStats()
						if rep == 0 || el < best {
							best, stats, analysis, entropy = el, st, a, en
							allocs = ms1.Mallocs - ms0.Mallocs
							allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
							interpBytes = ib1 - ib0
						}
					}
					perFrame := float64(best.Nanoseconds()) / float64(cfg.Frames)
					pt := SpeedPoint{
						Searcher:            s.name,
						GoMaxProcs:          gmp,
						KernelISA:           metrics.ActiveKernelISA(),
						Workers:             workers,
						Pipeline:            pipeline,
						NsPerFrame:          perFrame,
						FPS:                 1e9 / perFrame,
						AnalysisNsPerFrame:  float64(analysis.Nanoseconds()) / float64(cfg.Frames),
						EntropyNsPerFrame:   float64(entropy.Nanoseconds()) / float64(cfg.Frames),
						PointsPerMB:         stats.AvgSearchPointsPerMB(),
						PSNRY:               stats.AvgPSNRY(),
						AllocsPerFrame:      float64(allocs) / float64(cfg.Frames),
						AllocBytesPerFrame:  float64(allocBytes) / float64(cfg.Frames),
						InterpBytesPerFrame: float64(interpBytes) / float64(cfg.Frames),
					}
					if base == 0 {
						base = perFrame
					}
					pt.Speedup = base / perFrame
					res.Points = append(res.Points, pt)
				}
			}
		}
	}
	return res, nil
}

// encodeTimed runs one encode and returns the stats plus the per-phase
// wall clock (analysis vs entropy) the encoder accumulated.
func encodeTimed(cfg codec.Config, pipeline bool, frames []*frame.Frame) (*codec.SequenceStats, time.Duration, time.Duration, error) {
	cfg.Pipeline = pipeline
	e := codec.NewEncoder(cfg)
	for i, f := range frames {
		if _, err := e.EncodeFrame(f); err != nil {
			e.Bitstream() // joins the writer goroutine before bailing
			return nil, 0, 0, fmt.Errorf("frame %d: %w", i, err)
		}
	}
	e.Bitstream()
	a, en := e.PhaseTimes()
	return e.Stats(), a, en, nil
}

// WriteJSON writes the result to path (pretty-printed, trailing newline).
func (r *SpeedResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// FormatSpeed renders the result as the aligned text table acbmbench
// prints alongside (or instead of) the JSON artifact.
func FormatSpeed(r *SpeedResult) string {
	out := fmt.Sprintf("encoder speed: %s %s, %d frames, Qp %d\n",
		r.Profile, r.Size, r.Frames, r.Qp)
	out += fmt.Sprintf("host: %s (%d cpus), kernel ISA %s (of %v)\n",
		r.Host.CPUModel, r.Host.NumCPU, r.Host.KernelISA, r.Host.KernelISAs)
	out += fmt.Sprintf("%-6s %4s %8s %5s %12s %8s %12s %12s %10s %9s %9s %10s %10s %8s\n",
		"algo", "gmp", "workers", "pipe", "ns/frame", "fps", "analysis/fr", "entropy/fr", "points/MB", "PSNR-Y",
		"allocs/fr", "kB-alloc/fr", "kB-interp/fr", "speedup")
	for _, p := range r.Points {
		pipe := "off"
		if p.Pipeline {
			pipe = "on"
		}
		out += fmt.Sprintf("%-6s %4d %8d %5s %12.0f %8.2f %12.0f %12.0f %10.1f %9.2f %9.1f %10.1f %10.1f %7.2fx\n",
			p.Searcher, p.GoMaxProcs, p.Workers, pipe, p.NsPerFrame, p.FPS,
			p.AnalysisNsPerFrame, p.EntropyNsPerFrame, p.PointsPerMB, p.PSNRY,
			p.AllocsPerFrame, p.AllocBytesPerFrame/1024, p.InterpBytesPerFrame/1024, p.Speedup)
	}
	return out
}
