// Package codec implements the hybrid DPCM/DCT video codec substrate the
// paper's evaluation runs on: an H.263-style encoder (16×16 macroblocks,
// 8×8 DCT, H.263 uniform quantiser, half-pel motion compensation, median
// MV prediction, intra/inter/skip macroblock modes) with a pluggable
// motion estimator, plus the matching decoder.
//
// The bitstream is a compact custom format over the internal/entropy
// layer; it is fully decodable and the decoder's output is bit-identical
// to the encoder's reconstruction loop, which the tests verify. Rates and
// PSNRs measured here stand in for the paper's TMN5 (H.263) numbers — see
// DESIGN.md for the substitution rationale.
package codec

import (
	"fmt"
	"runtime"

	"repro/internal/dct"
	"repro/internal/frame"
	"repro/internal/search"
)

// Magic identifies the bitstream format ("AB01" = ACBM repro v1).
const Magic = 0x41423031

// DefaultIntraBias is the TMN-style margin used in the inter/intra mode
// decision: intra wins when IntraSAD < interSAD − DefaultIntraBias.
const DefaultIntraBias = 500

// DefaultSearchRange is the paper's p=15.
const DefaultSearchRange = 15

// Config controls one encode.
type Config struct {
	// Qp is the H.263 quantiser parameter (1..31).
	Qp int
	// SearchRange is the motion search range p in full pels (default 15).
	SearchRange int
	// Searcher performs motion estimation (default: full search).
	Searcher search.Searcher
	// IntraBias is the inter/intra decision margin (default 500).
	IntraBias int
	// FPS is the source frame rate, used only for bitrate reporting.
	FPS float64
	// IntraPeriod, when positive, forces an I-frame every IntraPeriod
	// frames (GOP structure for error resilience / channel adaptation).
	// 0 means only the first frame is intra, as in the paper's setup.
	IntraPeriod int
	// Entropy selects the entropy backend: baseline Exp-Golomb codes
	// (default) or adaptive binary arithmetic coding (the counterpart of
	// H.263 Annex E).
	Entropy EntropyMode
	// TargetKbps, when positive, enables frame-level rate control: the
	// quantiser is servoed around Config.Qp so the output rate tracks
	// this target at Config.FPS. 0 keeps the constant Qp of the paper's
	// experiments. The controller is frame-lagged (see rateController):
	// each frame's quantiser is decided before its analysis from the
	// actual sizes of all fully written frames plus a predicted size for
	// the one frame in flight, so rate control composes with Workers,
	// Pipeline and Pool — same bits in every mode, full parallelism.
	TargetKbps float64
	// Pipeline runs phase 2 on a writer goroutine, overlapping the serial
	// entropy coding of frame n with the analysis of frame n+1 (one frame
	// in flight; see Encoder for the contract). Every driver honours it;
	// EncodeFrame then returns when analysis is done, and the encoder
	// owns the goroutine until Bitstream or Close. The bytes and
	// statistics are identical to an inline encode for every Workers
	// value, with or without rate control (the frame-lag controller never
	// waits on the in-flight frame's bits).
	Pipeline bool
	// Pool, when non-nil, runs macroblock analysis under this shared
	// pool's slots: the session goroutine is lane 0 of every frame and
	// holds one of the pool's Size slots for each macroblock row it runs.
	// A frame takes one lane per 64 macroblocks, up to Size (parallel.go,
	// laneMBs); its helper lanes are row-task chains on the pool, each
	// holding a slot while it runs a row. So all sessions sharing the pool
	// together run at most Size rows at once. This is the multi-session
	// serving mode (cmd/vcodecd): N concurrent encoder sessions interleave
	// on one machine-sized pool at macroblock-row granularity instead of
	// oversubscribing the host N times, and a QCIF session analyses on its
	// own goroutine with no hand-off. The wavefront, its invariants and the
	// output bits are those of every other configuration (one executor
	// serves them all); Workers is ignored while Pool is set. The Searcher
	// must implement search.Forker (all searchers this module provides
	// do); otherwise the pool is dropped and the session analyses
	// sequentially on its own goroutine.
	Pool *Pool
	// Priority is the session's scheduling class on the pool its rows run
	// on — Pool, or the process-default pool behind Workers>1: live (the
	// zero value) rows are granted slots ahead of batch rows, so a live
	// session preempts batch sessions at the row boundary while batch
	// retains an anti-starvation share (see Pool). Priority never reaches
	// the analysis results, so it cannot change a single output bit.
	// Without effect on a session that analyses on one lane outside a
	// Pool.
	Priority Priority
	// Observer, when non-nil, receives per-frame phase timings (analysis
	// wall clock, shared-pool queue wait, entropy wall clock, encoded
	// size) as the encode progresses — the serving layer's flight
	// recorder attaches here; see FrameObserver for the callback and
	// concurrency contract. Observation is strictly one-way: the codec
	// never reads anything back from the Observer, so attaching one
	// cannot change a single output bit, and the nil path is exactly the
	// pre-observer code (the alloc-ceiling and overhead-guard tests pin
	// both properties).
	Observer FrameObserver
	// Workers bounds how many lanes analyse macroblocks concurrently
	// (motion estimation, mode decision, transform/quantisation and
	// reconstruction; a lane runs whole macroblock rows, each row
	// trailing the one above by two macroblocks — see parallel.go.
	// Entropy coding stays serial, so the bitstream and all statistics
	// are bit-identical for every worker count). 0 selects GOMAXPROCS, 1
	// analyses inline on the caller. Above 1 the calling goroutine is
	// lane 0 and the other lanes are row-task chains on a process-lifetime
	// default pool — GOMAXPROCS workers, started on first use, shared by
	// every session that names no Pool — so no goroutine is started per
	// frame or per session, and a frame runs on at most min(Workers, that
	// pool's size, its rows) lanes: at most, because a pool lane helps only
	// when a worker is free. The caller never waits for one that is not;
	// behind a busy pool it runs every row itself. Parallel analysis
	// requires the Searcher to implement search.Forker — its frame-granular
	// fork/join protocol runs at every worker count, so stateful searchers
	// (core.Budgeted) stay deterministic; searchers without it are
	// clamped to 1.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.SearchRange <= 0 {
		c.SearchRange = DefaultSearchRange
	}
	if c.Searcher == nil {
		c.Searcher = &search.FSBM{}
	}
	if c.IntraBias == 0 {
		c.IntraBias = DefaultIntraBias
	}
	if c.FPS <= 0 {
		c.FPS = 30
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if _, ok := c.Searcher.(search.Forker); !ok {
		// A searcher that cannot fork cannot be scheduled across workers
		// or a shared pool; it analyses sequentially on the session's own
		// goroutine. Every searcher this module provides implements
		// search.Forker, so this only guards external implementations.
		c.Workers = 1
		c.Pool = nil
	}
	c.Qp = dct.ClampQp(c.Qp)
	return c
}

// FrameType distinguishes intra and predicted frames.
type FrameType int

const (
	// IFrame is intra-coded (no reference).
	IFrame FrameType = iota
	// PFrame is predicted from the previous reconstructed frame.
	PFrame
)

// String implements fmt.Stringer.
func (t FrameType) String() string {
	if t == IFrame {
		return "I"
	}
	return "P"
}

// FrameStats reports one encoded frame.
type FrameStats struct {
	Type         FrameType
	Qp           int     // quantiser used for this frame
	Bits         int     // bits this frame contributed to the stream
	PSNRY        float64 // luma PSNR of the reconstruction vs the source
	PSNRCb       float64
	PSNRCr       float64
	SearchPoints int // candidate positions evaluated by motion search
	Macroblocks  int
	IntraMBs     int
	InterMBs     int
	SkipMBs      int
	// The adaptive searcher's decision mix over this frame's macroblocks
	// (search.Result.Class; all zero for searchers that do not classify):
	// ACBM accepted the predictive vector on Easy (condition 1) and
	// GoodMatch (condition 2) blocks and ran the full search on Critical
	// ones. Summed in phase 2 from per-macroblock results, like every
	// count here, so identical across Workers × Pipeline × Pool.
	EasyBlocks      int
	GoodMatchBlocks int
	CriticalBlocks  int
	// The residual path's traffic over the 8×8 blocks of skip and inter
	// macroblocks (six each): GatedBlocks were proved all-zero by the
	// zero-block gate from their residual energy and never transformed;
	// TransformedBlocks ran the forward DCT and quantiser; RowOnlyBlocks,
	// a subset of those, were settled by its row pass — every coefficient
	// column proved dead by the same bound, no column pass run;
	// CodedBlocks, a disjoint subset, kept a non-zero level and are in the
	// stream. Gated + Transformed = 6 · (SkipMBs + InterMBs).
	GatedBlocks       int
	TransformedBlocks int
	RowOnlyBlocks     int
	CodedBlocks       int
}

// SequenceStats aggregates an encoded sequence.
type SequenceStats struct {
	Frames []FrameStats
	FPS    float64
}

// AvgPSNRY returns the mean luma PSNR across all frames.
func (s *SequenceStats) AvgPSNRY() float64 {
	if len(s.Frames) == 0 {
		return 0
	}
	var sum float64
	for _, f := range s.Frames {
		sum += f.PSNRY
	}
	return sum / float64(len(s.Frames))
}

// TotalBits returns the bitstream length in bits.
func (s *SequenceStats) TotalBits() int {
	total := 0
	for _, f := range s.Frames {
		total += f.Bits
	}
	return total
}

// BitrateKbps returns the average rate in kbit/s at the configured frame
// rate, the x-axis of the paper's Figs. 5 and 6.
func (s *SequenceStats) BitrateKbps() float64 {
	if len(s.Frames) == 0 {
		return 0
	}
	fps := s.FPS
	if fps <= 0 {
		fps = 30
	}
	return float64(s.TotalBits()) * fps / float64(len(s.Frames)) / 1000
}

// DecisionMix returns the sequence totals of the adaptive searcher's
// per-frame class counts — core.ACBM.Stats' Easy/GoodMatch/CriticalCnt as
// the stream's statistics carry them.
func (s *SequenceStats) DecisionMix() (easy, goodMatch, critical int) {
	for _, f := range s.Frames {
		easy += f.EasyBlocks
		goodMatch += f.GoodMatchBlocks
		critical += f.CriticalBlocks
	}
	return easy, goodMatch, critical
}

// AvgSearchPointsPerMB returns the mean candidate positions per macroblock
// over P-frames — the paper's Table 1 metric.
func (s *SequenceStats) AvgSearchPointsPerMB() float64 {
	pts, mbs := 0, 0
	for _, f := range s.Frames {
		if f.Type != PFrame {
			continue
		}
		pts += f.SearchPoints
		mbs += f.Macroblocks
	}
	if mbs == 0 {
		return 0
	}
	return float64(pts) / float64(mbs)
}

// validateSize checks the frame format is codable (positive, 16-divisible
// luma).
func validateSize(s frame.Size) error {
	if s.W <= 0 || s.H <= 0 {
		return fmt.Errorf("codec: frame size %v is not positive", s)
	}
	if s.W%16 != 0 || s.H%16 != 0 {
		return fmt.Errorf("codec: luma size %v not divisible into 16x16 macroblocks", s)
	}
	return nil
}
