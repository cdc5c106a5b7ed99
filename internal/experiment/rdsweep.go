package experiment

import (
	"cmp"
	"fmt"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/ratedist"
	"repro/internal/search"
	"repro/internal/video"
)

// RDConfig configures one rate-distortion sweep (one panel of Fig. 5 or
// Fig. 6): a sequence at a frame rate, encoded across a Qp range with each
// competing motion estimator.
type RDConfig struct {
	Profile    video.Profile
	Size       frame.Size
	Frames     int // at 30 fps, before decimation
	Decimation int // 1 = 30 fps (Fig. 5), 3 = 10 fps (Fig. 6)
	Qps        []int
	Params     core.Params
	Seed       uint64
}

func (c RDConfig) withDefaults() RDConfig {
	c.Size = cmp.Or(c.Size, frame.QCIF)
	if c.Frames <= 0 {
		c.Frames = DefaultFrames
	}
	if c.Decimation <= 0 {
		c.Decimation = 1
	}
	if len(c.Qps) == 0 {
		c.Qps = DefaultQps
	}
	c.Params = cmp.Or(c.Params, core.DefaultParams)
	c.Seed = cmp.Or(c.Seed, DefaultSeed)
	return c
}

// AlgorithmSpec names a motion estimator factory for a sweep. A fresh
// searcher is built per encode so per-sequence state (ACBM statistics,
// motion fields) never leaks between runs.
type AlgorithmSpec struct {
	Name string
	New  func(p core.Params) search.Searcher
}

// DefaultAlgorithms returns the three algorithms the paper compares:
// ACBM, FSBM and PBM.
func DefaultAlgorithms() []AlgorithmSpec {
	return []AlgorithmSpec{
		{Name: "ACBM", New: func(p core.Params) search.Searcher { return core.New(p) }},
		{Name: "FSBM", New: func(core.Params) search.Searcher { return &search.FSBM{} }},
		{Name: "PBM", New: func(core.Params) search.Searcher { return &search.PBM{} }},
	}
}

// RDSweep encodes the configured sequence once per (algorithm, Qp) and
// returns one rate-distortion curve per algorithm, each sorted by rate.
func RDSweep(cfg RDConfig, algs []AlgorithmSpec) ([]ratedist.Curve, error) {
	cfg = cfg.withDefaults()
	if len(algs) == 0 {
		algs = DefaultAlgorithms()
	}
	stats, err := sweep(cfg, algs)
	if err != nil {
		return nil, err
	}
	curves := make([]ratedist.Curve, len(algs))
	for i, alg := range algs {
		curves[i].Name = alg.Name
		for j, qp := range cfg.Qps {
			st := stats[i*len(cfg.Qps)+j]
			curves[i].Points = append(curves[i].Points, ratedist.Point{RateKbps: st.BitrateKbps(), PSNR: st.AvgPSNRY(), Qp: qp})
		}
		curves[i].Sort()
	}
	return curves, nil
}

// sweep encodes cfg's sequence once per (algorithm, Qp) and returns the
// statistics in algorithm-major order.
func sweep(cfg RDConfig, algs []AlgorithmSpec) ([]*codec.SequenceStats, error) {
	cfg = cfg.withDefaults()
	base := Frames(cfg.Profile, cfg.Size, cfg.Frames, cfg.Seed)
	frames := video.Decimate(base, cfg.Decimation)
	if len(frames) < 2 {
		return nil, fmt.Errorf("experiment: decimation %d leaves %d frames", cfg.Decimation, len(frames))
	}
	stats := make([]*codec.SequenceStats, len(algs)*len(cfg.Qps))
	err := forEachIndex(len(stats), func(j int) error {
		alg := algs[j/len(cfg.Qps)]
		qp := cfg.Qps[j%len(cfg.Qps)]
		st, _, err := codec.EncodeSequence(codec.Config{
			Qp:          qp,
			SearchRange: DefaultRange,
			Searcher:    alg.New(cfg.Params),
			FPS:         30.0 / float64(cfg.Decimation),
		}, frames)
		if err != nil {
			return fmt.Errorf("experiment: %s qp %d: %w", alg.Name, qp, err)
		}
		stats[j] = st
		return nil
	})
	return stats, err
}

// FindCurve returns the curve with the given name.
func FindCurve(curves []ratedist.Curve, name string) (*ratedist.Curve, error) {
	for i := range curves {
		if curves[i].Name == name {
			return &curves[i], nil
		}
	}
	return nil, fmt.Errorf("experiment: no curve named %q", name)
}
