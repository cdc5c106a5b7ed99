package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/video"
)

// Table1Config configures the complexity experiment of Table 1: the
// average number of candidate positions ACBM searches per macroblock, per
// sequence, frame rate and quantiser.
type Table1Config struct {
	Profiles    []video.Profile
	Size        frame.Size
	Frames      int   // sequence length at 30 fps (default 60)
	Qps         []int // default DefaultQps (30..16)
	Decimations []int // temporal subsampling factors; default {1, 3} = 30/10 fps
	Params      core.Params
	Seed        uint64
}

func (c Table1Config) withDefaults() Table1Config {
	if len(c.Profiles) == 0 {
		c.Profiles = video.Profiles
	}
	if len(c.Decimations) == 0 {
		c.Decimations = []int{1, 3}
	}
	d := RDConfig{Size: c.Size, Frames: c.Frames, Qps: c.Qps, Params: c.Params, Seed: c.Seed}.withDefaults()
	c.Size, c.Frames, c.Qps, c.Params, c.Seed = d.Size, d.Frames, d.Qps, d.Params, d.Seed
	return c
}

// Table1Cell is one entry of Table 1 plus its decision breakdown.
type Table1Cell struct {
	AvgPoints float64 // the paper's reported number
	FSBMRate  float64 // fraction of critical blocks
}

// Table1Result indexes cells by [profile][decimation][qp].
type Table1Result struct {
	Config Table1Config
	Cells  map[video.Profile]map[int]map[int]Table1Cell
}

// RunTable1 reproduces Table 1 by encoding every (sequence, fps, Qp)
// combination with the ACBM motion estimator and averaging its search
// complexity per macroblock.
func RunTable1(cfg Table1Config) (*Table1Result, error) {
	cfg = cfg.withDefaults()
	res := &Table1Result{
		Config: cfg,
		Cells:  make(map[video.Profile]map[int]map[int]Table1Cell),
	}
	for _, prof := range cfg.Profiles {
		res.Cells[prof] = make(map[int]map[int]Table1Cell)
		for _, dec := range cfg.Decimations {
			stats, err := sweep(RDConfig{Profile: prof, Size: cfg.Size, Frames: cfg.Frames, Decimation: dec,
				Qps: cfg.Qps, Params: cfg.Params, Seed: cfg.Seed}, DefaultAlgorithms()[:1])
			if err != nil {
				return nil, fmt.Errorf("experiment: %v dec %d: %w", prof, dec, err)
			}
			res.Cells[prof][dec] = make(map[int]Table1Cell)
			for i, qp := range cfg.Qps {
				easy, good, critical := stats[i].DecisionMix()
				res.Cells[prof][dec][qp] = Table1Cell{
					AvgPoints: stats[i].AvgSearchPointsPerMB(),
					FSBMRate:  core.Stats{Blocks: easy + good + critical, CriticalCnt: critical}.FSBMRate(),
				}
			}
		}
	}
	return res, nil
}

// Cell returns one entry.
func (r *Table1Result) Cell(p video.Profile, dec, qp int) (Table1Cell, bool) {
	c, ok := r.Cells[p][dec][qp] // a missing level reads as a nil map
	return c, ok
}

// MaxReduction returns the largest complexity reduction relative to FSBM's
// 969 positions across all cells — the paper's "up to 95%" headline.
func (r *Table1Result) MaxReduction() float64 {
	best := 0.0
	for _, byDec := range r.Cells {
		for _, byQp := range byDec {
			for _, cell := range byQp {
				red := 1 - cell.AvgPoints/FSBMPoints
				if red > best {
					best = red
				}
			}
		}
	}
	return best
}

// MeanPoints averages the table for one profile and decimation across Qp.
func (r *Table1Result) MeanPoints(p video.Profile, dec int) float64 {
	byQp := r.Cells[p][dec]
	if len(byQp) == 0 {
		return 0
	}
	sum := 0.0
	for _, cell := range byQp {
		sum += cell.AvgPoints
	}
	return sum / float64(len(byQp))
}
