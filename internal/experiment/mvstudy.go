package experiment

import (
	"cmp"
	"fmt"
	"math"
	"sort"

	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/mvfield"
	"repro/internal/search"
	"repro/internal/video"
)

// MVStudyConfig configures the Fig. 4 preliminary study (§3.1): a sequence
// with perfectly known global motion is searched with FSBM and every
// block's (Intra_SAD, SAD_deviation) pair is recorded together with the
// motion vector error.
type MVStudyConfig struct {
	Profiles []video.Profile // source frames for the study (default: all)
	Size     frame.Size      // default QCIF
	MVs      []mvfield.MV    // known global displacements (default: the nine of video.DefaultGlobalMVs)
	Seed     uint64
}

func (c MVStudyConfig) withDefaults() MVStudyConfig {
	if len(c.Profiles) == 0 {
		c.Profiles = video.Profiles
	}
	c.Size = cmp.Or(c.Size, frame.QCIF)
	if len(c.MVs) == 0 {
		c.MVs = video.DefaultGlobalMVs
	}
	c.Seed = cmp.Or(c.Seed, DefaultSeed)
	return c
}

// ErrClasses is the number of motion vector error classes in Fig. 4:
// 0, 1, 2, 3, 4 and ≥5 pels.
const ErrClasses = 6

// BlockSample is one scatter point of Fig. 4.
type BlockSample struct {
	Profile   video.Profile
	IntraSAD  int
	Deviation int64
	SADMin    int
	Err       int // full-pel error, clamped to 5 meaning "≥5"
}

// ClassSummary aggregates one error class.
type ClassSummary struct {
	Count         int
	MeanIntraSAD  float64
	MeanDeviation float64
	MeanSADMin    float64
}

// MVStudyResult holds the study's scatter data and per-class summaries.
type MVStudyResult struct {
	Samples []BlockSample
	Classes [ErrClasses]ClassSummary
}

// RunMVStudy reproduces the Fig. 4 experiment.
func RunMVStudy(cfg MVStudyConfig) (*MVStudyResult, error) {
	cfg = cfg.withDefaults()
	res := &MVStudyResult{}
	fsbm := &search.FSBM{NoHalfPel: true} // true vectors are full-pel
	for _, prof := range cfg.Profiles {
		ref := video.ReferenceFrame(prof, cfg.Size, cfg.Seed)
		seq, err := video.GlobalMotionSequence(ref, cfg.MVs)
		if err != nil {
			return nil, fmt.Errorf("experiment: %v: %w", prof, err)
		}
		for i, trueMV := range cfg.MVs {
			prev, cur := seq[i], seq[i+1]
			// The content of cur moved by trueMV relative to prev, so the
			// block-matching vector is −trueMV.
			wantMV := trueMV.Neg()
			for by := 0; by+16 <= cfg.Size.H; by += 16 {
				for bx := 0; bx+16 <= cfg.Size.W; bx += 16 {
					var dev metrics.Deviation
					in := &search.Input{
						Cur: cur, Ref: prev,
						BX: bx, BY: by, W: 16, H: 16,
						Range: DefaultRange, Qp: 16,
						Collect: &dev,
					}
					r := fsbm.Search(in)
					e := r.MV.ErrFullPel(wantMV)
					if e > 5 {
						e = 5
					}
					res.Samples = append(res.Samples, BlockSample{
						Profile:   prof,
						IntraSAD:  metrics.IntraSAD(cur, bx, by, 16, 16),
						Deviation: dev.Value(),
						SADMin:    dev.Min(),
						Err:       e,
					})
				}
			}
		}
	}
	res.summarize()
	return res, nil
}

func (r *MVStudyResult) summarize() {
	var cnt [ErrClasses]int
	var intra, dev, sadmin [ErrClasses]float64
	for _, s := range r.Samples {
		cnt[s.Err]++
		intra[s.Err] += float64(s.IntraSAD)
		dev[s.Err] += float64(s.Deviation)
		sadmin[s.Err] += float64(s.SADMin)
	}
	for c := 0; c < ErrClasses; c++ {
		r.Classes[c] = ClassSummary{Count: cnt[c]}
		if cnt[c] > 0 {
			r.Classes[c].MeanIntraSAD = intra[c] / float64(cnt[c])
			r.Classes[c].MeanDeviation = dev[c] / float64(cnt[c])
			r.Classes[c].MeanSADMin = sadmin[c] / float64(cnt[c])
		}
	}
}

// TrueVectorRate returns the fraction of blocks with error 0.
func (r *MVStudyResult) TrueVectorRate() float64 {
	if len(r.Samples) == 0 {
		return 0
	}
	return float64(r.Classes[0].Count) / float64(len(r.Samples))
}

// HighTextureTrueRate splits blocks at the median Intra_SAD and returns
// the err=0 fraction within the high- and low-texture halves. The paper's
// first conclusion is highRate > lowRate.
func (r *MVStudyResult) HighTextureTrueRate() (highRate, lowRate float64) {
	if len(r.Samples) == 0 {
		return 0, 0
	}
	med := medianIntraSAD(r.Samples)
	var hi, hiTrue, lo, loTrue int
	for _, s := range r.Samples {
		if s.IntraSAD > med {
			hi++
			if s.Err == 0 {
				hiTrue++
			}
		} else {
			lo++
			if s.Err == 0 {
				loTrue++
			}
		}
	}
	if hi > 0 {
		highRate = float64(hiTrue) / float64(hi)
	}
	if lo > 0 {
		lowRate = float64(loTrue) / float64(lo)
	}
	return highRate, lowRate
}

// TextureMargin is the err=0 rate of the high-texture half of the blocks
// minus that of the low-texture half. §3.1's first conclusion from Fig. 4
// (high-texture blocks are mostly assigned true motion vectors) holds
// when it is positive.
func (r *MVStudyResult) TextureMargin() float64 {
	high, low := r.HighTextureTrueRate()
	return high - low
}

// DeviationMargin is the mean SAD_deviation of the true-vector blocks
// minus that of the erroneous ones (+Inf when no block is erroneous).
// §3.1's second conclusion (true-vector blocks show the higher
// SAD_deviation) holds when it is positive.
func (r *MVStudyResult) DeviationMargin() float64 {
	var errCnt int
	var errDev float64
	for c := 1; c < ErrClasses; c++ {
		errCnt += r.Classes[c].Count
		errDev += r.Classes[c].MeanDeviation * float64(r.Classes[c].Count)
	}
	if errCnt == 0 {
		return math.Inf(1)
	}
	return r.Classes[0].MeanDeviation - errDev/float64(errCnt)
}

func medianIntraSAD(samples []BlockSample) int {
	vals := make([]int, len(samples))
	for i, s := range samples {
		vals[i] = s.IntraSAD
	}
	sort.Ints(vals)
	return vals[len(vals)/2]
}
