package core

import (
	"fmt"
	"math"

	"repro/internal/search"
)

// Budgeted is a complexity-controlled ACBM: it adjusts the α/γ thresholds
// with a multiplicative feedback loop so the running average of search
// positions per macroblock tracks a target. This realises the paper's
// claim that the parameters form a knob "to control, depending on the
// potential application, the weight given to video quality or
// computational load" — here the knob is servoed automatically, which is
// what a rate/complexity-constrained product encoder needs (the paper's
// "variable bandwidth channel conditions").
//
// The controller is frame-granular so it composes with the wavefront
// encoder's worker model (search.Forker):
//
//   - The budget *decision* — the scaled α/γ thresholds — is frozen at
//     frame start: Fork snapshots the current scale, so every macroblock
//     of a frame is classified under the same thresholds no matter which
//     worker analyses it.
//   - The point *accounting* is per worker: each fork counts the
//     positions its blocks consumed, and Join merges the counts
//     additively (order-independent sums).
//   - The *servo* runs once per frame, when the last fork joins: one
//     multiplicative threshold step proportional to the frame's measured
//     points-per-block overshoot. Because its input is a sum over the
//     whole frame, the step — and therefore every later decision — is
//     identical for every worker count, shared pool or pipeline setting;
//     bitstreams are byte-identical across all of them.
//
// Calling Search directly on a Budgeted (outside the encoder's fork/join
// protocol) makes the block a frame of its own: one fork, one search, one
// join, one servo step.
type Budgeted struct {
	// Target is the desired long-run average of candidate positions per
	// block. Must be positive.
	Target float64
	// Base supplies the initial thresholds (DefaultParams if zero).
	Base Params

	inner ACBM
	scale float64 // multiplies α and γ; larger = fewer critical blocks

	// Per-frame fork/join accounting. outstanding counts live forks; the
	// frame totals accumulate across Joins and feed one servo step when
	// the count returns to zero.
	outstanding int
	framePts    int64
	frameBlocks int

	// baseTarget remembers the constructed Target so ScaleBudget is
	// absolute (scale × original), not cumulative.
	baseTarget float64
}

// NewBudgeted returns a controller targeting the given positions/MB, which
// must be finite and positive.
func NewBudgeted(target float64, base Params) (*Budgeted, error) {
	if !(target > 0) || math.IsInf(target, 1) {
		return nil, fmt.Errorf("core: budget target must be finite and positive, got %g", target)
	}
	if base == (Params{}) {
		base = DefaultParams
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	b := &Budgeted{Target: target, Base: base, scale: 1, baseTarget: target}
	b.apply()
	return b, nil
}

// ScaleBudget retargets the controller to scale × the constructed
// budget (a QoS degradation shrinks it, restoration brings it back; the
// call is absolute, so repeated actuations do not compound). It must be
// called between frames — outside the Fork/Join window — where it is
// safe by the same argument that makes the servo frame-granular: each
// frame's thresholds are frozen at Fork, and the servo reads Target only
// when the last fork joins. Non-positive scales are ignored.
func (b *Budgeted) ScaleBudget(scale float64) {
	if scale <= 0 {
		return
	}
	if b.baseTarget <= 0 { // literal-constructed Budgeted: adopt Target
		b.baseTarget = b.Target
	}
	b.Target = b.baseTarget * scale
}

// Name implements search.Searcher.
func (b *Budgeted) Name() string { return "ACBM-budget" }

// Stats exposes the merged ACBM statistics (fork statistics are added
// back in Join).
func (b *Budgeted) Stats() Stats { return b.inner.Stats() }

// Scale returns the current threshold multiplier (diagnostic).
func (b *Budgeted) Scale() float64 { return b.scale }

// apply rebuilds the inner ACBM parameters from Base and scale.
func (b *Budgeted) apply() { b.inner.Params = b.Base.scaled(b.scale) }

// adjust applies one multiplicative servo step from a measured
// points-per-block average. The step is proportional to the overshoot
// (√(avg/Target), clamped) rather than a fixed factor: the frame-granular
// controller updates far less often than the old per-32-blocks loop, so
// it must cover the same ground in fewer steps. Over budget reacts up to
// ×4 per update (the budget is the hard constraint); under budget tightens
// at most ÷2 (spending quality can afford to be gradual).
func (b *Budgeted) adjust(avg float64) {
	if avg >= b.Target*0.9 && avg <= b.Target*1.1 {
		return // dead zone
	}
	r := math.Sqrt(avg / b.Target)
	if r > 4 {
		r = 4
	}
	if r < 0.5 {
		r = 0.5
	}
	b.scale *= r
	if b.scale > 64 {
		b.scale = 64
	}
	if b.scale < 1.0/64 {
		b.scale = 1.0 / 64
	}
	b.apply()
}

// Search implements search.Searcher for direct (non-forked) use: the
// block is a one-block frame of the fork/join protocol, so the servo
// steps after every call.
func (b *Budgeted) Search(in *search.Input) search.Result {
	f := b.Fork()
	res := f.Search(in)
	b.Join(f)
	return res
}

// budgetedFork is one worker's view of a Budgeted for one frame: an ACBM
// with the thresholds frozen at fork time plus private point accounting.
type budgetedFork struct {
	inner  ACBM
	pts    int64
	blocks int
}

// Name implements search.Searcher.
func (f *budgetedFork) Name() string { return "ACBM-budget" }

// Search implements search.Searcher.
func (f *budgetedFork) Search(in *search.Input) search.Result {
	res := f.inner.Search(in)
	f.pts += int64(res.Points)
	f.blocks++
	return res
}

// Fork implements search.Forker: the returned instance snapshots the
// current thresholds — the frame's frozen budget decision — and owns its
// own point accounting.
func (b *Budgeted) Fork() search.Searcher {
	b.outstanding++
	return &budgetedFork{inner: ACBM{Params: b.inner.Params}}
}

// Join implements search.Forker: fork statistics and consumed points
// merge additively, and when the last outstanding fork joins — the
// frame's analysis is complete — the α/γ servo steps once from the
// frame's aggregate points-per-block.
func (b *Budgeted) Join(s search.Searcher) {
	f, ok := s.(*budgetedFork)
	if !ok {
		return
	}
	b.inner.stats.Add(f.inner.stats)
	b.framePts += f.pts
	b.frameBlocks += f.blocks
	b.outstanding--
	if b.outstanding > 0 {
		return
	}
	if b.frameBlocks > 0 {
		b.adjust(float64(b.framePts) / float64(b.frameBlocks))
	}
	b.framePts, b.frameBlocks = 0, 0
}
