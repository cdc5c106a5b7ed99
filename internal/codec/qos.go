package codec

import (
	"sync/atomic"

	"repro/internal/search"
)

// budgetScaler is implemented by searchers whose complexity budget can be
// rescaled between frames (core.Budgeted). Declared structurally so codec
// does not depend on core.
type budgetScaler interface {
	ScaleBudget(scale float64)
}

// Actuation is one quality-of-service adjustment to a running stream —
// the degradation (or restoration) step a serving-layer QoS controller
// applies when load changes. It rides the frame-lag control contract:
// everything here decides analysis inputs only, is applied on the
// session goroutine at the start of the next EncodeFrame (the same point
// the rate controller's planned quantiser is read), and never touches
// entropy state — so an actuated stream stays deterministic for a given
// actuation-by-frame-index schedule and byte-identical across Workers ×
// Pipeline × Pool, and race-clean against the pipeline writer goroutine.
type Actuation struct {
	// QpOffset is added to the session's base quantiser (Config.Qp, or
	// the rate controller's planned value) from the next frame on,
	// clamped to the legal range. It is absolute, not cumulative:
	// restoring quality means actuating a smaller offset.
	QpOffset int
	// Searcher, when non-nil, replaces the motion estimator. The swap is
	// only state-clean at an intra boundary — intra frames run no motion
	// search and reset the motion field — so the next frame is forced
	// intra when the searcher actually changes. Passing the currently
	// installed searcher is a no-op (no forced intra), which lets a
	// controller state its target tier every actuation without caring
	// what is installed. The frame header is self-describing, so the
	// stream stays decodable.
	Searcher search.Searcher
	// BudgetScale, when positive, rescales the complexity budget of a
	// budget-controlled searcher (core.Budgeted) to BudgetScale × its
	// constructed target. Safe between frames: the budget thresholds are
	// frozen per frame at Fork. Ignored for searchers without a budget.
	BudgetScale float64
}

// Actuate schedules a to be applied before the next frame's analysis.
// It may be called from any goroutine; if called more than once between
// frames the last call wins. The stream's output bits from the next
// EncodeFrame on reflect the actuation.
func (s *EncodeStream) Actuate(a Actuation) {
	s.e.pending.Store(&a)
}

// applyActuation installs a on the encoder. Must run on the session
// goroutine between frames (EncodeFrame calls it before analysis).
func (e *Encoder) applyActuation(a Actuation) {
	e.qpOffset = a.QpOffset
	target := e.cfg.Searcher
	if a.Searcher != nil {
		if a.Searcher != e.cfg.Searcher {
			e.pendingSearcher = a.Searcher
		}
		target = a.Searcher
	}
	if a.BudgetScale > 0 {
		if bs, ok := target.(budgetScaler); ok {
			bs.ScaleBudget(a.BudgetScale)
		}
	}
}

// pendingActuation is the lock-free mailbox EncodeFrame drains; a plain
// field would race with Actuate callers on other goroutines.
type pendingActuation = atomic.Pointer[Actuation]
