package codec

import "sync/atomic"

// budgetScaler is implemented by searchers whose complexity budget can be
// rescaled between frames (core.ACBM, core.Budgeted). Declared
// structurally so codec does not depend on core.
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
// Neither field changes the searcher or the frame type: an actuation
// never forces an intra frame.
type Actuation struct {
	// QpOffset is added to the session's base quantiser (Config.Qp, or
	// the rate controller's planned value) from the next frame on,
	// clamped to the legal range. It is absolute, not cumulative:
	// restoring quality means actuating a smaller offset.
	QpOffset int
	// BudgetScale, when positive, turns the searcher's own complexity
	// dial to BudgetScale × its constructed setting: core.ACBM relaxes
	// α/γ by 1/BudgetScale, core.Budgeted retargets its positions/MB.
	// Safe between frames: thresholds are frozen per frame at Fork.
	// Ignored for searchers without a dial.
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
	if bs, ok := e.cfg.Searcher.(budgetScaler); ok && a.BudgetScale > 0 {
		bs.ScaleBudget(a.BudgetScale)
	}
}

// pendingActuation is the lock-free mailbox EncodeFrame drains; a plain
// field would race with Actuate callers on other goroutines.
type pendingActuation = atomic.Pointer[Actuation]
