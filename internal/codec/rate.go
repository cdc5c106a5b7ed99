package codec

import "repro/internal/dct"

// rateController is a TMN-style frame-level rate control: a proportional
// controller on a virtual buffer that nudges the quantiser so the average
// output rate tracks Config.TargetKbps. Each frame header carries its own
// Qp, so the decoder needs no side information.
//
// The controller is frame-lagged so rate-controlled encodes keep the full
// wavefront + pipeline parallelism. The classic servo reads frame n's
// exact bit count before choosing frame n+1's quantiser, which couples
// entropy coding (phase 2) back into analysis (phase 1) and forces the
// cross-frame pipeline serial. Here the exact in-loop constraint is
// relaxed to a one-frame-lag estimated constraint (the rCLS idea of the
// related linear-equality-constrained-LS work): the quantiser for frame
// n+1 is chosen when frame n's write phase *begins* — from the actual bit
// counts of frames 0..n-1, which the writer has finished by then, plus a
// predicted bit count for frame n derived from its analysis results. When
// frame n's actual size arrives one hand-off later, settle replaces the
// prediction with the truth, so the buffer never accumulates model error;
// only the single in-flight decision ever acts on an estimate, and the
// steady-state tracking error is the (small) per-frame prediction error.
//
// The protocol is two calls per frame, driven at deterministic points of
// the encode loop (identical in serial, pipelined and pooled encodes, so
// rate-controlled bitstreams stay byte-identical across all of them):
//
//	plan(intra, cost)  — frame n's analysis is done, its write is in
//	                     flight: charge the buffer with the predicted
//	                     size and step the quantiser for frame n+1.
//	settle(actualBits) — frame n's write finished (observed at the next
//	                     hand-off): swap the prediction for the actual
//	                     size and update the predictor.
//
// The prediction model is deliberately cheap and worker-invariant: bits
// per nonzero quantised coefficient (one EWMA per frame type), applied to
// the jobCost complexity proxy computed from the analysis results.
type rateController struct {
	bitsPerFrame float64 // target
	buffer       float64 // accumulated surplus bits (can go negative)
	qp           int

	// The in-flight frame: exactly one prediction may be outstanding
	// between plan and settle.
	pending      bool
	predicted    float64
	pendingIntra bool
	pendingCost  int

	// Predicted-bits model: output bits per cost unit, one running
	// estimate per frame type (intra frames cost several times more per
	// coefficient budget than predicted frames). Zero until the first
	// frame of that type settles.
	bpcIntra float64
	bpcInter float64
}

func newRateController(targetKbps, fps float64, startQp int) *rateController {
	return &rateController{
		bitsPerFrame: targetKbps * 1000 / fps,
		qp:           dct.ClampQp(startQp),
	}
}

// currentQp returns the quantiser for the next frame.
func (rc *rateController) currentQp() int { return rc.qp }

// predictBits estimates a frame's encoded size from its complexity proxy.
// Before the first frame of a type has settled there is no model; the
// frame is assumed on target, and the error is corrected one hand-off
// later by settle.
func (rc *rateController) predictBits(intra bool, cost int) float64 {
	bpc := rc.bpcInter
	if intra {
		bpc = rc.bpcIntra
	}
	if bpc <= 0 || cost <= 0 {
		return rc.bitsPerFrame
	}
	return bpc * float64(cost)
}

// plan charges the virtual buffer with the in-flight frame's predicted
// size and steps the quantiser for the next frame. It must be called
// exactly once per frame, after settle of the previous frame.
func (rc *rateController) plan(intra bool, cost int) {
	pred := rc.predictBits(intra, cost)
	rc.pending = true
	rc.predicted = pred
	rc.pendingIntra = intra
	rc.pendingCost = cost

	rc.buffer += pred - rc.bitsPerFrame
	// Dead zone of ±¼ frame budget, then at most ±2 Qp steps per frame.
	switch {
	case rc.buffer > rc.bitsPerFrame:
		rc.qp += 2
	case rc.buffer > rc.bitsPerFrame/4:
		rc.qp++
	case rc.buffer < -rc.bitsPerFrame:
		rc.qp -= 2
	case rc.buffer < -rc.bitsPerFrame/4:
		rc.qp--
	}
	rc.qp = dct.ClampQp(rc.qp)
	// Leak the buffer slowly so a one-off large I-frame does not depress
	// quality forever.
	rc.buffer *= 0.95
}

// settle replaces the outstanding prediction with the frame's actual bit
// count and refreshes the per-type bits-per-cost estimate. Quantiser
// decisions already taken are not revisited — that is the one-frame-lag
// relaxation; the buffer correction steers every later decision.
func (rc *rateController) settle(actualBits int) {
	if !rc.pending {
		return
	}
	rc.pending = false
	rc.buffer += float64(actualBits) - rc.predicted
	if rc.pendingCost > 0 && actualBits > 0 {
		obs := float64(actualBits) / float64(rc.pendingCost)
		p := &rc.bpcInter
		if rc.pendingIntra {
			p = &rc.bpcIntra
		}
		if *p <= 0 {
			*p = obs
		} else {
			*p = float64(0.5**p) + float64(0.5*obs) // explicit roundings: no FMA on any GOARCH
		}
	}
}
