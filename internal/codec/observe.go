package codec

import "time"

// FrameObserver receives per-frame phase timings as an encode progresses.
// It is the codec-side attachment point for the serving layer's flight
// recorder (internal/obs): the codec reports what happened and when,
// never asks the observer anything, so attaching or detaching an
// observer cannot change a single output bit — the byte-identity tests
// pin this with a recorder attached in every Workers/Pipeline/Pool mode.
//
// Concurrency: FrameAnalyzed is called on the session goroutine at the
// end of each frame's analysis. FrameWritten is called wherever phase 2
// runs — the session goroutine in serial encodes, the writer goroutine
// in pipelined ones — so implementations must tolerate the two methods
// racing for different frames. Both are called at phase boundaries that
// already pay a time.Since, so a nil-cheap implementation keeps the
// overhead below measurement noise (the bench-smoke guard enforces it).
type FrameObserver interface {
	// FrameAnalyzed reports frame index's phase-1 outcome: analysis wall
	// clock, the summed pool queue wait across the frame's rows — the time
	// a ready row waited for the pool: a helper task's from its
	// submission to its pick-up, the session goroutine's (lane 0 on a
	// Config.Pool) from queuing for a slot to its grant, each counted once
	// it claimed a row — and the worst single wait (both zero for a frame
	// whose rows never waited, and always for one analysed inline),
	// whether the frame was coded intra, and the quantiser used.
	FrameAnalyzed(index int, wall, queueWait, maxStall time.Duration, intra bool, qp int)
	// FrameWritten reports frame index's phase-2 outcome: entropy-coding
	// wall clock and encoded size in bits.
	FrameWritten(index int, wall time.Duration, bits int)
}

// noteQueueWait accumulates one row's queue wait into the current frame's
// counters: the sum, and a CAS-max for the worst single wait (the
// preemption-stall signal). Called concurrently by pool workers and the
// session goroutine, once per wait that ended in a claimed row — so before
// that row, and the frame, finished; drained by Swap(0) at the frame's
// FrameAnalyzed callback.
func (e *Encoder) noteQueueWait(d time.Duration) {
	ns := int64(d)
	e.obsWaitNs.Add(ns)
	for {
		cur := e.obsStallNs.Load()
		if ns <= cur || e.obsStallNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}
