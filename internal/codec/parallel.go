package codec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/frame"
	"repro/internal/mvfield"
	"repro/internal/search"
)

// Wavefront-parallel macroblock analysis.
//
// The only cross-macroblock dependency in the analysis phase is the
// motion-field neighbourhood the predictive searchers read: PBM (and so
// ACBM) gathers candidates from the left (x−1,y), up-left (x−1,y−1), up
// (x,y−1) and up-right (x+1,y−1) entries of the current field. The unit
// of work is therefore a macroblock row. Rows are claimed in increasing
// order from one atomic counter by whichever lane runs next; a row walks
// left to right (the left neighbour is its own previous step), publishes
// done[y] = x+1 with an atomic store after every macroblock, and starts
// macroblock (x, y) once done[y−1] ≥ min(x+2, cols) — the up-right
// neighbour, and with it up and up-left, is complete. This is the
// wavefront H.264/HEVC encoders use, adapted to this field's up-right
// reach: a row trails the one above by two macroblocks and otherwise
// never stops. There is no barrier inside the frame and no task smaller
// than a row; the frame has one join, at its end.
//
// Each lane owns a forked Searcher (search.Forker) and an analysis
// scratch for the frame; core.ACBM documents that it is not
// concurrency-safe, and the additive Stats merge back in Join. All other
// shared writes are disjoint: each macroblock touches only its own 16×16
// (8×8 chroma) region of the reconstruction, its own motion-field entry
// and its own mbResult slot. The store to done[y] and the load that
// satisfies a waiting row are the happens-before edge that publishes
// those writes to the row below (and, transitively, to every later row);
// the final join publishes them to the caller.
//
// Waiting: a row whose dependency is not yet met spins for a few loads
// (the row above is usually within a macroblock of publishing), then
// yields the processor on every further miss, so the wait can never
// starve the goroutine it is waiting for — GOMAXPROCS=1 included. Rows
// are claimed when a lane starts them, never earlier, which makes "the
// row above is running or done" an invariant: the lowest unfinished row
// waits on nothing, so some lane can always advance. The wait never
// parks: a park/unpark pair costs more than most macroblocks (~100 µs to
// wake an idle processor on a virtualised host), which is what the
// per-diagonal barrier this replaced paid 56 times a CIF frame. The price
// is that a yield reaches the Go scheduler, not the OS: when other
// processes oversubscribe the cores a waiter can spin out a time slice
// while the row above is descheduled. Measured with a CPU-bound client
// on the same two cores (`vload -verify`) the daemon still out-ran the
// parking design, and escalating the wait to time.Sleep was slower, not
// faster, so it stays a yield.
//
// Determinism: the set of field entries visible to a macroblock equals
// exactly the causal set the sequential raster scan would have computed
// (mvfield.AppendPredictors reads only the left neighbour and the three
// above), so every mbResult — and with it the serial entropy pass — is
// bit-identical for any lane count ≥ 1 and for all three executors below.

// waitSpins is how many loads a blocked row spends before it starts
// yielding. The row above is usually within a macroblock of publishing, so
// the count matters little (64 to 4096 measured the same); it is kept near
// the cost of one yield so a wait on a descheduled lane gives the
// processor up almost at once.
const waitSpins = 128

// rowProgress is one row's published macroblock count, alone on its cache
// line: row y's per-macroblock store must not invalidate the line rows
// y+1.. are polling for their own dependency.
type rowProgress struct {
	n atomic.Int32
	_ [60]byte
}

// wavefront is the schedule state of one frame's cols×rows grid.
type wavefront struct {
	cols, rows int
	deps       bool         // false for intra frames: rows are independent
	next       atomic.Int32 // rows claimed so far
	done       []rowProgress
}

// runRows is the body of a lane: it claims and runs rows until limit of
// them ran or none is left, and reports whether unclaimed rows remain.
func (w *wavefront) runRows(lane, limit int, run func(lane, mbx, mby int)) bool {
	for ; limit > 0; limit-- {
		y := int(w.next.Add(1)) - 1
		if y >= w.rows {
			return false
		}
		var above *atomic.Int32
		if w.deps && y > 0 {
			above = &w.done[y-1].n
		}
		seen := int32(0) // last value read from above: most steps need no load
		for x := 0; x < w.cols; x++ {
			if need := int32(min(x+2, w.cols)); above != nil && seen < need {
				for spins := 0; ; spins++ {
					if seen = above.Load(); seen >= need {
						break
					}
					if spins >= waitSpins {
						runtime.Gosched()
					}
				}
			}
			run(lane, x, y)
			w.done[y].n.Store(int32(x + 1))
		}
	}
	return int(w.next.Load()) < w.rows
}

// runWavefront calls run(lane, mbx, mby) exactly once for every macroblock
// of a cols×rows grid, on lanes ≥ 1 concurrent lanes (lane < lanes tells
// the callback which per-lane state is its own; a lane beyond the row
// count finds nothing to claim). With deps set, a call starts after the
// calls for its left, up-left, up and up-right neighbours returned; all
// calls happen before runWavefront returns.
//
// One row runner serves three executors. lanes = 1: the caller runs every
// row inline. pool == nil: lanes−1 frame-private goroutines plus the
// caller itself, which would otherwise only park in the join. Otherwise
// each lane is a chain of tasks on the shared pool — a task runs one row
// and, while rows remain, submits its successor — so a session never has
// more than lanes ≤ pool.Size() tasks queued or running, concurrent
// sessions interleave FIFO at row grain, and the caller, not being a pool
// worker, only waits. onWait, when non-nil, receives each pool task's
// time from its submission (the moment it was ready to run) to pick-up.
func runWavefront(cols, rows int, deps bool, lanes int, pool *Pool, pri Priority, onWait func(time.Duration), run func(lane, mbx, mby int)) {
	w := &wavefront{cols: cols, rows: rows, deps: deps, done: make([]rowProgress, rows)}
	var wg sync.WaitGroup
	if pool == nil {
		for lane := 1; lane < lanes; lane++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.runRows(lane, rows, run)
			}()
		}
		w.runRows(0, rows, run)
		wg.Wait()
		return
	}
	wg.Add(lanes)
	for lane := 0; lane < lanes; lane++ {
		var ready time.Time // written before each submit, read by the task it starts
		var task func()
		submit := func() {
			if onWait != nil {
				ready = time.Now()
			}
			pool.submit(pri, task)
		}
		task = func() {
			if onWait != nil {
				onWait(time.Since(ready))
			}
			if w.runRows(lane, 1, run) {
				submit()
			} else {
				wg.Done()
			}
		}
		submit()
	}
	wg.Wait()
}

// analysisLane is the state one lane owns for a frame: its forked searcher
// and scratch, padded so neighbouring lanes' per-macroblock writes stay on
// their own cache lines.
type analysisLane struct {
	s  search.Searcher
	sc mbScratch
	_  [64]byte
}

// analyzeFrame fills results (and recon, and curField for P-frames) for
// every macroblock of src: Config.Workers lanes, or the shared pool's
// width when Config.Pool is set. Intra frames have no cross-macroblock
// dependencies, so their rows never wait.
//
// Every worker count — the inline Workers=1 included — runs the
// frame-granular fork/join protocol: searchers with per-frame control
// state (core.Budgeted freezes its thresholds per frame and servos them
// at the last Join) must see the same frame boundaries everywhere, or the
// bitstream would depend on Config.Workers. Fork identity does not affect
// a search result — forks share the parent's parameters and differ only
// in their additively merged statistics — so any lane may run any row.
func (e *Encoder) analyzeFrame(src, recon *frame.Frame, curField *mvfield.Field, results []mbResult, intra bool) {
	cols, rows := e.size.MacroblockCols(), e.size.MacroblockRows()
	n := e.cfg.Workers
	if e.cfg.Pool != nil {
		n = e.cfg.Pool.Size()
	}
	// A row is the unit of work, so lanes beyond the row count would idle.
	lanes := make([]analysisLane, min(n, rows))
	fork := !intra && e.forker != nil // a nil forker only ever runs one lane
	for i := range lanes {
		lanes[i].s = e.cfg.Searcher
		if fork {
			lanes[i].s = e.forker.Fork()
		}
	}
	var onWait func(time.Duration)
	if e.cfg.Observer != nil {
		onWait = e.noteQueueWait
	}
	runWavefront(cols, rows, !intra, len(lanes), e.cfg.Pool, e.cfg.Priority, onWait, func(lane, mbx, mby int) {
		r := &results[mby*cols+mbx]
		if intra {
			e.analyzeIntraMB(src, recon, mbx, mby, r)
		} else {
			l := &lanes[lane]
			e.analyzeInterMB(l.s, &l.sc, src, recon, curField, mbx, mby, r)
		}
	})
	if fork {
		for i := range lanes {
			e.forker.Join(lanes[i].s)
		}
	}
}
