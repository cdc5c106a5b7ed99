package codec

import (
	"runtime"
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
// bit-identical for any lane count ≥ 1, on any pool, with or without its
// slots.
//
// Executor: one, and this file starts no goroutine. The caller — the
// session goroutine — is lane 0 and runs rows until none is left to
// claim; lanes 1.. are chains of row tasks on a Pool whose workers outlive
// the frame and stay hot between frames (pool.go). Nothing here starts a
// goroutine per frame because one reaches its first row ~100 µs after its
// `go` — a quarter of a CIF P-frame at the paper's operating points. On a
// shared Config.Pool every lane holds one of the pool's slots per row,
// lane 0 included, so all the pool's sessions together run at most Size
// rows at once; plain Workers>1 takes its helpers from the process-default
// pool and runs lane 0 outside its slots.
//
// Lanes on a shared pool (frameLanes): a helper lane costs a task
// hand-off, often a worker wake, and a two-macroblock trail behind the row
// above, and beside other sessions it costs more than it gains; a frame on
// a Config.Pool takes one per laneMBs macroblocks (laneMBs states the
// assumption and the measurement behind it). A QCIF serving session
// therefore analyses on its own goroutine alone, with no hand-off, park or
// spin-wait. On the default pool a frame takes min(Workers, pool size,
// rows) lanes.

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

// laneMBs is how many macroblocks a frame on a shared Config.Pool needs
// per lane: it runs on at most max(1, macroblocks/laneMBs) of the pool's
// lanes, so QCIF (99) gets one and CIF (396) up to six.
//
// The constant is a traffic assumption, not a measured crossover. A shared
// pool exists to serve concurrent sessions, and beside one another a
// second lane costs a session at every frame size; alone it pays at every
// size. Measured on a 2-vCPU VM (ACBM at Qp 30/24 on the four profiles, 30
// frames, seed 7; in-process A/B of two lanes against one in alternating
// rounds, 11–15 rounds, ratio of the medians of µs per frame; CHANGES.md
// lists the runs), the speed of two lanes relative to one:
//
//	size     MBs  one session,  one session,        two sessions on
//	              Workers=2     Workers=2+Pipeline  Pool(2), Pipeline
//	176×144   99  1.28×         1.20×               0.75×
//	176×192  132  1.32×         1.39×               0.75×
//	176×288  198  1.20×         –                   –
//	352×144  198  1.32×         1.31×               0.82×
//	352×192  264  1.27×         1.32×               0.82×
//	352×288  396  1.31×         1.38×               0.82×
//
// So the rule assumes what the serving daemon sees: QCIF sessions, several
// at once, which analyse on their own goroutines with no hand-off; larger
// frames keep lanes on the bet that fewer of them share a pool at a time.
// serve_burst (two unpaced QCIF sessions on Pool(2)) and fleet_live
// (paced QCIF) are the workloads that check the QCIF half of the bet;
// none contends larger frames. The process-default pool behind plain
// Workers>1 — mostly one CLI encode per process — takes no such cap.
const laneMBs = 64

// frameLanes returns the pool a cols×rows frame takes its helper lanes
// from and how many lanes, lane 0 included, it runs on, for a session
// configured with pool (Config.Pool) and workers (Config.Workers). On a
// shared pool that is one lane per laneMBs macroblocks, at most its size;
// otherwise min(workers, the default pool's size), helpers from the
// default pool. Never more than the frame has rows — a row is the unit of
// work, so further lanes would idle — and at least one.
func frameLanes(pool *Pool, workers, cols, rows int) (*Pool, int) {
	n := workers
	switch {
	case pool != nil:
		n = min(pool.Size(), cols*rows/laneMBs)
	case n > 1:
		pool = defaultPool()
		n = min(n, pool.Size())
	}
	return pool, max(1, min(n, rows))
}

// wavefront is the schedule state of one frame's cols×rows grid.
type wavefront struct {
	cols, rows int
	deps       bool         // false for intra frames: rows are independent
	next       atomic.Int32 // rows claimed so far
	left       atomic.Int32 // rows not yet finished; the join waits for 0
	done       []rowProgress
	run        func(lane, mbx, mby int)

	// What the chains need (unused by a one-lane frame).
	pool   *Pool
	pri    Priority
	onWait func(time.Duration)
}

// claim returns the next unclaimed row, or -1 when every row has been
// claimed (each running on some lane, or finished).
func (w *wavefront) claim() int {
	if y := int(w.next.Add(1)) - 1; y < w.rows {
		return y
	}
	return -1
}

// runRow runs the macroblocks of claimed row y left to right on lane,
// each once the row above is two macroblocks ahead.
func (w *wavefront) runRow(lane, y int) {
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
		w.run(lane, x, y)
		w.done[y].n.Store(int32(x + 1))
	}
	w.left.Add(-1)
}

// chain is one helper lane of a frame: a sequence of pool tasks, each of
// which claims and runs one row and, while unclaimed rows remain, submits
// its successor — so the lane never has two tasks, and the pool never
// holds more of a frame than its helper lanes.
type chain struct {
	w     *wavefront
	lane  int
	ready time.Time // written before each submit, read by the task it starts
	task  func()    // c.step, bound once
}

// submit enqueues the chain's next task: the first from the session
// goroutine, every later one from the task before it.
func (c *chain) submit(first bool) {
	w := c.w
	if w.onWait != nil {
		c.ready = time.Now()
	}
	w.pool.enqueue(w.pri, c.task, first)
}

// step is the chain's task. A task that finds every row claimed — the
// other lanes got there while it sat in the queue — reports nothing and
// touches neither its lane's state nor the frame: the join may already
// have returned.
func (c *chain) step() {
	w := c.w
	y := w.claim()
	if y < 0 {
		return
	}
	if w.onWait != nil {
		w.onWait(time.Since(c.ready))
	}
	w.runRow(c.lane, y)
	if int(w.next.Load()) < w.rows {
		c.submit(false)
	}
}

// runWavefront calls run(lane, mbx, mby) exactly once for every macroblock
// of a cols×rows grid, on lanes ≥ 1 concurrent lanes (lane < lanes tells
// the callback which per-lane state is its own; a lane beyond the row
// count finds nothing to claim). With deps set, a call starts after the
// calls for its left, up-left, up and up-right neighbours returned; all
// calls happen before runWavefront returns.
//
// The calling goroutine is lane 0: it claims and runs rows until none is
// left, then waits for the rows still running elsewhere. Lanes 1.. are
// chains of tasks on pool (nil when lanes is 1) — a task runs one row and,
// while rows remain, submits its successor — so a frame never has more
// than lanes−1 tasks queued or running and concurrent sessions interleave
// FIFO at row grain. With slots set lane 0 takes one of pool's slots
// before it claims each row and gives it back after the row (a shared
// Config.Pool: all its sessions' rows together are capped at its size);
// without, it runs outside them (the process-default pool behind plain
// Workers>1, and the inline frame).
//
// Who may wait on what. A running row waits (spinning, then yielding — it
// never parks) only on the row above, which was claimed before it by a
// lane holding a slot, or by lane 0, and is therefore running or done,
// never queued. Lane 0 claims rows until none is left, so when it reaches
// the join every unfinished row is running on a pool worker, and it waits
// for those the same way. Neither wait can be for a task still in the
// queue: a chain that is never picked up — the pool saturated by other
// sessions — costs the frame its help, not its progress, and the task it
// leaves behind claims nothing when it finally runs. Lane 0 parks only in
// acquire, holding no slot and no row. onWait, when non-nil, receives
// each wait for the pool that ended in a claimed row: a task's from its
// submission (the moment it was ready to run) to its pick-up, and lane 0's
// from queuing for a slot to its grant.
func runWavefront(cols, rows int, deps bool, lanes int, pool *Pool, slots bool, pri Priority, onWait func(time.Duration), run func(lane, mbx, mby int)) {
	w := &wavefront{
		cols: cols, rows: rows, deps: deps, done: make([]rowProgress, rows), run: run,
		pool: pool, pri: pri, onWait: onWait,
	}
	w.left.Store(int32(rows))
	for lane := 1; lane < lanes; lane++ {
		c := &chain{w: w, lane: lane}
		c.task = c.step
		c.submit(true)
	}
	var grant chan struct{}
	if slots {
		grant = make(chan struct{}, 1)
	}
	for y := 0; y >= 0; {
		var waited time.Duration
		if slots {
			// Every row claimed: a slot taken now would only be given back,
			// after queuing for it behind other sessions' rows.
			if int(w.next.Load()) >= rows {
				break
			}
			waited = pool.acquire(pri, grant)
		}
		if y = w.claim(); y >= 0 {
			if waited > 0 && onWait != nil {
				onWait(waited)
			}
			w.runRow(0, y)
		}
		if slots {
			pool.release()
		}
	}
	for spins := 0; w.left.Load() > 0; spins++ {
		if spins >= waitSpins {
			runtime.Gosched()
		}
	}
	// A task left behind in the queue must not pin the frame's buffers
	// through the callback. Only a task that claims a row reads it, and
	// every such read happened before left reached zero.
	w.run = nil
}

// analysisLane is the state one lane owns: its forked searcher for the
// frame and its scratch, padded so neighbouring lanes' per-macroblock
// writes stay on their own cache lines.
type analysisLane struct {
	s  search.Searcher
	sc mbScratch
	_  [64]byte
}

// analyzeFrame fills results (and recon, and curField for P-frames) for
// every macroblock of src on frameLanes lanes: the caller plus helper
// chains, on Config.Pool when set (every row under one of its slots) and
// otherwise on the process-default pool. Intra frames have no
// cross-macroblock dependencies, so their rows never wait.
//
// Every lane count — one included — runs the frame-granular fork/join
// protocol: searchers with per-frame control state (core.Budgeted freezes
// its thresholds per frame and servos them at the last Join) must see the
// same frame boundaries everywhere, or the bitstream would depend on the
// lane count. Fork identity does not affect a search result — forks share
// the parent's parameters and differ only in their additively merged
// statistics — so any lane may run any row. The lane scratch itself lives
// on the Encoder across frames.
func (e *Encoder) analyzeFrame(src, recon *frame.Frame, curField *mvfield.Field, results []mbResult, intra bool) {
	cols, rows := e.size.MacroblockCols(), e.size.MacroblockRows()
	slots := e.cfg.Pool != nil
	pool, n := frameLanes(e.cfg.Pool, e.cfg.Workers, cols, rows)
	if len(e.lanes) != n {
		e.lanes = make([]analysisLane, n)
	}
	lanes := e.lanes
	fork := !intra && e.forker != nil // a nil forker only ever runs one lane
	for i := range lanes {
		lanes[i].s = e.cfg.Searcher
		if fork {
			lanes[i].s = e.forker.Fork()
		}
		if !intra {
			lanes[i].sc.sums.Reset(e.recon.Y, e.cfg.SearchRange)
		}
	}
	var onWait func(time.Duration)
	if e.cfg.Observer != nil {
		onWait = e.noteQueueWait
	}
	runWavefront(cols, rows, !intra, n, pool, slots, e.cfg.Priority, onWait, func(lane, mbx, mby int) {
		r, l := &results[mby*cols+mbx], &lanes[lane]
		if intra {
			e.analyzeIntraMB(&l.sc, src, recon, mbx, mby, r)
		} else {
			e.analyzeInterMB(l.s, &l.sc, src, recon, curField, mbx, mby, r)
		}
	})
	if fork {
		for i := range lanes {
			e.forker.Join(lanes[i].s)
		}
	}
}
