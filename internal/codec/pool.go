package codec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Priority is a session's scheduling class on a shared Pool. The zero
// value is PriorityLive, so single-session and test configurations need
// not mention it.
type Priority int

const (
	// PriorityLive is the interactive class: its row tasks are dispatched
	// ahead of batch tasks.
	PriorityLive Priority = iota
	// PriorityBatch is the throughput class: it yields workers to live
	// sessions at the row boundary but is never starved entirely (see the
	// anti-starvation share below).
	PriorityBatch
)

// String implements fmt.Stringer.
func (p Priority) String() string {
	if p == PriorityBatch {
		return "batch"
	}
	return "live"
}

// batchShare is the anti-starvation quota: after batchShare consecutive
// live dispatches while batch work is waiting, one batch task is
// dispatched regardless. Batch therefore always receives at least
// 1/(batchShare+1) of the pool's dispatches under a sustained live
// flood.
const batchShare = 8

// Pool is a shared macroblock-analysis worker pool: a fixed set of
// goroutines that execute analysis tasks for any number of concurrent
// encoder sessions. A serving process (cmd/vcodecd) hands one to every
// session through Config.Pool, to cap total analysis parallelism at the
// machine's core count instead of oversubscribing it sessions × Workers
// times; those sessions only wait for their frames. Every other session
// that asks for Workers>1 borrows lanes from the process-default pool
// (defaultPool) and is itself lane 0 of its frames.
//
// Scheduling and fairness: the unit of work is a macroblock row (see
// runWavefront). A frame keeps at most min(Size, rows) row tasks queued
// or running — a finished row submits its successor, the frame is never
// pre-queued — so concurrent sessions interleave at row granularity: a
// session never holds a worker longer than one row's analysis (plus the
// two-macroblock trail behind the row above), and a newly admitted
// session's first task is at most one task per competing lane from the
// head of its class's queue. Two priority tiers sit above that FIFO
// fairness: live tasks (Config.Priority) are dispatched before batch
// tasks, which means a live session preempts batch sessions at the row
// boundary — batch rows already running finish (preemption is
// cooperative, at task granularity), but each one's successor waits
// behind the live session's rows. Batch is never starved outright: after
// batchShare consecutive live dispatches with batch work queued, one
// batch task runs. Within a class, order remains strictly FIFO. A frame
// is joined on its rows, not its tasks, so it can leave a task behind that
// claims nothing when reached (runWavefront); those sit ahead of the
// session's next frame in the FIFO, which bounds a Config.Pool session
// (whose frames cannot advance without a task running) to 2·Size−1 queued
// tasks; a caller-lane session adds one per chain and frame only while the
// pool is too busy to reach them, and each costs a lock and a pop to
// discard.
//
// Deadlock freedom: a task claims its row when it starts, not when it is
// submitted, so the rows of a frame are started in increasing order and
// the row above a running row is itself running or done — never queued.
// A running row therefore only ever waits (spinning, then yielding; it
// never parks) on a row that holds another worker or the frame's caller
// lane, the lowest unfinished row of every frame waits on nothing, and
// submit never blocks (the queues are unbounded slices), so a worker
// finishing a row can always enqueue its successor. Every submitted task
// eventually runs even when sessions outnumber workers — the priority
// tiers reorder dispatch but never withhold it. Each lane of a frame owns
// its forked searcher and scratch for the whole frame, so no task borrows
// anything it could wait for.
//
// Idle policy: see idleSpin.
type Pool struct {
	size int

	mu    sync.Mutex
	cond  *sync.Cond
	live  []func()
	batch []func()
	// liveRun counts consecutive live dispatches while batch work waited;
	// at batchShare the next dispatch is forced to the batch queue.
	liveRun int
	closed  bool
	// idleSince is when a worker last found both queues empty, zero once a
	// task has been enqueued since; hot is what enqueue made of the gap.
	idleSince time.Time
	hot       bool

	// queued mirrors len(live)+len(batch): written under mu, read without
	// it by workers in their idle spin.
	queued atomic.Int32
	// spinning counts workers in their idle spin.
	spinning atomic.Int32
	// parks counts cond waits, spinPickups tasks a worker found during its
	// idle spin — each one a park and a futex wake that did not happen.
	parks, spinPickups atomic.Uint64
}

// idleSpin bounds how long a worker that found both queues empty keeps
// looking before it parks, and is the gap that decides whether it looks at
// all.
//
// Why spin: at the paper's operating points a macroblock row is ~20 µs of
// analysis and a CIF P-frame ~350 µs, while waking a parked worker is a
// futex round trip of 50–100 µs on a virtualised host — per lane, per
// frame, the wake cost as much as the work it was handed, and a two-lane
// wavefront measured no faster than one. A worker that is still runnable
// when the next frame's first row is submitted turns that wake into a load
// of queued.
//
// Why yield: every miss is a runtime.Gosched(), never a bare loop — on one
// P the goroutine that will submit the task must be able to run, and a
// spinning worker must not hold a processor a runnable lane wants.
//
// Why bounded, and only while hot: a yield-spinning goroutine lives in the
// runtime's global run queue, which the scheduler serves before it polls
// the network, so a P that keeps finding a spinner does not notice a
// request arriving (a localhost ping-pong's p95 went from 65 µs to 9 ms
// beside one permanent yield-spinner per P); and a spin that ends in a
// park anyway is CPU taken from whoever shares the machine. So the spin
// ends after idleSpin, after which the worker parks on the cond exactly as
// it always did and an idle pool burns nothing (TestPoolIdleWorkersPark);
// and enqueue keeps the pool hot only while the first task after a worker
// ran dry follows within idleSpin — frames of an unpaced session do, a
// 30 fps camera's or an idle daemon's do not, and pay one wasted spin
// before every worker goes back to parking at once.
//
// The bound, measured on a 2-vCPU VM with a parallel_cif-shaped loop (CIF,
// ACBM, Workers=2 + Pipeline; in-process A/B, 120 sessions a variant in
// alternating rounds; frames/s over the least step per frame position, then
// of the median session; serial reads 2 139 / 1 339): 0 µs 2 599 / –,
// 50 µs 2 829 / 1 642, 100 µs 2 998 / 1 701, 200 µs 3 086 / 1 850, 300 µs
// 2 991 / 1 859, 1 ms 3 001 / –. A worker's idle gap between two frames
// of that loop is 63 µs at the median and ~180 µs at p90, which is where
// the curve flattens: 200 µs is kept. CHANGES.md (PR 24) lists the runs.
const idleSpin = 200 * time.Microsecond

// PoolStats is a snapshot of a pool's idle-policy counters.
type PoolStats struct {
	// Parks is how many times a worker gave up its idle spin and blocked
	// until a submit woke it.
	Parks uint64
	// SpinPickups is how many tasks were taken by a worker still in its
	// idle spin — lanes that stayed hot.
	SpinPickups uint64
}

// Stats returns the pool's idle-policy counters; both only ever grow.
func (p *Pool) Stats() PoolStats {
	return PoolStats{Parks: p.parks.Load(), SpinPickups: p.spinPickups.Load()}
}

// NewPool starts a pool with the given number of workers (0 or negative
// selects GOMAXPROCS). Close releases the workers.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{size: workers}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// defaultPool returns the process-lifetime pool behind every session that
// asks for Workers>1 without naming a Config.Pool: GOMAXPROCS workers (as
// of its first use), started then and never closed — idle, they are parked
// on a cond.
var defaultPool = sync.OnceValue(func() *Pool { return NewPool(0) })

func (p *Pool) worker() {
	for {
		fn := p.next()
		if fn == nil {
			return // closed and drained
		}
		fn()
	}
}

// next returns the next task to run, or nil once the pool is closed and
// drained. With both queues empty a worker of a hot pool (see enqueue)
// looks again for idleSpin, yielding the processor on every miss; then, or
// at once when the pool is cold, it parks until a submit signals.
func (p *Pool) next() func() {
	p.mu.Lock()
	fn := p.dispatch()
	if fn != nil || p.closed {
		p.mu.Unlock()
		return fn
	}
	start := time.Now()
	p.idleSince = start
	hot := p.hot
	if hot {
		p.spinning.Add(1)
	}
	p.mu.Unlock()
	if hot {
		for ; time.Since(start) < idleSpin; runtime.Gosched() {
			if p.queued.Load() == 0 {
				continue
			}
			p.mu.Lock()
			fn := p.dispatch()
			if fn == nil {
				p.mu.Unlock()
				continue
			}
			// Uncounted under the lock: a submit that still finds this
			// worker counted appended before this dispatch, which saw its
			// task and passed the wake on.
			p.spinning.Add(-1)
			p.mu.Unlock()
			p.spinPickups.Add(1)
			return fn
		}
		// Leave the spin before the last look: a submit that saw this
		// worker spinning and kept its signal has already appended, under
		// the lock taken next.
		p.spinning.Add(-1)
	}
	// The emptiness check and the wait are one critical section with
	// submit's append, so no wake-up is lost.
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if fn := p.dispatch(); fn != nil || p.closed {
			return fn
		}
		p.parks.Add(1)
		p.cond.Wait()
	}
}

// dispatch pops the task to run next, nil when both queues are empty: live
// first, except when the anti-starvation share is owed to a waiting batch
// task. A worker that leaves work behind passes the wake on (submit may
// have kept its own, see there). The caller holds mu.
func (p *Pool) dispatch() func() {
	var fn func()
	switch {
	case len(p.live) > 0 && (len(p.batch) == 0 || p.liveRun < batchShare):
		fn = popTask(&p.live)
		if len(p.batch) > 0 {
			p.liveRun++
		} else {
			p.liveRun = 0
		}
	case len(p.batch) > 0:
		fn = popTask(&p.batch)
		p.liveRun = 0
	default:
		return nil
	}
	if p.queued.Add(-1) > 0 {
		p.cond.Signal()
	}
	return fn
}

// popTask takes the head of a FIFO queue by shifting the rest down, so a
// long-lived pool keeps one backing array per class instead of abandoning
// and re-growing it as the head slides. A queue holds at most sessions ×
// Size row tasks, so the shift is a few words per row of analysis.
func popTask(q *[]func()) func() {
	fn := (*q)[0]
	n := copy(*q, (*q)[1:])
	(*q)[n] = nil // the array outlives the task
	*q = (*q)[:n]
	return fn
}

// Size returns the worker count.
func (p *Pool) Size() int { return p.size }

// submit enqueues one task in its class's FIFO queue and never blocks:
// the queues are unbounded, and runWavefront bounds what a session keeps
// in them (see Pool).
func (p *Pool) submit(pri Priority, fn func()) { p.enqueue(pri, fn, true) }

// enqueue is submit with the wake optional. A parked worker is woken only
// if wake is set and no worker is in its idle spin, about to find the task
// by itself; a task enqueueing its successor passes wake=false — the worker
// running it looks at the queues next, and a parked one woken for it would
// find them empty again.
func (p *Pool) enqueue(pri Priority, fn func(), wake bool) {
	p.mu.Lock()
	if !p.idleSince.IsZero() {
		// First task since a worker ran dry: the pool is hot while such
		// tasks come soon enough that a spin would have caught them (or
		// did). Frames following one another keep it hot; a paced or idle
		// pool cools after one wasted spin and pays no other.
		p.hot = time.Since(p.idleSince) < idleSpin
		p.idleSince = time.Time{}
	}
	if pri == PriorityBatch {
		p.batch = append(p.batch, fn)
	} else {
		p.live = append(p.live, fn)
	}
	p.queued.Add(1)
	p.mu.Unlock()
	if wake && p.spinning.Load() == 0 {
		p.cond.Signal()
	}
}

// Close stops the workers once the queues drain. It must only be called
// after every session using the pool has finished; it is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}
