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
	// PriorityLive is the interactive class: its rows are granted pool
	// slots ahead of batch rows.
	PriorityLive Priority = iota
	// PriorityBatch is the throughput class: it yields slots to live
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
// live grants while batch work is waiting, one batch entry is granted a
// slot regardless. Batch therefore always receives at least
// 1/(batchShare+1) of the pool's grants under a sustained live flood.
const batchShare = 8

// Pool is a shared macroblock-analysis worker pool: a fixed set of
// goroutines that execute analysis tasks for any number of concurrent
// encoder sessions, and as many slots as goroutines, which cap how many
// macroblock rows run at once. A serving process (cmd/vcodecd) hands one
// to every session through Config.Pool, to cap total analysis parallelism
// at the machine's core count instead of oversubscribing it sessions ×
// Workers times: the session goroutine is lane 0 of its frames and holds
// one of the pool's slots for each row it runs, and its helper lanes are
// row-task chains that hold one while they run a row. Every other session
// that asks for Workers>1 borrows helper lanes from the process-default
// pool (defaultPool) and runs its own lane outside the slots.
//
// Slots and grants: a running row holds a slot — a worker takes one with
// every task it runs, a Config.Pool session goroutine takes one through
// acquire before it claims a row and gives it back after the row — so at
// most Size rows of all the pool's Config.Pool sessions run at once.
// Whatever finds no free slot queues for one in its class's FIFO: a row
// task, or a parked session goroutine. A released slot goes straight to
// the next entry in dispatch order (grant): a session goroutine receives
// it on its own channel, with no worker woken in between; a task moves to
// the ready list, where a worker picks it up. An acquire that finds a
// slot free takes it under one lock, with no park and no wake, and
// nothing is allocated per acquire. Free slots and queued entries never
// coexist outside the lock: every release and every submit grants at
// once.
//
// Scheduling and fairness: the unit of work is a macroblock row (see
// runWavefront). A frame keeps at most its helper lanes' tasks queued or
// running — a finished row submits its successor, the frame is never
// pre-queued — so concurrent sessions interleave at row granularity: a
// session never holds a slot longer than one row's analysis (plus the
// two-macroblock trail behind the row above), and a newly admitted
// session's first row is at most one entry per competing lane from the
// head of its class's queue. Two priority tiers sit above that FIFO
// fairness, for tasks and session goroutines alike: live entries
// (Config.Priority) are granted before batch entries, which means a live
// session preempts batch sessions at the row boundary — batch rows
// already running finish (preemption is cooperative, at row granularity),
// but each one's successor waits behind the live session's rows. Batch is
// never starved outright: after batchShare consecutive live grants with
// batch entries queued, one batch entry is granted. Within a class, order
// remains strictly FIFO. A frame is joined on its rows, not its tasks, so
// it can leave a task behind that claims nothing when reached
// (runWavefront): at most one per helper lane and frame, only while the
// pool is too busy to reach it, and each costs a slot for a lock and a
// pop.
//
// Deadlock freedom: a row is claimed only by a lane that runs it at once —
// a task when it starts, under its slot; a session goroutine after its
// acquire, or outside the slots on the default pool — so the rows of a
// frame are started in increasing order and the row above a running row
// is itself running or done — never queued. A running row therefore only
// ever waits (spinning, then yielding; it never parks) on a running row
// of another lane, the lowest unfinished
// row of every frame waits on nothing, and neither submit nor release
// blocks (the queues are unbounded slices, a grant channel has room for
// its one grant), so a row can always finish and pass its slot on. Every
// queued entry is eventually granted even when sessions outnumber slots —
// the priority tiers reorder grants but never withhold them. A session
// goroutine parked in acquire holds no slot and no claimed row. Each lane
// of a frame owns its forked searcher and scratch for the whole frame, so
// no row borrows anything it could wait for.
//
// Idle policy: see idleSpin.
type Pool struct {
	size int

	mu   sync.Mutex
	cond *sync.Cond
	// free counts the slots neither held by a running row nor granted to a
	// ready task; whenever mu is free, free > 0 implies live and batch are
	// empty.
	free int
	// live and batch queue what waits for a slot, per class, FIFO.
	live, batch []slotWait
	// ready holds the tasks granted a slot, in grant order, for the
	// workers.
	ready []func()
	// liveRun counts consecutive live grants while batch entries waited;
	// at batchShare the next grant is forced to the batch queue.
	liveRun int
	closed  bool
	// idleSince is when a worker last found nothing ready, zero once a
	// task has been submitted since; hot is what enqueue made of the gap.
	idleSince time.Time
	hot       bool

	// queued mirrors len(ready): written under mu, read without it by
	// workers in their idle spin.
	queued atomic.Int32
	// spinning counts workers in their idle spin.
	spinning atomic.Int32
	// parks counts cond waits, spinPickups tasks a worker found during its
	// idle spin — each one a park and a futex wake that did not happen.
	parks, spinPickups atomic.Uint64
}

// slotWait is one entry of a class queue: a row task, or the grant
// channel of a session goroutine parked in acquire.
type slotWait struct {
	task func()
	lane chan<- struct{}
}

// idleSpin bounds how long a worker that found nothing ready keeps
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

// NewPool starts a pool with the given number of workers and slots (0 or
// negative selects GOMAXPROCS). Close releases the workers.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{size: workers, free: workers}
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

// worker runs ready tasks, each under the slot it was granted, and gives
// the slot back as it looks for the next.
func (p *Pool) worker() {
	for held := false; ; held = true {
		fn := p.next(held)
		if fn == nil {
			return // closed and drained
		}
		fn()
	}
}

// next releases the worker's slot when it holds one, then returns the next
// ready task, or nil once the pool is closed and drained. With nothing
// ready a worker of a hot pool (see enqueue) looks again for idleSpin,
// yielding the processor on every miss; then, or at once when the pool is
// cold, it parks until a grant signals.
func (p *Pool) next(held bool) func() {
	p.mu.Lock()
	if held {
		p.free++
		p.grant()
	}
	fn := p.take()
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
			fn := p.take()
			if fn == nil {
				p.mu.Unlock()
				continue
			}
			// Uncounted under the lock: a grant that still finds this
			// worker counted readied its task before this take, which saw
			// it and passed the wake on.
			p.spinning.Add(-1)
			p.mu.Unlock()
			p.spinPickups.Add(1)
			return fn
		}
		// Leave the spin before the last look: a grant that saw this
		// worker spinning and kept its signal has already readied its
		// task, under the lock taken next.
		p.spinning.Add(-1)
	}
	// The emptiness check and the wait are one critical section with a
	// grant's append, so no wake-up is lost.
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if fn := p.take(); fn != nil || p.closed {
			return fn
		}
		p.parks.Add(1)
		p.cond.Wait()
	}
}

// take pops the oldest ready task, nil when none is. A worker that leaves
// ready work behind passes the wake on (a grant may have kept its own, see
// enqueue). The caller holds mu.
func (p *Pool) take() func() {
	if len(p.ready) == 0 {
		return nil
	}
	fn := popFront(&p.ready)
	if p.queued.Add(-1) > 0 {
		p.cond.Signal()
	}
	return fn
}

// grant hands free slots to the class queues' entries in dispatch order —
// live first, except when the anti-starvation share is owed to a waiting
// batch entry — until the slots or the entries run out: a session
// goroutine gets its slot on its channel, a task joins the ready list. It
// reports whether it readied a task, which then wants a worker. The caller
// holds mu.
func (p *Pool) grant() (readied bool) {
	for p.free > 0 {
		var w slotWait
		switch {
		case len(p.live) > 0 && (len(p.batch) == 0 || p.liveRun < batchShare):
			w = popFront(&p.live)
			if len(p.batch) > 0 {
				p.liveRun++
			} else {
				p.liveRun = 0
			}
		case len(p.batch) > 0:
			w = popFront(&p.batch)
			p.liveRun = 0
		default:
			return readied
		}
		p.free--
		if w.lane != nil {
			w.lane <- struct{}{}
			continue
		}
		p.ready = append(p.ready, w.task)
		p.queued.Add(1)
		readied = true
	}
	return readied
}

// popFront takes the head of a FIFO queue by shifting the rest down, so a
// long-lived pool keeps one backing array per queue instead of abandoning
// and re-growing it as the head slides. A queue holds at most a few
// entries per session, so the shift is a few words per row of analysis.
func popFront[T any](q *[]T) T {
	v := (*q)[0]
	n := copy(*q, (*q)[1:])
	var zero T
	(*q)[n] = zero // the array outlives the entry
	*q = (*q)[:n]
	return v
}

// push queues w for a slot in its class. The caller holds mu.
func (p *Pool) push(pri Priority, w slotWait) {
	if pri == PriorityBatch {
		p.batch = append(p.batch, w)
	} else {
		p.live = append(p.live, w)
	}
}

// Size returns the worker count, which is also the slot count.
func (p *Pool) Size() int { return p.size }

// submit queues one task for a slot and never blocks: the queues are
// unbounded, and runWavefront bounds what a session keeps in them (see
// Pool).
func (p *Pool) submit(pri Priority, fn func()) { p.enqueue(pri, fn, true) }

// enqueue is submit with the wake optional. When the task is granted a
// slot at once, a parked worker is woken only if wake is set and no worker
// is in its idle spin, about to find the task by itself; a task enqueueing
// its successor passes wake=false — the worker running it looks at the
// ready list next, and a parked one woken for it would find it empty
// again.
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
	p.push(pri, slotWait{task: fn})
	readied := p.grant()
	p.mu.Unlock()
	if wake && readied && p.spinning.Load() == 0 {
		p.cond.Signal()
	}
}

// acquire takes a slot for a session goroutine's next row, queuing in its
// class behind whatever already waits when none is free; grant is the
// goroutine's own channel, with room for one grant. It returns how long
// the goroutine queued: zero when a slot was free.
func (p *Pool) acquire(pri Priority, grant chan struct{}) time.Duration {
	p.mu.Lock()
	if p.free > 0 {
		p.free--
		p.mu.Unlock()
		return 0
	}
	start := time.Now()
	p.push(pri, slotWait{lane: grant})
	p.mu.Unlock()
	<-grant
	return time.Since(start)
}

// release gives back the slot a session goroutine took with acquire,
// granting it at once to the next queued entry: a parked session goroutine
// directly, a task through the ready list and, unless one is spinning, a
// woken worker.
func (p *Pool) release() {
	p.mu.Lock()
	p.free++
	readied := p.grant()
	p.mu.Unlock()
	if readied && p.spinning.Load() == 0 {
		p.cond.Signal()
	}
}

// Close stops the workers once the ready list drains. It must only be
// called after every session using the pool has finished; it is
// idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}
