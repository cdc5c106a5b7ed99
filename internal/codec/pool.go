package codec

import (
	"runtime"
	"sync"
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
// encoder sessions. It exists so a serving process (cmd/vcodecd) can cap
// total analysis parallelism at the machine's core count instead of
// letting every session spin up Config.Workers goroutines of its own —
// N sessions share one pool rather than oversubscribing N×GOMAXPROCS.
//
// Scheduling and fairness: the unit of work is a macroblock row (see
// runWavefront). A session keeps at most min(Size, rows) row tasks queued
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
// batch task runs. Within a class, order remains strictly FIFO, and the
// bounded run-ahead above bounds total queue depth by sessions × Size.
//
// Deadlock freedom: a task claims its row when it starts, not when it is
// submitted, so the rows of a frame are started in increasing order and
// the row above a running row is itself running or done — never queued.
// A running row therefore only ever waits (spinning, then yielding; it
// never parks) on a row that holds another worker, the lowest unfinished
// row of every frame waits on nothing, and submit never blocks (the
// queues are unbounded slices), so a worker finishing a row can always
// enqueue its successor. Every submitted task eventually runs even when
// sessions outnumber workers — the priority tiers reorder dispatch but
// never withhold it. Each lane of a frame owns its forked searcher and
// scratch for the whole frame, so no task borrows anything it could wait
// for.
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

func (p *Pool) worker() {
	for {
		p.mu.Lock()
		for len(p.live) == 0 && len(p.batch) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.live) == 0 && len(p.batch) == 0 {
			p.mu.Unlock()
			return // closed and drained
		}
		var fn func()
		// Dispatch: live first, except when the anti-starvation share is
		// owed to a waiting batch task.
		if len(p.live) > 0 && (len(p.batch) == 0 || p.liveRun < batchShare) {
			fn = popTask(&p.live)
			if len(p.batch) > 0 {
				p.liveRun++
			} else {
				p.liveRun = 0
			}
		} else {
			fn = popTask(&p.batch)
			p.liveRun = 0
		}
		p.mu.Unlock()
		fn()
	}
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
// the queues are unbounded, and runWavefront bounds each session to Size
// outstanding tasks, so total depth is at most sessions × Size. Tasks may
// submit (a finished row enqueues its successor).
func (p *Pool) submit(pri Priority, fn func()) {
	p.mu.Lock()
	if pri == PriorityBatch {
		p.batch = append(p.batch, fn)
	} else {
		p.live = append(p.live, fn)
	}
	p.mu.Unlock()
	p.cond.Signal()
}

// Close stops the workers once the queues drain. It must only be called
// after every session using the pool has finished; it is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}
