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
	// PriorityLive is the interactive class: its macroblock tasks are
	// dispatched ahead of batch tasks.
	PriorityLive Priority = iota
	// PriorityBatch is the throughput class: it yields workers to live
	// sessions at the anti-diagonal boundary but is never starved
	// entirely (see the anti-starvation share below).
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
// Scheduling and fairness: sessions submit one task per macroblock, so
// concurrent sessions interleave at macroblock granularity — a session
// never holds a worker longer than one block's analysis, and a newly
// admitted session starts drawing workers within one macroblock's
// latency of every other session of its class. Two priority tiers sit
// above that FIFO fairness: live tasks (Config.Priority) are dispatched
// before batch tasks, which means a live session preempts batch sessions
// at the anti-diagonal boundary — batch macroblocks already running
// finish (preemption is cooperative, at task granularity), but the
// batch session's next diagonal waits behind the live wavefront. Batch
// is never starved outright: after batchShare consecutive live
// dispatches with batch work queued, one batch task runs. Within a
// class, order remains strictly FIFO, which preserves the bounded
// run-ahead argument: the wavefront barriers mean a session has at most
// one anti-diagonal of tasks outstanding.
//
// Deadlock freedom: pool workers never submit tasks and tasks never block
// on other tasks (the per-frame searcher set is sized so a borrowed
// searcher is always available; see analyzeFramePool), so every submitted
// task eventually runs even when sessions outnumber workers — the
// priority tiers reorder dispatch but never withhold it.
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
			fn, p.live = p.live[0], p.live[1:]
			if len(p.batch) > 0 {
				p.liveRun++
			} else {
				p.liveRun = 0
			}
		} else {
			fn, p.batch = p.batch[0], p.batch[1:]
			p.liveRun = 0
		}
		p.mu.Unlock()
		fn()
	}
}

// Size returns the worker count.
func (p *Pool) Size() int { return p.size }

// submit enqueues one task in its class's FIFO queue. The queues are
// unbounded, but the wavefront barriers bound each session to one
// anti-diagonal of outstanding tasks, so total queue depth is bounded by
// the session count times the widest diagonal — the same bound the old
// single-channel pool enforced through blocking.
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
