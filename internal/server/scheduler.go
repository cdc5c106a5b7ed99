// Package server implements vcodecd's encode-as-a-service layer: an HTTP
// handler set that accepts raw Y4M video uploads, encodes them with the
// repository's codec and streams the packetized bitstream back as frames
// complete, plus the multi-session scheduler that makes N concurrent
// uploads share one machine-sized analysis worker pool.
//
// # Session lifecycle
//
// A POST /encode request is one session. It passes admission control
// (concurrency cap + bounded wait queue), then loops: read one frame from
// the request body, analyse it on the shared codec.Pool, and emit its
// packet into the chunked response, flushing per packet — the client sees
// the first frame's bits at one-frame latency, not one-sequence. The
// session ends when the upload ends (clean EOF), the client disconnects,
// or the frame cap is hit; per-session statistics travel as HTTP trailers.
//
// # Scheduler fairness invariants
//
// All admitted sessions share one codec.Pool sized to the machine. A
// session goroutine is lane 0 of its own frames and holds one of the
// pool's slots for each macroblock row it runs; a frame large enough for
// more lanes adds row tasks, each holding a slot while it runs. So at most
// pool-size rows run at once whatever the session count, and a QCIF
// session analyses on its own goroutine with no hand-off. Sessions
// interleave on the pool at macroblock-row granularity: a slot is given
// back after every row and granted at once to the next queued row — a
// parked session goroutine or a task — fair-share by FIFO queue position
// within a priority tier, with run-ahead bounded by construction.
// Sessions carry ?priority=live|batch: live rows are granted first
// (preempting batch at the row boundary), and batch keeps a guaranteed
// anti-starvation share of grants (see codec.Pool). The
// closed-loop QoS controller (qos.go) degrades batch one level ahead of
// live under overload, same ordering, same rationale.
//
// # What may block where
//
// A slow-reading client blocks its own session only: the packet write
// blocks in the kernel socket buffer, which blocks the session's emit
// callback, which (one frame in flight) blocks its next EncodeFrame —
// backpressure, not buffering. Pool workers never block on a session's
// client and never park on each other: they only run macroblock-row
// analysis tasks, whose one wait — for the row above, which is always
// running under another slot or done — spins then yields (documented
// deadlock-free in codec.Pool), and enqueueing a successor never blocks.
// A session goroutine parks for a slot only while every slot is held by a
// running row.
// A worker with nothing to run parks on the pool's cond — after a bounded
// yield-spin while frames follow one another closely enough for that to
// pay (codec.Pool's idle policy; /metrics exports vcodecd_pool_parks_total
// and vcodecd_pool_spin_pickups_total), at once under camera-rate traffic
// or none, so an idle daemon uses no CPU.
// Admission waits (queue) block only the waiting request's goroutine and
// are bounded by MaxQueued; beyond that /encode fails fast with 503.
package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

var (
	errDraining  = errors.New("server: draining, not admitting sessions")
	errQueueFull = errors.New("server: session queue full")
)

// scheduler is the admission controller: at most maxSessions sessions
// encode concurrently, at most maxQueued more wait for a slot, everyone
// else is rejected immediately.
type scheduler struct {
	slots     chan struct{}
	maxQueued int
	queued    atomic.Int64

	drainCh chan struct{} // closed by beginDrain

	mu       sync.Mutex
	draining bool
	active   int
	// Per-class occupancy (live/batch priority tiers), for the QoS
	// controller's batch-first decisions and the /metrics gauges.
	activeLive  int
	activeBatch int
}

func newScheduler(maxSessions, maxQueued int) *scheduler {
	return &scheduler{
		slots:     make(chan struct{}, maxSessions),
		maxQueued: maxQueued,
		drainCh:   make(chan struct{}),
	}
}

// admit blocks until the session may start encoding. It returns
// errQueueFull when too many sessions are already waiting, errDraining
// once shutdown has begun, or ctx.Err() when the client gave up while
// queued. On nil return the caller must call release with the same
// class.
func (s *scheduler) admit(ctx context.Context, batch bool) error {
	select {
	case <-s.drainCh:
		return errDraining
	default:
	}
	select {
	case s.slots <- struct{}{}:
	default:
		// No free slot: join the bounded wait queue.
		if int(s.queued.Add(1)) > s.maxQueued {
			s.queued.Add(-1)
			return errQueueFull
		}
		defer s.queued.Add(-1)
		select {
		case s.slots <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		case <-s.drainCh:
			return errDraining
		}
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		<-s.slots
		return errDraining
	}
	s.active++
	if batch {
		s.activeBatch++
	} else {
		s.activeLive++
	}
	s.mu.Unlock()
	return nil
}

// release returns the session's slot.
func (s *scheduler) release(batch bool) {
	s.mu.Lock()
	s.active--
	if batch {
		s.activeBatch--
	} else {
		s.activeLive--
	}
	s.mu.Unlock()
	<-s.slots
}

// counts reports (active, queued) for health and metrics.
func (s *scheduler) counts() (active, queued int) {
	s.mu.Lock()
	active = s.active
	s.mu.Unlock()
	return active, int(s.queued.Load())
}

// countsByClass reports the active sessions per priority tier.
func (s *scheduler) countsByClass() (live, batch int) {
	s.mu.Lock()
	live, batch = s.activeLive, s.activeBatch
	s.mu.Unlock()
	return live, batch
}

// beginDrain stops admitting new sessions (idempotent): queued sessions
// fail with errDraining, in-flight sessions run to completion.
func (s *scheduler) beginDrain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh)
	}
	s.mu.Unlock()
}

// isDraining reports whether beginDrain has been called.
func (s *scheduler) isDraining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// waitIdle blocks until every in-flight session has released its slot, or
// ctx expires.
func (s *scheduler) waitIdle(ctx context.Context) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if active, _ := s.counts(); active == 0 {
			return nil
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
