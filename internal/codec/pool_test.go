package codec

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/search"
)

// atProcs runs body at the process's GOMAXPROCS and again on one P, where
// a spin that does not yield, or a join that waits for a queued task, never
// finishes. The default pool is started first, so it keeps its full size,
// and each run begins once it is the only pool left and idle.
func atProcs(t *testing.T, body func(t *testing.T)) {
	settle := func(t *testing.T) { waitAllParked(t, defaultPool().Size()) }
	t.Run("procs=default", func(t *testing.T) {
		settle(t)
		body(t)
	})
	t.Run("procs=1", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		settle(t)
		body(t)
	})
}

// poolWorkerStacks returns the stack of every goroutine running a Pool
// worker loop, from a full goroutine dump.
func poolWorkerStacks() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "codec.(*Pool).worker") {
			out = append(out, g)
		}
	}
	return out
}

// waitAllParked polls until the process has exactly want pool workers and
// every one of them is blocked in sync.Cond.Wait.
func waitAllParked(t *testing.T, want int) {
	t.Helper()
	var stacks []string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		stacks = poolWorkerStacks()
		parked := 0
		for _, g := range stacks {
			if strings.Contains(g, "sync.(*Cond).Wait") {
				parked++
			}
		}
		if parked == want && len(stacks) == want {
			return
		}
	}
	t.Fatalf("want %d pool workers, all parked in Cond.Wait; have:\n%s", want, strings.Join(stacks, "\n\n"))
}

// TestPoolIdleWorkersPark: the idle spin is bounded. Left alone, every
// worker of a pool ends up blocked in sync.Cond.Wait — an idle daemon
// burns nothing — and a task submitted at any moment around that
// transition still runs: between a worker's last lock-free look at the
// queued count and its park there is no window in which a submit is lost.
func TestPoolIdleWorkersPark(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		others := defaultPool().Size()
		p := NewPool(3)
		defer p.Close()
		waitAllParked(t, others+3)
		if got := p.Stats().Parks; got < 3 {
			t.Errorf("3 parked workers, %d parks counted", got)
		}
		ran := make(chan struct{})
		for i := 0; i < 300; i++ {
			// Land on every phase of the policy: mid-spin, at the bound,
			// parked hot, parked cold. (A yield loop, not time.Sleep: a
			// sleeping test on an otherwise idle process wakes a
			// millisecond late.)
			for t0, d := time.Now(), time.Duration(i%30)*idleSpin/10; time.Since(t0) < d; {
				runtime.Gosched()
			}
			p.submit(PriorityLive, func() { ran <- struct{}{} })
			select {
			case <-ran:
			case <-time.After(10 * time.Second):
				t.Fatalf("task %d never ran: its wake-up was lost (stats %+v)", i, p.Stats())
			}
		}
		waitAllParked(t, others+3)
		if s := p.Stats(); s.SpinPickups == 0 {
			t.Errorf("300 tasks at sub-bound spacing and no spin pick-up: %+v", s)
		}
	})
}

// TestDefaultPoolFixedSize: sessions borrow lanes from the process-default
// pool and start nothing of their own — 8 concurrent and 50 sequential
// Workers=2 sessions, pipelined ones finalised, inline ones finalised or
// simply abandoned, leave the process with the goroutines it had and the
// default pool with the workers it started with.
func TestDefaultPoolFixedSize(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		size := defaultPool().Size()
		check := expectNoLeakedGoroutines(t)
		frames := parallelFrames(3)
		session := func(i int) {
			e := NewEncoder(Config{Qp: 16, Searcher: &search.PBM{}, Workers: 2, Pipeline: i%2 == 0})
			for _, f := range frames {
				if _, err := e.EncodeFrame(f); err != nil {
					t.Error(err)
					return
				}
			}
			if i%2 == 0 || i%4 == 1 {
				e.Bitstream() // a pipelined encoder owns its writer until this
			}
		}
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				session(i)
			}()
		}
		wg.Wait()
		for i := 0; i < 50; i++ {
			session(i)
		}
		check()
		if got := defaultPool().Size(); got != size {
			t.Errorf("default pool size %d, was %d", got, size)
		}
		waitAllParked(t, size)
	})
}

// TestCallerLaneProgressBehindBusyPool: a caller lane never waits for a
// queued task. With every worker of the pool held by another session's
// long rows, the caller of a two-lane frame runs all of it; the chain it
// submitted claims nothing when a worker finally reaches it, and touches
// no lane state — the lane's next frame may already be using it.
func TestCallerLaneProgressBehindBusyPool(t *testing.T) {
	// hold occupies every worker of p until the returned release is called.
	hold := func(p *Pool) (release func()) {
		gate := make(chan struct{})
		var running sync.WaitGroup
		for i := 0; i < p.Size(); i++ {
			running.Add(1)
			p.submit(PriorityLive, func() {
				running.Done()
				<-gate
			})
		}
		running.Wait()
		return func() { close(gate) }
	}
	// drain returns once every worker of p is past everything queued before
	// the call.
	drain := func(p *Pool) { hold(p)() }

	atProcs(t, func(t *testing.T) {
		// The scheduler alone, on a private pool.
		p := NewPool(2)
		defer p.Close()
		release := hold(p)
		var calls, offLane atomic.Int32
		for n := 0; n < 3; n++ {
			runWavefront(11, 9, true, 2, p, true, PriorityLive, nil, func(lane, x, y int) {
				calls.Add(1)
				if lane != 0 {
					offLane.Add(1)
				}
			})
		}
		if calls.Load() != 3*99 || offLane.Load() != 0 {
			t.Errorf("behind a busy pool: %d calls (%d off the caller's lane), want %d on lane 0", calls.Load(), offLane.Load(), 3*99)
		}
		release()
		drain(p)
		if calls.Load() != 3*99 {
			t.Errorf("the late chain tasks ran %d macroblocks of frames already joined", calls.Load()-3*99)
		}

		// The encoder, on the default pool: same bytes as the serial encode,
		// with the stale chains released into the middle of the session.
		dp := defaultPool()
		if dp.Size() < 2 {
			t.Log("one worker in the default pool: Workers=2 analyses inline, nothing to hold")
			return
		}
		frames := parallelFrames(6)
		_, want, err := EncodeSequence(Config{Qp: 16, Searcher: core.New(core.DefaultParams), Workers: 1}, frames)
		if err != nil {
			t.Fatal(err)
		}
		release = hold(dp)
		e := NewEncoder(Config{Qp: 16, Searcher: core.New(core.DefaultParams), Workers: 2})
		for i, f := range frames {
			if i == 3 {
				release()
			}
			if _, err := e.EncodeFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		if got := e.Bitstream(); !bytes.Equal(got, want) {
			t.Error("bitstream differs from the serial encode")
		}
		drain(dp)
	})
}
