package codec

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/search"
	"repro/internal/video"
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

// hold occupies every worker and every slot of p with a long task until
// the returned release is called.
func hold(p *Pool) (release func()) {
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
// the call and every slot is free again.
func drain(p *Pool) {
	hold(p)()
	for {
		p.mu.Lock()
		free := p.free
		p.mu.Unlock()
		if free == p.size {
			return
		}
		runtime.Gosched()
	}
}

// queuedLanes reports how many session goroutines wait in p's class
// queues for a slot.
func queuedLanes(p *Pool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, q := range [][]slotWait{p.live, p.batch} {
		for _, w := range q {
			if w.lane != nil {
				n++
			}
		}
	}
	return n
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
	atProcs(t, func(t *testing.T) {
		// The scheduler alone, on a private pool.
		p := NewPool(2)
		defer p.Close()
		release := hold(p)
		var calls, offLane atomic.Int32
		for n := 0; n < 3; n++ {
			runWavefront(11, 9, true, 2, p, false, PriorityLive, nil, func(lane, x, y int) {
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

// countingSearcher wraps a Forker and counts, across every fork sharing
// its counter, how many Search calls are in flight at once: each one is a
// macroblock in analysis, on a row that holds a lane.
type countingSearcher struct {
	inner search.Forker
	c     *inFlight
}

type inFlight struct{ now, peak atomic.Int32 }

func (c *inFlight) enter() {
	n := c.now.Add(1)
	for p := c.peak.Load(); n > p && !c.peak.CompareAndSwap(p, n); p = c.peak.Load() {
	}
}

func (s *countingSearcher) Name() string { return s.inner.Name() }

func (s *countingSearcher) Search(in *search.Input) search.Result {
	s.c.enter()
	defer s.c.now.Add(-1)
	runtime.Gosched() // let other sessions in, if a slot lets them
	return s.inner.Search(in)
}

func (s *countingSearcher) Fork() search.Searcher {
	return &countingSearcher{inner: s.inner.Fork().(search.Forker), c: s.c}
}

func (s *countingSearcher) Join(f search.Searcher) { s.inner.Join(f.(*countingSearcher).inner) }

// TestPoolSlotsCapRunningRows: a shared pool's Size is a cap on running
// rows, whoever runs them — session goroutines (lane 0) and helper chains
// alike. Four sessions on Pool(2), first straight on the scheduler, where
// the run callback brackets each row (a row's macroblocks run in order on
// one lane, so x = 0 starts it and x = cols−1 ends it), on a QCIF grid
// (one lane each) and a CIF grid (two): never more than two rows at once.
// Then four QCIF encoder sessions: never more than two macroblocks in
// motion search at once, and every session's bytes equal the serial
// encode's.
func TestPoolSlotsCapRunningRows(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		p := NewPool(2)
		defer p.Close()
		for _, g := range [][2]int{{11, 9}, {22, 18}} {
			cols, rows := g[0], g[1]
			_, lanes := frameLanes(p, 0, cols, rows)
			var running, peak atomic.Int32
			var wg sync.WaitGroup
			for s := 0; s < 4; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for n := 0; n < 3; n++ {
						runWavefront(cols, rows, true, lanes, p, true, Priority(s%2), nil, func(lane, x, y int) {
							if x == 0 {
								n := running.Add(1)
								for q := peak.Load(); n > q && !peak.CompareAndSwap(q, n); q = peak.Load() {
								}
							}
							runtime.Gosched()
							if x == cols-1 {
								running.Add(-1)
							}
						})
					}
				}()
			}
			wg.Wait()
			t.Logf("%dx%d, %d lanes a frame: peak %d rows running", cols, rows, lanes, peak.Load())
			if peak.Load() > int32(p.Size()) {
				t.Errorf("%dx%d: %d rows ran at once on a pool of %d slots", cols, rows, peak.Load(), p.Size())
			}
		}

		frames := video.Generate(video.Carphone, frame.QCIF, 4, 7)
		_, want, err := EncodeSequence(Config{Qp: 16, Searcher: core.New(core.DefaultParams), Workers: 1}, frames)
		if err != nil {
			t.Fatal(err)
		}
		var c inFlight
		var wg sync.WaitGroup
		for s := 0; s < 4; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, bs, err := EncodeSequence(Config{
					Qp: 16, Searcher: &countingSearcher{inner: core.New(core.DefaultParams), c: &c},
					Pool: p, Priority: Priority(s % 2), Pipeline: s == 0,
				}, frames)
				if err != nil {
					t.Error(err)
				} else if !bytes.Equal(bs, want) {
					t.Errorf("session %d: bitstream differs from the serial encode", s)
				}
			}()
		}
		wg.Wait()
		t.Logf("four QCIF sessions: peak %d macroblocks in search", c.peak.Load())
		if c.peak.Load() > int32(p.Size()) {
			t.Errorf("%d macroblocks in search at once on a pool of %d slots", c.peak.Load(), p.Size())
		}
	})
}

// TestPoolLaneStopsAfterLastRow: once every row of a frame is claimed,
// the session goroutine takes no further slot. On a Pool(1), the frame's
// last macroblock queues a task that holds the slot until the test lets
// it go; the slot passes to that task as the last row ends, and the frame
// must still return — a lane that went back to acquire would queue behind
// the task for as long as it holds the slot.
func TestPoolLaneStopsAfterLastRow(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		p := NewPool(1)
		defer p.Close()
		gate := make(chan struct{})
		done := make(chan struct{})
		const cols, rows = 3, 3
		go func() {
			defer close(done)
			runWavefront(cols, rows, true, 1, p, true, PriorityLive, nil, func(lane, x, y int) {
				if x == cols-1 && y == rows-1 {
					p.submit(PriorityLive, func() { <-gate })
				}
			})
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Errorf("frame still running with every row done, %d lanes queued for a slot", queuedLanes(p))
		}
		close(gate)
		<-done
		drain(p)
	})
}

// TestPoolSlotGrantsFollowPriority: session goroutines queue for a slot in
// the same classes as row tasks and are granted in the same order. With
// the one slot of a Pool(1) held, a batch task, a batch lane and another
// batch task queue, then a live lane and a stream of live tasks; released,
// the live lane is granted first, ahead of everything batch queued before
// it, and batch still receives one grant after every batchShare live
// ones, its task and lane in FIFO order.
func TestPoolSlotGrantsFollowPriority(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		p := NewPool(1)
		defer p.Close()
		release := hold(p)

		var mu sync.Mutex
		var order []string
		var wg sync.WaitGroup
		note := func(name string) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		}
		task := func(pri Priority, name string) {
			wg.Add(1)
			p.submit(pri, func() {
				note(name)
				wg.Done()
			})
		}
		lane := func(pri Priority, name string) {
			queued := queuedLanes(p)
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.acquire(pri, make(chan struct{}, 1))
				note(name)
				p.release()
			}()
			for queuedLanes(p) == queued {
				runtime.Gosched()
			}
		}
		task(PriorityBatch, "B0")
		lane(PriorityBatch, "Blane")
		task(PriorityBatch, "B1")
		lane(PriorityLive, "Llane")
		const lives = 3*batchShare + 2
		for i := 0; i < lives; i++ {
			task(PriorityLive, fmt.Sprintf("L%d", i))
		}
		release()
		wg.Wait()

		var want []string
		live := append([]string{"Llane"}, make([]string, lives)...)
		for i := 0; i < lives; i++ {
			live[i+1] = fmt.Sprintf("L%d", i)
		}
		for _, b := range []string{"B0", "Blane", "B1"} {
			want = append(want, live[:batchShare]...)
			live = live[batchShare:]
			want = append(want, b)
		}
		want = append(want, live...)
		if fmt.Sprint(order) != fmt.Sprint(want) {
			t.Errorf("grant order\n got %v\nwant %v", order, want)
		}
	})
}
