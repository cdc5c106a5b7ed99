package codec

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestWavefrontRespectsDependencies is the scheduling proof: driven with
// no encoder behind it, the wavefront must run every macroblock exactly
// once, after its left, up-left, up and up-right neighbours completed,
// and never run two calls on one lane at once (a lane's searcher fork and
// scratch are unsynchronised). The callback touches plain memory only, so
// every ordering it relies on is the wavefront's own: under -race a
// missing happens-before edge — row to row, task to task on a lane, or
// lanes to the join — is reported as a data race even when the values
// happen to look right. It yields mid-macroblock so lanes interleave
// differently on every run.
func TestWavefrontRespectsDependencies(t *testing.T) {
	// lanes includes the caller, lane 0: caller2/pool2 is the caller plus
	// one chain, caller3/pool1 has more chains than workers to run them, and
	// the slots rows hold a pool slot on every lane, the caller's included
	// (slots3/pool2 has more lanes than slots).
	type executor struct {
		name        string
		lanes, pool int
		slots       bool
	}
	executors := []executor{
		{"inline", 1, 0, false}, {"caller2/pool2", 2, 2, false}, {"caller3/pool1", 3, 1, false}, {"caller8/pool3", 8, 3, false},
		{"slots1/pool1", 1, 1, true}, {"slots3/pool3", 3, 3, true}, {"slots3/pool2", 3, 2, true},
	}
	grids := [][2]int{{1, 1}, {1, 9}, {11, 1}, {2, 3}, {11, 9}, {22, 18}}
	for _, ex := range executors {
		var pool *Pool
		lanes := ex.lanes
		if ex.pool > 0 {
			pool = NewPool(ex.pool)
			defer pool.Close()
		}
		for _, g := range grids {
			for _, deps := range []bool{true, false} {
				cols, rows := g[0], g[1]
				name := fmt.Sprintf("%s/%dx%d/deps=%v", ex.name, cols, rows, deps)
				ran := make([]int, cols*rows) // completed calls per macroblock
				inLane := make([]int, lanes)  // calls in flight per lane
				runWavefront(cols, rows, deps, lanes, pool, ex.slots, PriorityLive, nil, func(lane, x, y int) {
					if lane < 0 || lane >= lanes {
						t.Errorf("%s: (%d,%d) ran on lane %d of %d", name, x, y, lane, lanes)
						return
					}
					if inLane[lane]++; inLane[lane] != 1 {
						t.Errorf("%s: (%d,%d) shares lane %d with a running call", name, x, y, lane)
					}
					for _, n := range [][2]int{{x - 1, y}, {x - 1, y - 1}, {x, y - 1}, {x + 1, y - 1}} {
						if !deps || n[0] < 0 || n[0] >= cols || n[1] < 0 {
							continue
						}
						if ran[n[1]*cols+n[0]] != 1 {
							t.Errorf("%s: (%d,%d) started before neighbour (%d,%d) completed", name, x, y, n[0], n[1])
						}
					}
					if (x+y)%3 == 0 {
						runtime.Gosched()
					}
					inLane[lane]--
					ran[y*cols+x]++
				})
				for i, n := range ran {
					if n != 1 {
						t.Errorf("%s: macroblock (%d,%d) ran %d times by the join", name, i%cols, i/cols, n)
					}
				}
			}
		}
	}
}

// TestPoolRowTasksNoDeadlock: more sessions than workers, on one
// processor. A row task that waits for the row above only ever waits for a
// task that is running (rows are claimed at start), and waits by yielding,
// so six mixed-class sessions on Pool(2) must all finish under
// GOMAXPROCS=1 — and emit the serial encoder's bytes.
func TestPoolRowTasksNoDeadlock(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	frames := parallelFrames(5)
	_, want, err := EncodeSequence(Config{Qp: 16, Searcher: core.New(core.DefaultParams), Workers: 1}, frames)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(2)
	defer pool.Close()
	const sessions = 6
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, bs, err := EncodeSequence(Config{
				Qp: 16, Searcher: core.New(core.DefaultParams),
				Pool: pool, Priority: Priority(i % 2), Pipeline: i%3 == 0,
			}, frames)
			if err != nil {
				t.Errorf("session %d: %v", i, err)
			} else if !bytes.Equal(bs, want) {
				t.Errorf("session %d: bitstream differs from the serial encode", i)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("sessions still running after 60s: row tasks deadlocked or live-locked")
	}
}
