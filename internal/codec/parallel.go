package codec

import (
	"sync"
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
// (x,y−1) and up-right (x+1,y−1) entries of the current field. Under the
// anti-diagonal index d = x + 2y those neighbours live on diagonals d−1,
// d−3, d−2 and d−1 — all strictly earlier — so every macroblock of one
// diagonal can be analysed concurrently once the previous diagonal is
// complete. This is the same wavefront H.264/HEVC encoders use, adapted
// to this field's up-right (rather than up-left-only) reach.
//
// Each worker owns a forked Searcher (search.Forker) for the frame;
// core.ACBM documents that it is not concurrency-safe, so every worker
// gets its own instance and the additive Stats merge back in Join. All
// other shared writes are disjoint: each macroblock touches only its own
// 16×16 (8×8 chroma) region of the reconstruction, its own motion-field
// entry and its own mbResult slot. The WaitGroup barrier between
// diagonals publishes those writes to the workers of later diagonals.
//
// Determinism: the set of field entries visible to a macroblock equals
// exactly the causal set the sequential raster scan would have computed
// (Candidates reads only the four neighbours above), so every mbResult —
// and with it the serial entropy pass — is bit-identical for any worker
// count ≥ 1.

// analyzeFrame fills results (and recon, and curField for P-frames) for
// every macroblock of src, using the configured number of workers — or,
// when Config.Pool is set, the shared cross-session worker pool. Intra
// frames have no cross-MB dependencies and skip the wavefront barriers.
func (e *Encoder) analyzeFrame(src, recon *frame.Frame, curField *mvfield.Field, results []mbResult, intra bool) {
	if e.cfg.Pool != nil {
		e.analyzeFramePool(src, recon, curField, results, intra)
		return
	}
	cols, rows := e.size.MacroblockCols(), e.size.MacroblockRows()
	nw := e.workerCount()
	if nw > rows*cols {
		nw = rows * cols
	}
	if nw <= 1 {
		// Sequential analysis still runs the frame-granular fork/join
		// protocol: searchers with per-frame control state (core.Budgeted
		// freezes its thresholds per frame and servos them at the last
		// Join) must see the same frame boundaries at every worker count,
		// or the bitstream would depend on Config.Workers.
		s := e.cfg.Searcher
		var forked search.Searcher
		if !intra && e.forker != nil {
			forked = e.forker.Fork()
			s = forked
		}
		var scratch mbScratch
		scratch.init()
		for mby := 0; mby < rows; mby++ {
			for mbx := 0; mbx < cols; mbx++ {
				if intra {
					e.analyzeIntraMB(src, recon, mbx, mby, &results[mby*cols+mbx])
				} else {
					e.analyzeInterMB(s, &scratch, src, recon, curField, mbx, mby, &results[mby*cols+mbx])
				}
			}
		}
		if forked != nil {
			e.forker.Join(forked)
		}
		return
	}

	// Fork one searcher per worker for the duration of the frame.
	searchers := make([]search.Searcher, nw)
	if intra {
		// Intra analysis never runs motion search.
	} else {
		for i := range searchers {
			searchers[i] = e.forker.Fork()
		}
	}

	jobs := make(chan int, cols+rows)
	var wg sync.WaitGroup
	var workers sync.WaitGroup
	for w := 0; w < nw; w++ {
		workers.Add(1)
		go func(s search.Searcher) {
			defer workers.Done()
			var scratch mbScratch
			scratch.init()
			for idx := range jobs {
				mbx, mby := idx%cols, idx/cols
				if intra {
					e.analyzeIntraMB(src, recon, mbx, mby, &results[idx])
				} else {
					e.analyzeInterMB(s, &scratch, src, recon, curField, mbx, mby, &results[idx])
				}
				wg.Done()
			}
		}(searchers[w])
	}

	if intra {
		wg.Add(rows * cols)
		for idx := 0; idx < rows*cols; idx++ {
			jobs <- idx
		}
		wg.Wait()
	} else {
		for d := 0; d <= (cols-1)+2*(rows-1); d++ {
			n := 0
			loY := (d - (cols - 1) + 1) / 2
			if loY < 0 {
				loY = 0
			}
			hiY := d / 2
			if hiY > rows-1 {
				hiY = rows - 1
			}
			n = hiY - loY + 1
			if n <= 0 {
				continue
			}
			wg.Add(n)
			for mby := loY; mby <= hiY; mby++ {
				mbx := d - 2*mby
				jobs <- mby*cols + mbx
			}
			wg.Wait() // barrier: diagonal complete, writes published
		}
	}
	close(jobs)
	workers.Wait()

	if !intra {
		for _, s := range searchers {
			e.forker.Join(s)
		}
	}
}

// analyzeFramePool is analyzeFrame's shared-pool variant: identical
// wavefront schedule and invariants, but the per-macroblock tasks run on
// Config.Pool's cross-session workers instead of frame-private
// goroutines. Forked searchers are borrowed from a buffered channel by
// whichever pool worker picks the task up; the set is sized to the
// largest possible concurrent task count (one anti-diagonal, itself
// capped by the pool size), so borrowing never blocks. Searcher identity
// does not affect the search result — forks share the parent's
// parameters and differ only in their (additively merged) statistics — so
// bitstreams stay bit-identical to the sequential encoder, exactly as in
// the private-worker path.
func (e *Encoder) analyzeFramePool(src, recon *frame.Frame, curField *mvfield.Field, results []mbResult, intra bool) {
	pool := e.cfg.Pool
	cols, rows := e.size.MacroblockCols(), e.size.MacroblockRows()
	var wg sync.WaitGroup

	// With an Observer attached each task additionally records how long
	// it sat in the pool queue (the cross-session contention /
	// preemption-stall signal). The timestamp capture and atomic adds
	// observe scheduling, never influence it, so results are unchanged;
	// the nil-observer closures below stay literally the pre-observer
	// code so the hot path and its allocation profile are untouched.
	observe := e.cfg.Observer != nil

	if intra {
		wg.Add(rows * cols)
		for idx := 0; idx < rows*cols; idx++ {
			idx := idx
			if observe {
				submitT := time.Now()
				pool.submit(e.cfg.Priority, func() {
					e.noteQueueWait(time.Since(submitT))
					e.analyzeIntraMB(src, recon, idx%cols, idx/cols, &results[idx])
					wg.Done()
				})
			} else {
				pool.submit(e.cfg.Priority, func() {
					e.analyzeIntraMB(src, recon, idx%cols, idx/cols, &results[idx])
					wg.Done()
				})
			}
		}
		wg.Wait()
		return
	}

	// One anti-diagonal has at most min(rows, cols/2+1) macroblocks, and
	// the pool runs at most pool.Size() tasks at once; forking the smaller
	// count guarantees a searcher is always available to a running task.
	// Each fork travels with its own analysis scratch, so pool tasks
	// allocate nothing per macroblock.
	type analysisCtx struct {
		s  search.Searcher
		sc mbScratch
	}
	f := e.forker
	nf := rows
	if c := cols/2 + 1; c < nf {
		nf = c
	}
	if pool.Size() < nf {
		nf = pool.Size()
	}
	searchers := make(chan *analysisCtx, nf)
	for i := 0; i < nf; i++ {
		c := &analysisCtx{s: f.Fork()}
		c.sc.init()
		searchers <- c
	}

	for d := 0; d <= (cols-1)+2*(rows-1); d++ {
		loY := (d - (cols - 1) + 1) / 2
		if loY < 0 {
			loY = 0
		}
		hiY := d / 2
		if hiY > rows-1 {
			hiY = rows - 1
		}
		if hiY < loY {
			continue
		}
		wg.Add(hiY - loY + 1)
		for mby := loY; mby <= hiY; mby++ {
			mbx := d - 2*mby
			idx := mby*cols + mbx
			mbx, mby := mbx, mby
			if observe {
				submitT := time.Now()
				pool.submit(e.cfg.Priority, func() {
					e.noteQueueWait(time.Since(submitT))
					c := <-searchers
					e.analyzeInterMB(c.s, &c.sc, src, recon, curField, mbx, mby, &results[idx])
					searchers <- c
					wg.Done()
				})
			} else {
				pool.submit(e.cfg.Priority, func() {
					c := <-searchers
					e.analyzeInterMB(c.s, &c.sc, src, recon, curField, mbx, mby, &results[idx])
					searchers <- c
					wg.Done()
				})
			}
		}
		wg.Wait() // barrier: diagonal complete, writes published
	}

	for i := 0; i < nf; i++ {
		f.Join((<-searchers).s)
	}
}
