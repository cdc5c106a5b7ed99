package codec

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/search"
)

// actuatedSearchers are the searchers with a complexity dial, each built
// fresh per encode: plain ACBM (α/γ relaxed by 1/scale) and the budget
// servo (target scaled).
var actuatedSearchers = []struct {
	name string
	make func(t *testing.T) search.Searcher
}{
	{"acbm", func(*testing.T) search.Searcher { return core.New(core.DefaultParams) }},
	{"budgeted", func(t *testing.T) search.Searcher {
		b, err := core.NewBudgeted(150, core.DefaultParams)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}},
}

// encodeActuatedPackets encodes a fixed sequence through EncodeStream with
// a fixed actuation-by-frame-index schedule — the determinism contract a
// serving-layer QoS controller relies on. The schedule exercises both
// Actuation fields: the dial halved with the quantiser up (frame 2), the
// dial at an eighth (frame 4), and a full restoration (frame 7).
func encodeActuatedPackets(t *testing.T, s search.Searcher, mut func(cfg *Config)) ([][]byte, *SequenceStats) {
	t.Helper()
	cfg := Config{Qp: 14, Searcher: s, Workers: 1}
	mut(&cfg)
	sched := map[int]Actuation{
		2: {QpOffset: 2, BudgetScale: 0.5},
		4: {QpOffset: 4, BudgetScale: 0.125},
		7: {QpOffset: 0, BudgetScale: 1},
	}
	var pkts [][]byte
	es := NewEncodeStream(cfg, func(p Packet) error {
		pkts = append(pkts, p.Data)
		return nil
	})
	for i, f := range parallelFrames(10) {
		if a, ok := sched[i]; ok {
			es.Actuate(a)
		}
		if err := es.EncodeFrame(f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	stats, err := es.Close()
	if err != nil {
		t.Fatal(err)
	}
	return pkts, stats
}

// TestActuationByteIdenticalAcrossModes pins the QoS determinism
// guarantee: the same actuation-by-frame-index schedule produces
// byte-identical packets for every Workers × Pipeline × Pool setting,
// because actuations are consumed at frame hand-off on the session
// goroutine — never mid-frame, never on a worker.
func TestActuationByteIdenticalAcrossModes(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	for _, sc := range actuatedSearchers {
		t.Run(sc.name, func(t *testing.T) {
			refPkts, refStats := encodeActuatedPackets(t, sc.make(t), func(cfg *Config) {})

			// The schedule's observable shape on the reference: no actuation
			// forces an intra frame — only frame 0 is one. QpOffset is
			// absolute on top of the base quantiser.
			wantQp := []int{14, 14, 16, 16, 18, 18, 18, 14, 14, 14}
			for i, fs := range refStats.Frames {
				wantType := PFrame
				if i == 0 {
					wantType = IFrame
				}
				if fs.Type != wantType {
					t.Errorf("frame %d: type %v, want %v", i, fs.Type, wantType)
				}
				if fs.Qp != wantQp[i] {
					t.Errorf("frame %d: qp %d, want %d", i, fs.Qp, wantQp[i])
				}
			}

			// The actuated packet stream stays decodable end to end.
			dec, err := NewPacketDecoder(refPkts[0])
			if err != nil {
				t.Fatal(err)
			}
			for i, pkt := range refPkts[1:] {
				if _, err := dec.DecodePacket(pkt); err != nil {
					t.Fatalf("decoding actuated frame %d: %v", i, err)
				}
			}

			for _, mode := range []struct {
				name string
				mut  func(cfg *Config)
			}{
				{"workers=4", func(cfg *Config) { cfg.Workers = 4 }},
				{"pipeline", func(cfg *Config) { cfg.Workers = 4; cfg.Pipeline = true }},
				{"pool", func(cfg *Config) { cfg.Workers = 4; cfg.Pool = pool }},
				{"pool+pipeline+batch", func(cfg *Config) {
					cfg.Workers = 4
					cfg.Pool = pool
					cfg.Pipeline = true
					cfg.Priority = PriorityBatch
				}},
			} {
				pkts, _ := encodeActuatedPackets(t, sc.make(t), mode.mut)
				if len(pkts) != len(refPkts) {
					t.Errorf("%s: %d packets, want %d", mode.name, len(pkts), len(refPkts))
					continue
				}
				for i := range pkts {
					if !bytes.Equal(pkts[i], refPkts[i]) {
						t.Errorf("%s: packet %d differs from serial reference (%d vs %d bytes)",
							mode.name, i, len(pkts[i]), len(refPkts[i]))
					}
				}
			}
		})
	}
}

// TestActuationLastWriteWins pins the mailbox semantics: multiple
// Actuate calls between frames collapse to the last one, and the losing
// call's budget scale never reaches the searcher.
func TestActuationLastWriteWins(t *testing.T) {
	acbm := core.New(core.DefaultParams)
	var pkts [][]byte
	es := NewEncodeStream(Config{Qp: 16, Searcher: acbm}, func(p Packet) error {
		pkts = append(pkts, p.Data)
		return nil
	})
	frames := parallelFrames(3)
	if err := es.EncodeFrame(frames[0]); err != nil {
		t.Fatal(err)
	}
	es.Actuate(Actuation{QpOffset: 10, BudgetScale: 0.125})
	es.Actuate(Actuation{QpOffset: 3, BudgetScale: 1}) // wins
	for _, f := range frames[1:] {
		if err := es.EncodeFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := es.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Frames[1].Qp; got != 19 {
		t.Errorf("frame 1 qp %d, want 19 (last actuation wins)", got)
	}
	if stats.Frames[1].Type != PFrame {
		t.Error("frame 1 forced intra: an actuation never changes the frame type")
	}
	if acbm.Params != core.DefaultParams {
		t.Errorf("ACBM params %+v after the winning scale-1 actuation, want %+v", acbm.Params, core.DefaultParams)
	}
}

// gatedPool starts a one-worker pool whose worker is parked on a blocker
// task, so tests can enqueue a full task mix and then observe the exact
// dispatch order when the worker is released. order blocks until every
// recorded task has run, then returns the dispatch sequence.
func gatedPool(t *testing.T) (p *Pool, release func(), order func() []string, record func(string) func()) {
	t.Helper()
	p = NewPool(1)
	t.Cleanup(p.Close)
	var mu sync.Mutex
	var wg sync.WaitGroup
	var seq []string
	record = func(name string) func() {
		wg.Add(1) // before release: the worker is parked, Wait not yet racing
		return func() {
			mu.Lock()
			seq = append(seq, name)
			mu.Unlock()
			wg.Done()
		}
	}
	running := make(chan struct{})
	gate := make(chan struct{})
	p.submit(PriorityLive, func() {
		close(running)
		<-gate
	})
	<-running // the worker is parked; later submits only enqueue
	order = func() []string {
		wg.Wait()
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), seq...)
	}
	return p, func() { close(gate) }, order, record
}

// TestPoolLivePreemptsBatch: with batch tasks queued first, a live task
// still dispatches ahead of all of them — preemption at the task (i.e.
// anti-diagonal) boundary.
func TestPoolLivePreemptsBatch(t *testing.T) {
	p, release, order, record := gatedPool(t)
	for i := 0; i < 4; i++ {
		p.submit(PriorityBatch, record(fmt.Sprintf("B%d", i)))
	}
	p.submit(PriorityLive, record("L0"))
	release()
	got := order()
	want := []string{"L0", "B0", "B1", "B2", "B3"}
	for i, name := range want {
		if got[i] != name {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
}

// TestPoolBatchNeverStarves: under a sustained live flood, a waiting
// batch task is dispatched after at most batchShare live dispatches, and
// order within each class stays FIFO. The expected sequence is exact
// because the pool has one worker and every task is enqueued before the
// worker is released.
func TestPoolBatchNeverStarves(t *testing.T) {
	p, release, order, record := gatedPool(t)
	var want []string
	for i := 0; i < 3; i++ {
		p.submit(PriorityBatch, record(fmt.Sprintf("B%d", i)))
	}
	for i := 0; i < 30; i++ {
		p.submit(PriorityLive, record(fmt.Sprintf("L%d", i)))
	}
	// liveRun counts live dispatches while batch waits; at batchShare the
	// next dispatch is forced to batch: 8 live, B0, 8 live, B1, ...
	li := 0
	for _, b := range []string{"B0", "B1", "B2"} {
		for i := 0; i < batchShare; i++ {
			want = append(want, fmt.Sprintf("L%d", li))
			li++
		}
		want = append(want, b)
	}
	for ; li < 30; li++ {
		want = append(want, fmt.Sprintf("L%d", li))
	}
	release()
	got := order()
	for i, name := range want {
		if got[i] != name {
			t.Fatalf("dispatch %d = %s, want %s (full order %v)", i, got[i], name, got)
		}
	}
}

// TestPoolPriorityDoesNotChangeBits: Config.Priority is pure scheduling —
// a batch-priority encode on a shared pool emits the bytes of a serial
// live encode.
func TestPoolPriorityDoesNotChangeBits(t *testing.T) {
	frames := parallelFrames(5)
	_, refBS, err := EncodeSequence(Config{Qp: 16, Searcher: core.New(core.DefaultParams), Workers: 1}, frames)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(3)
	defer pool.Close()
	for _, pri := range []Priority{PriorityLive, PriorityBatch} {
		_, bs, err := EncodeSequence(Config{
			Qp: 16, Searcher: core.New(core.DefaultParams),
			Workers: 4, Pool: pool, Priority: pri,
		}, frames)
		if err != nil {
			t.Fatalf("priority=%v: %v", pri, err)
		}
		if !bytes.Equal(bs, refBS) {
			t.Errorf("priority=%v: bitstream differs from serial reference", pri)
		}
	}
}

// TestPriorityString covers the Stringer.
func TestPriorityString(t *testing.T) {
	if PriorityLive.String() != "live" || PriorityBatch.String() != "batch" {
		t.Errorf("Priority strings: %q, %q", PriorityLive, PriorityBatch)
	}
}
