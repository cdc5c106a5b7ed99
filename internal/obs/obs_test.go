package obs

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceIDFormat(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("trace ID %q: want 16 hex chars", id)
		}
		if SanitizeTraceID(id) != id {
			t.Fatalf("minted trace ID %q does not survive sanitization", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q in 100 draws", id)
		}
		seen[id] = true
	}
}

func TestSanitizeTraceID(t *testing.T) {
	for _, ok := range []string{"abc", "A-b_9", strings.Repeat("x", 64)} {
		if SanitizeTraceID(ok) != ok {
			t.Errorf("sanitize rejected %q", ok)
		}
	}
	for _, bad := range []string{"", "a b", "x\n", "id\"}", strings.Repeat("x", 65), "é"} {
		if got := SanitizeTraceID(bad); got != "" {
			t.Errorf("sanitize accepted %q as %q", bad, got)
		}
	}
}

func TestHistogramExposition(t *testing.T) {
	h := NewHistogram("test_latency_seconds", "test latencies")
	durations := []time.Duration{
		0, 500 * time.Nanosecond, time.Microsecond, 3 * time.Microsecond,
		time.Millisecond, 20 * time.Millisecond, time.Second, 2 * time.Minute,
	}
	var sum time.Duration
	for _, d := range durations {
		h.Observe(d)
		sum += d
	}
	var b strings.Builder
	h.WriteProm(&b)
	out := b.String()

	if !strings.Contains(out, "# TYPE test_latency_seconds histogram") {
		t.Fatalf("missing TYPE line:\n%s", out)
	}
	// Buckets must be cumulative and non-decreasing, count == +Inf.
	var prev, inf, count int64 = -1, -1, -1
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "test_latency_seconds_bucket"):
			v, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if err != nil {
				t.Fatalf("bucket line %q: %v", line, err)
			}
			if v < prev {
				t.Fatalf("bucket counts not cumulative: %q after %d", line, prev)
			}
			prev = v
			if strings.Contains(line, `le="+Inf"`) {
				inf = v
			}
		case strings.HasPrefix(line, "test_latency_seconds_count"):
			count, _ = strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
		}
	}
	if inf != int64(len(durations)) {
		t.Fatalf("+Inf bucket %d, want %d", inf, len(durations))
	}
	if count != inf {
		t.Fatalf("_count %d != +Inf bucket %d", count, inf)
	}
	wantSum := fmt.Sprintf("%g", sum.Seconds())
	if !strings.Contains(out, "test_latency_seconds_sum "+wantSum) {
		t.Fatalf("sum line missing %s:\n%s", wantSum, out)
	}
}

func TestRecorderTimelineAndWrap(t *testing.T) {
	r := NewFlightRecorder("t1", Meta{Priority: "live", Searcher: "acbm", PinnedLevel: -1}, 8)
	const frames = 20 // 8-slot ring: only the last 8 survive
	for i := 0; i < frames; i++ {
		r.FrameRead(i, time.Millisecond)
		if i == 5 {
			r.FrameActuated(i, 2)
		}
		r.FrameAnalyzed(i, 2*time.Millisecond, 100*time.Microsecond, 40*time.Microsecond, i == 0, 16+i)
		r.FrameWritten(i, 300*time.Microsecond, 1000+i)
		r.FrameEmitted(i, 50*time.Microsecond)
	}
	r.Finish(nil)
	rec := r.Snapshot()
	if rec.Frames != frames {
		t.Fatalf("frames %d, want %d", rec.Frames, frames)
	}
	if rec.DroppedFrames != frames-8 {
		t.Fatalf("dropped %d, want %d", rec.DroppedFrames, frames-8)
	}
	if len(rec.Events) != 8 {
		t.Fatalf("%d events, want 8", len(rec.Events))
	}
	for i, ev := range rec.Events {
		want := frames - 8 + i
		if ev.Index != want {
			t.Fatalf("event %d has index %d, want %d", i, ev.Index, want)
		}
		if ev.Qp != 16+want || ev.Bits != 1000+want {
			t.Fatalf("event %d: qp %d bits %d, want %d/%d", i, ev.Qp, ev.Bits, 16+want, 1000+want)
		}
		if ev.QosLevel != 2 {
			t.Fatalf("event %d: qos level %d, want 2 (actuated at frame 5)", i, ev.QosLevel)
		}
		if ev.AnalysisMs != 2 || ev.ReadMs != 1 {
			t.Fatalf("event %d: analysis %v read %v", i, ev.AnalysisMs, ev.ReadMs)
		}
	}
	if !rec.Done || rec.Error != "" {
		t.Fatalf("record done=%v err=%q", rec.Done, rec.Error)
	}
}

// TestRecorderConcurrent is the -race hammer: analysis-side writes,
// writer-goroutine writes, and snapshot readers all running at once, on
// a ring the writers lap ~30 times.
//
// What a snapshot taken against a wrapping writer promises is that every
// event it returns is one frame's own record, never a mixture, and that
// events come in frame order from the ring's current window. It does not
// promise a gap-free timeline: Snapshot scans slots oldest-first while
// the writer overwrites them oldest-first, so the writer can lap the scan
// for a few slots (those are dropped, by the index re-check) and fall
// behind it again. Contiguity holds once the writers are quiet, and is
// asserted there.
func TestRecorderConcurrent(t *testing.T) {
	const ring, frames = 64, 2000
	r := NewFlightRecorder("hammer", Meta{PinnedLevel: -1}, ring)
	// The analysis-side payload is a function of the frame index, so a
	// reader can tell a slot's own values from a neighbour's.
	wall := func(i int) time.Duration { return time.Duration(i+1) * time.Millisecond }
	qp := func(i int) int { return i%31 + 1 }
	check := func(rec Record) {
		for j, ev := range rec.Events {
			if j > 0 && ev.Index <= rec.Events[j-1].Index {
				t.Errorf("events out of order: %d after %d", ev.Index, rec.Events[j-1].Index)
				return
			}
			if ev.Index < rec.Frames-ring || ev.Index >= rec.Frames {
				t.Errorf("event %d outside the ring window [%d, %d)", ev.Index, rec.Frames-ring, rec.Frames)
				return
			}
			if ev.AnalysisMs != float64(ev.Index+1) || ev.Qp != qp(ev.Index) {
				t.Errorf("event %d carries another frame's record: analysis %v ms, qp %d", ev.Index, ev.AnalysisMs, ev.Qp)
				return
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // session goroutine: read + analysis
		defer wg.Done()
		for i := 0; i < frames; i++ {
			r.FrameRead(i, time.Microsecond)
			r.FrameAnalyzed(i, wall(i), 0, 0, false, qp(i))
		}
	}()
	go func() { // pipeline writer goroutine: entropy + emit
		defer wg.Done()
		for i := 0; i < frames; i++ {
			r.FrameWritten(i, time.Microsecond, 500)
			r.FrameEmitted(i, time.Microsecond)
		}
	}()
	go func() { // debug endpoint reader
		defer wg.Done()
		for i := 0; i < 200; i++ {
			check(r.Snapshot())
		}
	}()
	wg.Wait()
	r.Finish(nil)
	rec := r.Snapshot()
	check(rec)
	if rec.Frames != frames || rec.DroppedFrames != frames-ring {
		t.Fatalf("frames %d dropped %d, want %d / %d", rec.Frames, rec.DroppedFrames, frames, frames-ring)
	}
	if len(rec.Events) != ring || rec.Events[0].Index != frames-ring {
		t.Fatalf("quiescent snapshot holds %d events from %d, want the last %d frames gap-free",
			len(rec.Events), rec.Events[0].Index, ring)
	}
}

// TestNilRecorder pins the compiled-out baseline: every method of a nil
// recorder is a safe no-op.
func TestNilRecorder(t *testing.T) {
	var r *FlightRecorder
	r.FrameRead(0, time.Second)
	r.FrameActuated(0, 1)
	r.SetQosLevel(1)
	r.FrameAnalyzed(0, time.Second, 0, 0, true, 16)
	r.FrameWritten(0, time.Second, 1)
	r.FrameEmitted(0, time.Second)
	r.Finish(nil)
	if r.TraceID() != "" || r.Snapshot().Frames != 0 || r.Summarize().TraceID != "" {
		t.Fatal("nil recorder not a no-op")
	}
}

func TestRegistryLifecycle(t *testing.T) {
	g := NewRegistry(2)
	mk := func(id string) *FlightRecorder { return NewFlightRecorder(id, Meta{}, 4) }
	a, b, c := mk("a"), mk("b"), mk("c")
	g.Add(a)
	g.Add(b)
	if g.Lookup("a") != a || g.Lookup("b") != b {
		t.Fatal("live lookup failed")
	}
	live, completed := g.Sessions()
	if len(live) != 2 || len(completed) != 0 {
		t.Fatalf("live %d completed %d, want 2/0", len(live), len(completed))
	}
	g.Complete(a)
	g.Complete(b)
	g.Add(c)
	g.Complete(c) // ring cap 2: "a" falls out
	if g.Lookup("a") != nil {
		t.Fatal("evicted session still resolvable")
	}
	if g.Lookup("b") != b || g.Lookup("c") != c {
		t.Fatal("completed lookup failed")
	}
	live, completed = g.Sessions()
	if len(live) != 0 || len(completed) != 2 {
		t.Fatalf("live %d completed %d, want 0/2", len(live), len(completed))
	}
	if completed[0].TraceID != "c" {
		t.Fatalf("completed not newest-first: %q", completed[0].TraceID)
	}
	if g.Lookup("nope") != nil {
		t.Fatal("unknown ID resolved")
	}
}
