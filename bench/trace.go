package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the bench around the
// call (spans inside the program are a later change). Spans of one frame or
// session share ID; Parent is the index of the span that caused this one,
// -1 for a root. Count is the units of work done inside (blocks, kernel
// calls, tiles, frames), so unit costs are measured where the work happens.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. It is safe for the
// concurrent use parallel_cif's writer goroutine and the serving clients
// need.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name, id string, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span i, recording the work it did, and returns its duration
// in nanoseconds.
func (t *tracer) end(i int, count int64) int64 {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End, t.spans[i].Count = now, count
	return now - t.spans[i].Start
}

// add records a span whose interval was measured elsewhere: the program's
// own signals (Observer walls, flight-recorder events) rebuilt as spans.
func (t *tracer) add(name, id string, parent int, start time.Time, d time.Duration, count int64) int {
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: s, End: s + d.Nanoseconds(), Count: count})
	return len(t.spans) - 1
}

// total sums duration and work over every span called name.
func (t *tracer) total(name string) (ns, count int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.End >= s.Start {
			ns += s.End - s.Start
			count += s.Count
		}
	}
	return ns, count
}

// perUnit is the mean cost of one unit of work in spans called name.
func (t *tracer) perUnit(name string) float64 {
	ns, n := t.total(name)
	return ratio(float64(ns), float64(n))
}

// selfTimes fills Self on every span: its duration minus the part of that
// interval its child spans cover (children may overlap one another, as the
// phases of a pipelined encode do, so the cover is a union).
func selfTimes(spans []span) {
	type iv struct{ a, b int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= s.Start {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.End < s.Start {
			continue
		}
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return ks[a].a < ks[b].a })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			a, b := max(k.a, edge), min(k.b, s.End)
			if b > a {
				covered += b - a
				edge = b
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// write stores the trace as JSON at path, self times filled in.
func (t *tracer) write(path, workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	selfTimes(t.spans)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
