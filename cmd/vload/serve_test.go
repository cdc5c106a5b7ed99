package main

import (
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/server"
	"repro/internal/video"
)

// TestRunServeWorstSession drives the serving benchmark against an
// in-process vcodecd and pins the flight-recorder contract the reports
// depend on: every point names its slowest session by trace ID, the
// timeline fetched for that ID has one event per streamed frame, and
// the rendered report prints both.
func TestRunServeWorstSession(t *testing.T) {
	srv := server.New(server.Config{MaxSessions: 4})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	res, err := RunServe(ServeConfig{
		URL:      ts.URL,
		Sessions: []int{2},
		Frames:   4,
		Size:     frame.SQCIF,
		Profile:  video.Foreman,
		Verify:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("%d points, want 1", len(res.Points))
	}
	w := res.Points[0].Worst
	if w == nil {
		t.Fatal("point has no worst session")
	}
	if w.TraceID == "" {
		t.Error("worst session has no trace ID")
	}
	if w.WallMs <= 0 {
		t.Errorf("worst session wall %v ms", w.WallMs)
	}
	if len(w.Timeline) != 4 {
		t.Fatalf("worst-session timeline has %d events, want 4", len(w.Timeline))
	}
	for _, ev := range w.Timeline {
		if ev.Bits <= 0 || ev.AnalysisMs <= 0 {
			t.Errorf("frame %d: bits=%d analysis=%.3fms", ev.Index, ev.Bits, ev.AnalysisMs)
		}
	}

	report := FormatServe(res)
	if !strings.Contains(report, "trace="+w.TraceID) {
		t.Errorf("report does not name the worst session's trace ID:\n%s", report)
	}
	if !strings.Contains(report, "frame   3") {
		t.Errorf("report does not dump the per-frame timeline:\n%s", report)
	}
}
