package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/frame"
	"repro/internal/video"
)

// discardWriter is a flushable ResponseWriter that keeps only the header
// map and a byte count: the client side of an in-memory session.
type discardWriter struct {
	h http.Header
	n int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Flush()                      {}
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// TestServeFrameAllocCeiling pins what one single-rendition QCIF session
// allocates per frame through the handler — Y4M ingest, encode and packet
// emit, plus the in-memory request and response around them — pools
// warm. Sessions recycle their source frames into the plane pools once
// the encoder is done with them, so the 38 KB source frame a QCIF upload
// would otherwise allocate per frame is gone. Measured on a 2-vCPU amd64
// host over three 30-frame sessions: 23.3 objects and 10.7–12.6 KB per
// frame, against 32.1 and 51.5–54.0 KB when every frame was read into a
// fresh Frame. The ceilings fail loudly on that regression while leaving
// headroom for noise. The race detector drops a quarter of
// sync.Pool puts by design, so under -race the figures are only logged.
// Run by `make bench-smoke` and the regular test suite.
func TestServeFrameAllocCeiling(t *testing.T) {
	const (
		nFrames      = 30
		sessions     = 3
		allocCeiling = 27.0
		byteCeiling  = 20.0
	)
	body := y4mBody(t, video.Generate(video.Foreman, frame.QCIF, nFrames, 7))
	s := New(Config{PoolWorkers: 2})
	defer s.Close()
	h := s.Handler()
	session := func() {
		req := httptest.NewRequest(http.MethodPost, "/encode?qp=24&me=acbm", bytes.NewReader(body))
		w := &discardWriter{h: make(http.Header)}
		h.ServeHTTP(w, req)
		if e := w.h.Get(TrailerError); e != "" {
			t.Fatalf("session failed: %s", e)
		}
		if got := w.h.Get(TrailerFrames); got != strconv.Itoa(nFrames) {
			t.Fatalf("frames trailer %q, want %d", got, nFrames)
		}
	}
	session() // warm the plane pools and the encoder's slabs

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range sessions {
		session()
	}
	runtime.ReadMemStats(&after)
	frames := float64(sessions * nFrames)
	allocs := float64(after.Mallocs-before.Mallocs) / frames
	kb := float64(after.TotalAlloc-before.TotalAlloc) / frames / 1000
	t.Logf("allocs/frame = %.1f (ceiling %.0f), KB/frame = %.1f (ceiling %.0f)", allocs, allocCeiling, kb, byteCeiling)
	if raceEnabled {
		return
	}
	if allocs > allocCeiling || kb > byteCeiling {
		t.Errorf("a served QCIF frame allocates %.1f objects and %.1f KB, above the pinned ceilings of %.0f and %.0f KB — "+
			"the session no longer recycles its source frames, or ingest or emit allocates per frame again",
			allocs, kb, allocCeiling, byteCeiling)
	}
}
