package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/leakcheck"
	"repro/internal/video"
)

// y4mBody serialises frames as an in-memory Y4M upload.
func y4mBody(t *testing.T, frames []*frame.Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := frame.WriteY4M(&buf, frames, 30, 1); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readPackets drains a framed packet response into index order, failing
// on gaps (the server never drops packets).
func readPackets(t *testing.T, r io.Reader) [][]byte {
	t.Helper()
	pr := codec.NewPacketReader(r)
	var pkts [][]byte
	for {
		idx, data, err := pr.ReadPacket()
		if err == io.EOF {
			return pkts
		}
		if err != nil {
			t.Fatalf("packet %d: %v", len(pkts), err)
		}
		if idx != len(pkts) {
			t.Fatalf("packet index %d, want %d", idx, len(pkts))
		}
		pkts = append(pkts, data)
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Drain(context.Background()); err != nil {
			t.Errorf("drain: %v", err)
		}
		s.Close()
	})
	return s, ts
}

// TestEncodeRoundTrip uploads a Y4M, decodes the streamed packets and
// checks both byte-identity with the offline packet encoder and the PSNR
// of the decoded frames against the offline reconstruction.
func TestEncodeRoundTrip(t *testing.T) {
	frames := video.Generate(video.Foreman, frame.SQCIF, 6, 7)
	_, ts := newTestServer(t, Config{})

	resp, err := http.Post(ts.URL+"/encode?qp=14&me=acbm&entropy=arith&qoslevel=0", "video/x-yuv4mpeg",
		bytes.NewReader(y4mBody(t, frames)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Fatalf("content type %q", ct)
	}
	pkts := readPackets(t, resp.Body)
	if errT := resp.Trailer.Get(TrailerError); errT != "" {
		t.Fatalf("error trailer: %s", errT)
	}
	if got := resp.Trailer.Get(TrailerFrames); got != strconv.Itoa(len(frames)) {
		t.Fatalf("frames trailer %q, want %d", got, len(frames))
	}

	// Byte-identity with the offline encoder.
	want, wantStats, err := codec.EncodePackets(codec.Config{
		Qp: 14, FPS: 30, Entropy: codec.EntropyArith,
		Searcher: core.New(core.DefaultParams), Workers: 1,
	}, frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != len(want) {
		t.Fatalf("%d packets, want %d", len(pkts), len(want))
	}
	for i := range want {
		if !bytes.Equal(pkts[i], want[i]) {
			t.Fatalf("packet %d differs from offline encoder", i)
		}
	}

	// Decode and compare PSNR with the offline encode's statistics.
	dec, err := codec.NewPacketDecoder(pkts[0])
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i, pkt := range pkts[1:] {
		f, err := dec.DecodePacket(pkt)
		if err != nil {
			t.Fatalf("decode packet %d: %v", i+1, err)
		}
		p, _ := frame.PSNR(frames[i].Y, f.Y)
		sum += p
	}
	avg := sum / float64(len(frames))
	if diff := avg - wantStats.AvgPSNRY(); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("decoded PSNR-Y %.6f, offline %.6f", avg, wantStats.AvgPSNRY())
	}
	if got := resp.Trailer.Get(TrailerPSNRY); got != fmt.Sprintf("%.2f", wantStats.AvgPSNRY()) {
		t.Fatalf("PSNR trailer %q, offline %.2f", got, wantStats.AvgPSNRY())
	}
}

// TestConcurrentSessionsByteIdentical is the acceptance gate: 8 sessions
// encode at once on the shared pool and every streamed bitstream must be
// byte-identical to the offline encoder. The sessions pin qoslevel=0 —
// the documented way to demand constant quality — so the QoS controller
// cannot trade quality for latency mid-test. Run under -race by make
// test.
func TestConcurrentSessionsByteIdentical(t *testing.T) {
	const sessions = 8
	frames := video.Generate(video.Carphone, frame.SQCIF, 5, 9)
	body := y4mBody(t, frames)
	want, _, err := codec.EncodePackets(codec.Config{
		Qp: 15, FPS: 30, Searcher: core.New(core.DefaultParams), Workers: 1,
	}, frames)
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{MaxSessions: sessions})
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/encode?qp=15&qoslevel=0", "video/x-yuv4mpeg", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			pr := codec.NewPacketReader(resp.Body)
			for n := 0; ; n++ {
				idx, data, err := pr.ReadPacket()
				if err == io.EOF {
					if n != len(want) {
						errs[i] = fmt.Errorf("session %d: %d packets, want %d", i, n, len(want))
					}
					return
				}
				if err != nil {
					errs[i] = fmt.Errorf("session %d packet %d: %w", i, n, err)
					return
				}
				if idx != n || !bytes.Equal(data, want[n]) {
					errs[i] = fmt.Errorf("session %d: packet %d differs from offline encoder", i, n)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestRateControlledSessionsTrackTargets pins the per-session rate
// profiles: two concurrent sessions with different kbps targets run on
// the shared pool at full parallelism, and each must (a) stream packets
// byte-identical to the offline rate-controlled encoder with the same
// config, (b) report an achieved TrailerKbps within the rate controller's
// tolerance of its own target, and (c) echo the target in
// TrailerTargetKbps. Run under -race by make test.
func TestRateControlledSessionsTrackTargets(t *testing.T) {
	frames := video.Generate(video.Carphone, frame.QCIF, 40, 1)
	body := y4mBody(t, frames)
	_, ts := newTestServer(t, Config{MaxSessions: 4})

	targets := []float64{30, 80}
	offline := make([][][]byte, len(targets))
	for i, target := range targets {
		pkts, _, err := codec.EncodePackets(codec.Config{
			Qp: 16, FPS: 30, TargetKbps: target,
			Searcher: core.New(core.DefaultParams), Workers: 1,
		}, frames)
		if err != nil {
			t.Fatal(err)
		}
		offline[i] = pkts
	}

	var wg sync.WaitGroup
	errs := make([]error, len(targets))
	for i, target := range targets {
		wg.Add(1)
		go func(i int, target float64) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				errs[i] = fmt.Errorf("target %g: %s", target, fmt.Sprintf(format, args...))
			}
			resp, err := http.Post(fmt.Sprintf("%s/encode?qp=16&kbps=%g&qoslevel=0", ts.URL, target),
				"video/x-yuv4mpeg", bytes.NewReader(body))
			if err != nil {
				fail("%v", err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				msg, _ := io.ReadAll(resp.Body)
				fail("status %d: %s", resp.StatusCode, msg)
				return
			}
			pr := codec.NewPacketReader(resp.Body)
			var pkts [][]byte
			for {
				idx, data, err := pr.ReadPacket()
				if err == io.EOF {
					break
				}
				if err != nil {
					fail("packet %d: %v", len(pkts), err)
					return
				}
				if idx != len(pkts) {
					fail("packet index %d, want %d", idx, len(pkts))
					return
				}
				pkts = append(pkts, data)
			}
			if errT := resp.Trailer.Get(TrailerError); errT != "" {
				fail("error trailer: %s", errT)
				return
			}
			if len(pkts) != len(offline[i]) {
				fail("%d packets, offline %d", len(pkts), len(offline[i]))
				return
			}
			for n := range offline[i] {
				if !bytes.Equal(pkts[n], offline[i][n]) {
					fail("packet %d differs from offline rate-controlled encoder", n)
					return
				}
			}
			if got := resp.Trailer.Get(TrailerTargetKbps); got != fmt.Sprintf("%.1f", target) {
				fail("target trailer %q", got)
				return
			}
			kbps, err := strconv.ParseFloat(resp.Trailer.Get(TrailerKbps), 64)
			if err != nil {
				fail("kbps trailer %q: %v", resp.Trailer.Get(TrailerKbps), err)
				return
			}
			// Same band as TestRateControlTracksTarget: the I-frame cannot
			// be rate-controlled away.
			if kbps < target*0.6 || kbps > target*1.6 {
				fail("achieved %.1f kbit/s outside tolerance", kbps)
			}
		}(i, target)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestBudgetSessionParam pins the budget query param: a complexity-
// budgeted session must match the offline core.Budgeted encode byte for
// byte, and contradictory or malformed rate parameters must 400.
func TestBudgetSessionParam(t *testing.T) {
	frames := video.Generate(video.Foreman, frame.SQCIF, 6, 7)
	body := y4mBody(t, frames)
	_, ts := newTestServer(t, Config{})

	b, err := core.NewBudgeted(150, core.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := codec.EncodePackets(codec.Config{
		Qp: 14, FPS: 30, Searcher: b, Workers: 1,
	}, frames)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/encode?qp=14&budget=150&qoslevel=0", "video/x-yuv4mpeg", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	pkts := readPackets(t, resp.Body)
	if errT := resp.Trailer.Get(TrailerError); errT != "" {
		t.Fatalf("error trailer: %s", errT)
	}
	if len(pkts) != len(want) {
		t.Fatalf("%d packets, offline %d", len(pkts), len(want))
	}
	for i := range want {
		if !bytes.Equal(pkts[i], want[i]) {
			t.Fatalf("packet %d differs from offline budgeted encoder", i)
		}
	}

	for _, q := range []string{
		"budget=0", "budget=-5", "budget=abc", "budget=150&me=fsbm", "kbps=-1", "kbps=abc",
		"budget=NaN", "budget=Inf", "budget=NaN&me=fsbm", "kbps=NaN", "kbps=Inf", "kbps=-Inf",
	} {
		resp, err := http.Post(ts.URL+"/encode?"+q, "video/x-yuv4mpeg", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// blockingWriter is an http.ResponseWriter whose Write blocks once its
// byte budget is spent — a slow client without kernel socket buffers in
// the way, so the backpressure assertion is deterministic.
type blockingWriter struct {
	h       http.Header
	mu      sync.Mutex
	cond    *sync.Cond
	budget  int
	written int
}

func newBlockingWriter(budget int) *blockingWriter {
	w := &blockingWriter{h: make(http.Header), budget: budget}
	w.cond = sync.NewCond(&w.mu)
	return w
}

func (w *blockingWriter) Header() http.Header { return w.h }
func (w *blockingWriter) WriteHeader(int)     {}
func (w *blockingWriter) Flush()              {}

func (w *blockingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.written+len(p) > w.budget {
		w.cond.Wait()
	}
	w.written += len(p)
	return len(p), nil
}

func (w *blockingWriter) bytesWritten() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.written
}

func (w *blockingWriter) release() {
	w.mu.Lock()
	w.budget = 1 << 30
	w.mu.Unlock()
	w.cond.Broadcast()
}

// TestSlowReaderBackpressure: when the client stops reading, the session
// must stall after at most one in-flight frame instead of encoding (and
// buffering) the rest of the upload.
func TestSlowReaderBackpressure(t *testing.T) {
	const total = 10
	frames := video.Generate(video.Foreman, frame.SQCIF, total, 11)
	s := New(Config{})
	defer func() {
		if err := s.Drain(context.Background()); err != nil {
			t.Error(err)
		}
		s.Close()
	}()

	// Budget: exactly the framed header packet plus the first frame
	// packet, computed from an offline encode of the same configuration;
	// the second frame packet's Write blocks.
	want, _, err := codec.EncodePackets(codec.Config{
		Qp: 12, FPS: 30, Searcher: core.New(core.DefaultParams), Workers: 1,
	}, frames)
	if err != nil {
		t.Fatal(err)
	}
	framedLen := func(data []byte) int {
		var buf bytes.Buffer
		if err := codec.NewPacketWriter(&buf).WritePacket(1, data); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	hdrLen := framedLen(want[0])
	budget := hdrLen + framedLen(want[1])
	w := newBlockingWriter(budget)
	req := httptest.NewRequest(http.MethodPost, "/encode?qp=12", bytes.NewReader(y4mBody(t, frames)))
	done := make(chan struct{})
	go func() {
		s.handleEncode(w, req)
		close(done)
	}()

	// The encode must stall: frames emitted stays at ~1 (the packet stuck
	// in the blocked Write doesn't count — its emit hasn't returned).
	deadline := time.After(3 * time.Second)
	for {
		if w.bytesWritten() > hdrLen { // first frame packet went through
			break
		}
		select {
		case <-deadline:
			t.Fatal("no packet emitted")
		case <-time.After(time.Millisecond):
		}
	}
	time.Sleep(300 * time.Millisecond) // give a runaway encoder time to hang itself
	if n := s.m.framesTotal.Load(); n > 3 {
		t.Fatalf("%d frames encoded against a blocked client (want ≤ 3 in flight)", n)
	}
	select {
	case <-done:
		t.Fatal("handler returned while client was blocked")
	default:
	}

	// Release the client: the session must finish all frames cleanly.
	w.release()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler did not finish after release")
	}
	if n := s.m.framesTotal.Load(); n != total {
		t.Fatalf("%d frames after release, want %d", n, total)
	}
	if errT := w.h.Get(TrailerError); errT != "" {
		t.Fatalf("error trailer: %s", errT)
	}
}

// TestGracefulDrain: draining rejects new sessions with 503 but lets the
// in-flight session stream to completion.
func TestGracefulDrain(t *testing.T) {
	frames := video.Generate(video.Carphone, frame.SQCIF, 3, 2)
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	// Stream the upload through a pipe so the session stays open until we
	// decide to finish it.
	pr, pw := io.Pipe()
	respCh := make(chan *http.Response, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/encode?qp=20", "video/x-yuv4mpeg", pr)
		if err != nil {
			errCh <- err
			return
		}
		respCh <- resp
	}()
	body := y4mBody(t, frames)
	split := bytes.Index(body, []byte("FRAME"))                      // end of stream header
	split = bytes.Index(body[split+1:], []byte("FRAME")) + split + 1 // end of frame 0
	if _, err := pw.Write(body[:split]); err != nil {
		t.Fatal(err)
	}
	var resp *http.Response
	select {
	case resp = <-respCh:
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("no response while session active")
	}
	defer resp.Body.Close()

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// New sessions must now be rejected…
	deadline := time.Now().Add(5 * time.Second)
	for {
		r2, err := http.Post(ts.URL+"/encode?qp=20", "video/x-yuv4mpeg", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r2.Body)
		r2.Body.Close()
		if r2.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("new session got %d during drain, want 503", r2.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if r, err := http.Get(ts.URL + "/healthz"); err == nil {
		if r.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("healthz %d during drain, want 503", r.StatusCode)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}

	// …while the in-flight session still completes.
	select {
	case err := <-drained:
		t.Fatalf("drain returned (%v) before the session finished", err)
	default:
	}
	if _, err := pw.Write(body[split:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	pkts := readPackets(t, resp.Body)
	if len(pkts) != len(frames)+1 {
		t.Fatalf("%d packets, want %d", len(pkts), len(frames)+1)
	}
	if errT := resp.Trailer.Get(TrailerError); errT != "" {
		t.Fatalf("error trailer: %s", errT)
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not return after the session finished")
	}
}

// TestAdmissionControl: with one slot and no queue, a second concurrent
// session is rejected with 503; with a queue it waits and succeeds.
func TestAdmissionControl(t *testing.T) {
	frames := video.Generate(video.Foreman, frame.SQCIF, 2, 4)
	body := y4mBody(t, frames)

	s, ts := newTestServer(t, Config{MaxSessions: 1, MaxQueued: 1})

	// Occupy the slot with a held-open session.
	pr, pw := io.Pipe()
	go http.Post(ts.URL+"/encode", "video/x-yuv4mpeg", pr)
	hdr := body[:bytes.Index(body, []byte("FRAME"))]
	if _, err := pw.Write(hdr); err != nil {
		t.Fatal(err)
	}
	waitActive := func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if a, _ := s.sched.counts(); a == 1 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("session never became active")
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitActive()

	// Fill the one queue slot with another held-open session.
	pr2, pw2 := io.Pipe()
	go http.Post(ts.URL+"/encode", "video/x-yuv4mpeg", pr2)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, q := s.sched.counts(); q == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second session never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue is now full: a third session must fail fast.
	resp, err := http.Post(ts.URL+"/encode", "video/x-yuv4mpeg", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("third session got %d, want 503", resp.StatusCode)
	}
	if s.m.sessionsRejected.Load() == 0 {
		t.Fatal("rejection not counted")
	}
	pw.Close()
	pw2.Close()

	// Metrics endpoint exposes the counters.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{"vcodecd_sessions_rejected_total 1", "vcodecd_pool_workers", "vcodecd_frames_total"} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestBadRequests: malformed uploads and parameters fail with 400 before
// a session burns pool time.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		url  string
		body string
	}{
		{"/encode?qp=99", "YUV4MPEG2 W128 H96\n"},           // qp out of range
		{"/encode?me=warp", "YUV4MPEG2 W128 H96\n"},         // unknown searcher
		{"/encode?entropy=huffman", "YUV4MPEG2 W128 H96\n"}, // unknown backend
		{"/encode", "not a y4m stream\n"},                   // bad magic
		{"/encode", "YUV4MPEG2 W100 H96\n"},                 // not macroblock-divisible
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.url, "video/x-yuv4mpeg", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", c.url, resp.StatusCode)
		}
	}
	if resp, err := http.Get(ts.URL + "/encode"); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /encode: %d, want 405", resp.StatusCode)
		}
	}
}

// TestClientDisconnectTeardown: a client that vanishes mid-stream must
// tear its session down within about a frame — not encode the rest of an
// already-buffered upload into socket buffers nobody reads. This is the
// path a fronting gateway's retries exercise: an abandoned attempt closes
// the connection with the upload fully sent, and the freed slot and pool
// share must be available for the retried session immediately.
func TestClientDisconnectTeardown(t *testing.T) {
	const total = 90
	frames := video.Generate(video.Foreman, frame.SQCIF, total, 11)
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/encode?qp=16", bytes.NewReader(y4mBody(t, frames)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "video/x-yuv4mpeg")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// Read exactly one record (the session is demonstrably streaming),
	// then vanish: cancelling the request context closes the connection.
	if _, _, err := codec.NewPacketReader(resp.Body).ReadPacket(); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	// The session must release its scheduler slot promptly…
	deadline := time.Now().Add(10 * time.Second)
	for {
		if active, _ := s.sched.counts(); active == 0 {
			break
		}
		if time.Now().After(deadline) {
			active, _ := s.sched.counts()
			t.Fatalf("%d sessions still active long after disconnect", active)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// …as a failed session that stopped encoding well short of the clip:
	// the upload was fully transferred before the disconnect, so only the
	// per-frame context checks can have stopped the loop.
	if n := s.m.sessionsFailed.Load(); n != 1 {
		t.Fatalf("sessionsFailed %d, want 1", n)
	}
	if n := s.m.framesTotal.Load(); n >= total {
		t.Fatalf("encoded all %d frames for a dead client", n)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestMaxFramesPerSession pins the per-upload frame cap on both session
// shapes: a clip of exactly the cap succeeds; one frame more is cut at the
// cap — every rung still streams exactly cap frame packets — and ends as a
// failed session whose error trailer names the cap.
func TestMaxFramesPerSession(t *testing.T) {
	const limit = 3
	frames := video.Generate(video.Foreman, frame.Size{W: 64, H: 64}, limit+1, 7)
	for _, tc := range []struct {
		name, query string
		rungs       int
	}{
		{"plain", "qp=16&me=pbm", 1},
		{"ladder", "qp=16&me=pbm&ladder=64x64,32x32", 2},
	} {
		s, ts := newTestServer(t, Config{MaxFramesPerSession: limit})
		for _, n := range []int{limit, limit + 1} {
			failedBefore := s.m.sessionsFailed.Load()
			resp, err := http.Post(ts.URL+"/encode?"+tc.query, "video/x-yuv4mpeg", bytes.NewReader(y4mBody(t, frames[:n])))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %d frames: status %d", tc.name, n, resp.StatusCode)
			}
			pkts := [][][]byte{nil}
			if tc.rungs > 1 {
				pkts = readLadderPackets(t, resp.Body, tc.rungs)
			} else {
				pkts[0] = readPackets(t, resp.Body)
			}
			resp.Body.Close()
			for r, p := range pkts {
				if len(p) != limit+1 { // header + limit frame packets
					t.Errorf("%s %d frames: rung %d streamed %d frame packets, want %d", tc.name, n, r, len(p)-1, limit)
				}
			}
			errT := resp.Trailer.Get(TrailerError)
			failed := s.m.sessionsFailed.Load() - failedBefore
			if n <= limit && (errT != "" || failed != 0) {
				t.Errorf("%s %d frames: error trailer %q, sessionsFailed +%d", tc.name, n, errT, failed)
			}
			if n > limit && (!strings.Contains(errT, fmt.Sprintf("frame cap (%d)", limit)) || failed != 1) {
				t.Errorf("%s %d frames: error trailer %q, sessionsFailed +%d; want the cap named and +1", tc.name, n, errT, failed)
			}
			if got := resp.Trailer.Get(TrailerFrames); got != strconv.Itoa(limit) {
				t.Errorf("%s %d frames: frames trailer %q, want %d", tc.name, n, got, limit)
			}
		}
	}
}

// TestServerNoGoroutineLeak: once Drain and Close have returned, nothing a
// session started — writer goroutines, ladder rung chains, the QoS loop,
// the pool — is left running, whether its session succeeded or failed.
func TestServerNoGoroutineLeak(t *testing.T) {
	frames := video.Generate(video.Foreman, frame.Size{W: 64, H: 64}, 4, 7)
	body := y4mBody(t, frames)
	http.DefaultClient.CloseIdleConnections()
	check := leakcheck.Snapshot(t)

	s := New(Config{MaxFramesPerSession: 3})
	ts := httptest.NewServer(s.Handler())
	for _, q := range []string{"qp=16&me=pbm", "qp=16&me=pbm&ladder=64x64,32x32"} {
		for _, upload := range [][]byte{y4mBody(t, frames[:3]), body} { // within the cap, then over it
			resp, err := http.Post(ts.URL+"/encode?"+q, "video/x-yuv4mpeg", bytes.NewReader(upload))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	if n := s.m.sessionsFailed.Load(); n != 2 {
		t.Fatalf("sessionsFailed %d, want 2 (the over-cap uploads)", n)
	}
	ts.Close()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	http.DefaultClient.CloseIdleConnections()
	check()
}
