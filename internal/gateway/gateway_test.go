package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/gateway/chaos"
	"repro/internal/leakcheck"
	"repro/internal/server"
	"repro/internal/video"
)

// TestMain fails the suite, the chaos-proxy scenarios included, if any
// goroutine a test started — a poller, a relay, a proxied connection —
// outlives the tests.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// testConfig keeps the control loops fast enough for tests without
// changing any semantics.
func testConfig(backends ...string) Config {
	return Config{
		Backends:           backends,
		PollInterval:       25 * time.Millisecond,
		ConnectTimeout:     2 * time.Second,
		FirstPacketTimeout: 20 * time.Second,
		RetryBaseDelay:     5 * time.Millisecond,
		RetryMaxDelay:      50 * time.Millisecond,
		BreakerCooldown:    300 * time.Millisecond,
	}
}

func newBackend(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Drain(context.Background()); err != nil {
			t.Errorf("backend drain: %v", err)
		}
		s.Close()
	})
	return s, ts
}

func newGateway(t *testing.T, cfg Config) (*Gateway, *httptest.Server) {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		ts.Close()
		g.Close()
	})
	return g, ts
}

// waitEligible blocks until the gateway's pollers have marked want
// backends routable.
func waitEligible(t *testing.T, g *Gateway, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := 0
		for _, b := range g.backends {
			if b.eligible(time.Now()) {
				n++
			}
		}
		if n == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d eligible backends, want %d", n, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func y4mBody(t *testing.T, frames []*frame.Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := frame.WriteY4M(&buf, frames, 30, 1); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func offlinePackets(t *testing.T, frames []*frame.Frame, qp int) [][]byte {
	t.Helper()
	want, _, err := codec.EncodePackets(codec.Config{
		Qp: qp, FPS: 30, Searcher: core.New(core.DefaultParams), Workers: 1,
	}, frames)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// encodeVerified runs one session through url and byte-verifies the
// stream against want, returning the response for trailer checks.
func encodeVerified(t *testing.T, url string, qp int, body []byte, want [][]byte) *http.Response {
	t.Helper()
	// qoslevel=0 pins the session out of the backend's QoS controller:
	// under -race the encoder is slow enough to trip degradation, which
	// would legitimately change the bytes being compared.
	resp, err := http.Post(fmt.Sprintf("%s/encode?qp=%d&qoslevel=0", url, qp), "video/x-yuv4mpeg", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	verifyStream(t, resp, want)
	return resp
}

// verifyStream drains resp's packet stream, byte-verifying against want
// and failing on an error trailer. It closes the body.
func verifyStream(t *testing.T, resp *http.Response, want [][]byte) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	pr := codec.NewPacketReader(resp.Body)
	for n := 0; ; n++ {
		idx, data, err := pr.ReadPacket()
		if err == io.EOF {
			if n != len(want) {
				t.Fatalf("%d packets, want %d", n, len(want))
			}
			break
		}
		if err != nil {
			t.Fatalf("packet %d: %v", n, err)
		}
		if idx != n || !bytes.Equal(data, want[n]) {
			t.Fatalf("packet %d differs from offline encoder", n)
		}
	}
	if errT := resp.Trailer.Get(TrailerError); errT != "" {
		t.Fatalf("error trailer: %s", errT)
	}
}

// TestGatewayRoutesAndVerifies is the tentpole acceptance path: concurrent
// sessions through the gateway spread across both backends, every stream
// is byte-identical to the offline encoder, and the backend's trailers
// arrive intact with the gateway's own appended.
func TestGatewayRoutesAndVerifies(t *testing.T) {
	frames := video.Generate(video.Foreman, frame.SQCIF, 5, 7)
	body := y4mBody(t, frames)
	want := offlinePackets(t, frames, 15)

	_, b1 := newBackend(t, server.Config{})
	_, b2 := newBackend(t, server.Config{})
	g, ts := newGateway(t, testConfig(b1.URL, b2.URL))
	waitEligible(t, g, 2)

	const sessions = 6
	var wg sync.WaitGroup
	backendsSeen := make([]string, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := encodeVerified(t, ts.URL, 15, body, want)
			backendsSeen[i] = resp.Trailer.Get(TrailerBackend)
			if got := resp.Trailer.Get(server.TrailerFrames); got != "5" {
				t.Errorf("frames trailer %q, want 5", got)
			}
			if got := resp.Trailer.Get(TrailerAttempts); got != "1" {
				t.Errorf("attempts trailer %q, want 1", got)
			}
		}(i)
	}
	wg.Wait()
	seen := map[string]int{}
	for _, b := range backendsSeen {
		seen[b]++
	}
	if len(seen) != 2 {
		t.Fatalf("least-loaded routing used %d backends for %d concurrent sessions: %v", len(seen), sessions, seen)
	}
	if n := g.m.retriesTotal.Load(); n != 0 {
		t.Fatalf("%d retries on a healthy fleet", n)
	}
	if n := g.m.sessionsRouted.Load(); n != sessions {
		t.Fatalf("sessionsRouted %d, want %d", n, sessions)
	}
}

// TestGatewayRetriesBusyBackend: a backend that sheds the first attempt
// with 503 (admission control) gets the session back after the advertised
// Retry-After; the stream still verifies and the breaker stays closed —
// busy is not broken.
func TestGatewayRetriesBusyBackend(t *testing.T) {
	frames := video.Generate(video.Carphone, frame.SQCIF, 4, 3)
	body := y4mBody(t, frames)
	want := offlinePackets(t, frames, 18)

	_, real := newBackend(t, server.Config{})
	var rejected sync.Once
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		shed := false
		if r.URL.Path == "/encode" {
			rejected.Do(func() { shed = true })
		}
		if shed {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "draining queue full", http.StatusServiceUnavailable)
			return
		}
		real.Config.Handler.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	g, ts := newGateway(t, testConfig(flaky.URL))
	waitEligible(t, g, 1)

	resp := encodeVerified(t, ts.URL, 18, body, want)
	if got := resp.Trailer.Get(TrailerAttempts); got != "2" {
		t.Fatalf("attempts trailer %q, want 2", got)
	}
	if n := g.m.retriesTotal.Load(); n != 1 {
		t.Fatalf("retriesTotal %d, want 1", n)
	}
	if g.backends[0].breakerOpen(time.Now()) {
		t.Fatal("admission 503 fed the circuit breaker")
	}
	if n := g.backends[0].attemptFailures.Load(); n != 0 {
		t.Fatalf("admission 503 charged %d attempt failures", n)
	}
}

// TestGatewayFailsOverDeadBackend: a backend that never answers health
// polls is not routed to; sessions land on the live one without retries.
func TestGatewayFailsOverDeadBackend(t *testing.T) {
	frames := video.Generate(video.Foreman, frame.SQCIF, 4, 5)
	body := y4mBody(t, frames)
	want := offlinePackets(t, frames, 16)

	// A port that was just listening and no longer is: connection refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close()

	_, live := newBackend(t, server.Config{})
	g, ts := newGateway(t, testConfig(deadURL, live.URL))
	waitEligible(t, g, 1)

	resp := encodeVerified(t, ts.URL, 16, body, want)
	if got := resp.Trailer.Get(TrailerBackend); got != live.URL {
		t.Fatalf("routed to %q, want %q", got, live.URL)
	}
	if n := g.m.retriesTotal.Load(); n != 0 {
		t.Fatalf("%d retries despite an eligible live backend", n)
	}

	// The gateway's own health view names the dead backend.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	var view struct {
		Status   string        `json:"status"`
		Eligible int           `json:"backends_eligible"`
		Backends []backendView `json:"backends"`
	}
	if err := json.NewDecoder(hz.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if hz.StatusCode != http.StatusOK || view.Status != "ok" || view.Eligible != 1 {
		t.Fatalf("healthz %d %q eligible=%d, want 200 ok 1", hz.StatusCode, view.Status, view.Eligible)
	}
	alive := 0
	for _, b := range view.Backends {
		if b.Alive {
			alive++
		}
	}
	if alive != 1 {
		t.Fatalf("healthz reports %d alive backends, want 1", alive)
	}
}

// rstHandler hijacks the connection and aborts it with linger 0 — the
// half-dead backend whose /healthz answers but whose /encode path resets.
func rstBackend(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"status":"ok","sessions_active":0,"sessions_queued":0}`)
		case "/metrics":
			fmt.Fprint(w, "vcodecd_sessions_active 0\nvcodecd_sessions_queued 0\n")
		default:
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Errorf("hijack: %v", err)
				return
			}
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetLinger(0)
			}
			conn.Close()
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestGatewayBreakerOpensOnEncodeFailures: repeated connection resets on
// /encode open the breaker even though /healthz keeps answering, the
// session fails with an explicit 503 (never a truncated 200), and the
// gateway's health flips to no-eligible-backend.
func TestGatewayBreakerOpensOnEncodeFailures(t *testing.T) {
	frames := video.Generate(video.Foreman, frame.SQCIF, 3, 9)
	body := y4mBody(t, frames)

	evil := rstBackend(t)
	cfg := testConfig(evil.URL)
	cfg.MaxAttempts = 4
	cfg.BreakerThreshold = 3
	g, ts := newGateway(t, cfg)
	waitEligible(t, g, 1)

	resp, err := http.Post(ts.URL+"/encode?qp=16", "video/x-yuv4mpeg", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(msg), "attempts") {
		t.Fatalf("failure not explained: %q", msg)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("terminal 503 missing Retry-After")
	}
	if n := g.backends[0].breakerTrips.Load(); n == 0 {
		t.Fatal("breaker never tripped")
	}
	if !g.backends[0].breakerOpen(time.Now()) {
		t.Fatal("breaker not open after consecutive resets")
	}
	if n := g.m.sessionsFailed.Load(); n != 1 {
		t.Fatalf("sessionsFailed %d, want 1", n)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hz.Body)
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz %d with breaker open on the only backend, want 503", hz.StatusCode)
	}

	// After the cooldown the half-open probe lets a session through again
	// (it still resets — the breaker must re-open immediately).
	time.Sleep(cfg.BreakerCooldown + 50*time.Millisecond)
	if !g.backends[0].eligible(time.Now()) {
		t.Fatal("backend not half-open after cooldown")
	}
	trips := g.backends[0].breakerTrips.Load()
	resp2, err := http.Post(ts.URL+"/encode?qp=16", "video/x-yuv4mpeg", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if n := g.backends[0].breakerTrips.Load(); n <= trips {
		t.Fatalf("half-open probe failure did not re-open the breaker (trips %d → %d)", trips, n)
	}
}

// y4mPrefix returns the upload bytes up to (not including) frame n — the
// lever that keeps a session provably mid-stream: the backend cannot
// finish encoding frames it has not received.
func y4mPrefix(t *testing.T, body []byte, n int) []byte {
	t.Helper()
	off := 0
	for i := 0; i <= n; i++ {
		idx := bytes.Index(body[off:], []byte("FRAME"))
		if idx < 0 {
			t.Fatalf("fewer than %d frames in upload", n)
		}
		off += idx + 1
	}
	return body[:off-1]
}

// heldSession starts a gateway session whose upload is fed through a
// pipe, sends the first nFrames frames, and returns once the response
// headers are in.
func heldSession(t *testing.T, url string, body []byte, nFrames int) (*http.Response, *io.PipeWriter) {
	t.Helper()
	rd, wr := io.Pipe()
	respCh := make(chan *http.Response, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.Post(url+"/encode?qp=16", "video/x-yuv4mpeg", rd)
		if err != nil {
			errCh <- err
			return
		}
		respCh <- resp
	}()
	if _, err := wr.Write(y4mPrefix(t, body, nFrames)); err != nil {
		t.Fatal(err)
	}
	select {
	case resp := <-respCh:
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, msg)
		}
		return resp, wr
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("no response while session active")
	}
	return nil, nil
}

// TestGatewayMidStreamKillExplicitError is the backend-crash contract:
// once bytes have been relayed, a killed backend must surface as an
// explicit X-Vcodec-Error trailer on the (already committed) stream — a
// truncated session is never passed off as a complete one — and the
// gateway must not retry past the commit point.
func TestGatewayMidStreamKillExplicitError(t *testing.T) {
	frames := video.Generate(video.Foreman, frame.SQCIF, 20, 7)
	body := y4mBody(t, frames)

	_, real := newBackend(t, server.Config{})
	proxy, err := chaos.New(strings.TrimPrefix(real.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	g, ts := newGateway(t, testConfig(proxy.URL()))
	waitEligible(t, g, 1)

	// Hold the upload at 5 frames: the backend cannot finish the clip, so
	// the kill below is guaranteed to land mid-stream.
	resp, wr := heldSession(t, ts.URL, body, 5)
	defer resp.Body.Close()
	pr := codec.NewPacketReader(resp.Body)
	for i := 0; i < 2; i++ { // commit is certain: records crossed the gateway
		if _, _, err := pr.ReadPacket(); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
	}
	if n := proxy.KillActive(); n == 0 {
		t.Fatal("no connections to kill")
	}
	wr.Close()
	// Drain what remains; the stream must end (cut mid-record or not)
	// rather than hang.
	for {
		if _, _, err := pr.ReadPacket(); err != nil {
			break
		}
	}
	io.Copy(io.Discard, resp.Body)
	if errT := resp.Trailer.Get(TrailerError); !strings.Contains(errT, "mid-session") {
		t.Fatalf("error trailer %q does not report the mid-stream death", errT)
	}
	if n := g.m.retriesTotal.Load(); n != 0 {
		t.Fatalf("%d retries after the commit point", n)
	}
	if n := g.m.sessionsFailed.Load(); n != 1 {
		t.Fatalf("sessionsFailed %d, want 1", n)
	}
}

// TestGatewayStallWatchdog is the partition contract: a committed stream
// that goes silent (sockets open, no bytes) fails via StreamIdleTimeout
// with an explicit error instead of hanging the client forever.
func TestGatewayStallWatchdog(t *testing.T) {
	frames := video.Generate(video.Foreman, frame.SQCIF, 20, 3)
	body := y4mBody(t, frames)

	_, real := newBackend(t, server.Config{})
	proxy, err := chaos.New(strings.TrimPrefix(real.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	cfg := testConfig(proxy.URL())
	cfg.StreamIdleTimeout = 250 * time.Millisecond
	g, ts := newGateway(t, cfg)
	_ = g
	waitEligible(t, g, 1)

	// Hold the upload at 5 frames so the stream is provably unfinished
	// when the partition hits.
	resp, wr := heldSession(t, ts.URL, body, 5)
	defer resp.Body.Close()
	defer wr.Close()
	pr := codec.NewPacketReader(resp.Body)
	if _, _, err := pr.ReadPacket(); err != nil {
		t.Fatal(err)
	}
	// Partition: sockets stay open, no bytes move in either direction.
	proxy.SetPlan(chaos.Plan{Stall: true})

	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, _, err := pr.ReadPacket(); err != nil {
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stalled stream hung past the idle timeout")
	}
	io.Copy(io.Discard, resp.Body)
	if errT := resp.Trailer.Get(TrailerError); !strings.Contains(errT, "mid-session") {
		t.Fatalf("error trailer %q does not report the stall", errT)
	}
}

// TestGatewayDrainingBackendExcluded: a backend in graceful drain stops
// receiving sessions at the next poll while staying "alive" in the view.
func TestGatewayDrainingBackendExcluded(t *testing.T) {
	frames := video.Generate(video.Carphone, frame.SQCIF, 3, 6)
	body := y4mBody(t, frames)
	want := offlinePackets(t, frames, 17)

	s1, b1 := newBackend(t, server.Config{})
	_, b2 := newBackend(t, server.Config{})
	g, ts := newGateway(t, testConfig(b1.URL, b2.URL))
	waitEligible(t, g, 2)

	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitEligible(t, g, 1)

	for i := 0; i < 3; i++ {
		resp := encodeVerified(t, ts.URL, 17, body, want)
		if got := resp.Trailer.Get(TrailerBackend); got != b2.URL {
			t.Fatalf("session %d routed to %q during backend drain, want %q", i, got, b2.URL)
		}
	}
	// The drained backend is alive-but-draining in the health view.
	for _, b := range g.backends {
		v := b.snapshot()
		if v.URL == b1.URL && (!v.Alive || !v.Draining) {
			t.Fatalf("drained backend view %+v, want alive and draining", v)
		}
	}
}

// TestGatewayDrain: the gateway's own graceful shutdown sheds new
// sessions with 503 while the in-flight stream completes and verifies.
func TestGatewayDrain(t *testing.T) {
	frames := video.Generate(video.Carphone, frame.SQCIF, 3, 4)
	body := y4mBody(t, frames)
	want := offlinePackets(t, frames, 18)

	_, b1 := newBackend(t, server.Config{})
	g, ts := newGateway(t, testConfig(b1.URL))
	waitEligible(t, g, 1)

	// Hold a session open mid-upload.
	rd, wr := io.Pipe()
	respCh := make(chan *http.Response, 1)
	errCh := make(chan error, 1)
	go func() {
		// Pinned at level 0: the stream is byte-compared below and must
		// not be degraded by a race-slowed backend's QoS controller.
		resp, err := http.Post(ts.URL+"/encode?qp=18&qoslevel=0", "video/x-yuv4mpeg", rd)
		if err != nil {
			errCh <- err
			return
		}
		respCh <- resp
	}()
	split := bytes.Index(body, []byte("FRAME"))
	split = bytes.Index(body[split+1:], []byte("FRAME")) + split + 1
	if _, err := wr.Write(body[:split]); err != nil {
		t.Fatal(err)
	}
	var resp *http.Response
	select {
	case resp = <-respCh:
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("no response while session active")
	}
	defer resp.Body.Close()

	drained := make(chan error, 1)
	go func() { drained <- g.Drain(context.Background()) }()

	// New sessions are shed…
	deadline := time.Now().Add(5 * time.Second)
	for {
		r2, err := http.Post(ts.URL+"/encode?qp=18", "video/x-yuv4mpeg", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r2.Body)
		r2.Body.Close()
		if r2.StatusCode == http.StatusServiceUnavailable {
			if r2.Header.Get("Retry-After") == "" {
				t.Fatal("drain 503 missing Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("new session got %d during drain", r2.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case err := <-drained:
		t.Fatalf("drain returned (%v) with a session in flight", err)
	default:
	}

	// …while the held session streams to a verified completion.
	if _, err := wr.Write(body[split:]); err != nil {
		t.Fatal(err)
	}
	wr.Close()
	pr := codec.NewPacketReader(resp.Body)
	for n := 0; ; n++ {
		idx, data, err := pr.ReadPacket()
		if err == io.EOF {
			if n != len(want) {
				t.Fatalf("%d packets, want %d", n, len(want))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if idx != n || !bytes.Equal(data, want[n]) {
			t.Fatalf("packet %d differs from offline encoder", n)
		}
	}
	if errT := resp.Trailer.Get(TrailerError); errT != "" {
		t.Fatalf("error trailer: %s", errT)
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not return after the session finished")
	}
}

// TestGatewayConfig covers the configuration edges: no backends is a
// construction error; a fleet with nothing reachable fails sessions with
// 503 after bounded attempts; 4xx from a backend is relayed verbatim and
// never retried.
func TestGatewayConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted an empty backend list")
	}

	// Nothing reachable: bounded attempts, explicit 503.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close()
	cfg := testConfig(deadURL)
	cfg.MaxAttempts = 2
	g, ts := newGateway(t, cfg)
	_ = g
	resp, err := http.Post(ts.URL+"/encode?qp=16", "video/x-yuv4mpeg", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d with no reachable backend, want 503", resp.StatusCode)
	}

	// 4xx relays verbatim, no retry.
	_, b1 := newBackend(t, server.Config{})
	g2, ts2 := newGateway(t, testConfig(b1.URL))
	waitEligible(t, g2, 1)
	resp2, err := http.Post(ts2.URL+"/encode?qp=99", "video/x-yuv4mpeg", strings.NewReader("YUV4MPEG2 W128 H96\n"))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want backend's 400", resp2.StatusCode)
	}
	if !strings.Contains(string(msg), "qp") {
		t.Fatalf("backend's 400 body not relayed: %q", msg)
	}
	if n := g2.m.retriesTotal.Load(); n != 0 {
		t.Fatalf("%d retries on a 4xx", n)
	}

	// Gateway metrics expose the counters.
	mresp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, wantStr := range []string{
		"gateway_sessions_total", "gateway_retries_total",
		"gateway_backend_up{backend=", "gateway_backend_breaker_open{backend=",
	} {
		if !strings.Contains(string(text), wantStr) {
			t.Fatalf("metrics missing %q:\n%s", wantStr, text)
		}
	}
}

// fakeQosBackend is a health-endpoint-only backend reporting a fixed
// occupancy and QoS degradation level.
func fakeQosBackend(t *testing.T, active, qosLevel int) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"status":          "ok",
			"sessions_active": active,
			"sessions_queued": 0,
			"qos_level":       qosLevel,
		})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestGatewayPrefersLessDegradedBackend pins the QoS-aware placement
// rule: on a load tie the router picks the backend reporting the lowest
// degradation level (listed first here, so a naive first-wins scan would
// get it wrong) — but load still dominates, so an idle deeply-degraded
// backend beats a busy healthy one. The re-exported per-backend QoS
// gauge and the /healthz field ride along.
func TestGatewayPrefersLessDegradedBackend(t *testing.T) {
	degraded := fakeQosBackend(t, 1, 2)
	healthy := fakeQosBackend(t, 1, 0)
	g, ts := newGateway(t, testConfig(degraded.URL, healthy.URL))
	waitEligible(t, g, 2)

	if got := g.backends[0].qosLevel(); got != 2 {
		t.Fatalf("polled qos level %d, want 2", got)
	}
	if b := g.pick(nil); b.url != healthy.URL {
		t.Errorf("load tie routed to %s (qos 2), want %s (qos 0)", b.url, healthy.URL)
	}

	// Observability: the per-backend gauge and the healthz view.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	wantGauge := fmt.Sprintf("gateway_backend_qos_level{backend=%q} 2", degraded.URL)
	if !strings.Contains(string(text), wantGauge) {
		t.Errorf("metrics missing %q:\n%s", wantGauge, text)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if !strings.Contains(string(hz), `"qos_level":2`) {
		t.Errorf("healthz missing backend qos_level: %s", hz)
	}

	// Load dominates: an idle backend at the deepest level still wins
	// over a busy healthy one.
	idleDegraded := fakeQosBackend(t, 0, 3)
	g2, _ := newGateway(t, testConfig(healthy.URL, idleDegraded.URL))
	waitEligible(t, g2, 2)
	if b := g2.pick(nil); b.url != idleDegraded.URL {
		t.Errorf("routed to %s, want idle %s (QoS is a tiebreak, not primary)", b.url, idleDegraded.URL)
	}
}

// TestGatewayPollsHealthzOnly: /healthz carries every signal the router
// reads, so across several polls the poller must never fetch the
// backend's /metrics (which here disagrees with /healthz), and it routes
// on /healthz's numbers.
func TestGatewayPollsHealthzOnly(t *testing.T) {
	var healthz, scrapes atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		healthz.Add(1)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"status": "ok", "sessions_active": 2, "sessions_queued": 1, "qos_level": 1,
		})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		scrapes.Add(1)
		fmt.Fprint(w, "vcodecd_sessions_active 9\nvcodecd_sessions_queued 9\n")
	})
	backend := httptest.NewServer(mux)
	t.Cleanup(backend.Close)
	g, _ := newGateway(t, testConfig(backend.URL))
	waitEligible(t, g, 1)
	for deadline := time.Now().Add(5 * time.Second); healthz.Load() < 5; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d /healthz polls in 5s, want 5", healthz.Load())
		}
	}
	if n := scrapes.Load(); n != 0 {
		t.Errorf("%d /metrics requests across %d polls, want 0", n, healthz.Load())
	}
	if load, qos := g.backends[0].load(), g.backends[0].qosLevel(); load != 3 || qos != 1 {
		t.Errorf("load %d, qos level %d; want /healthz's 2+1 and 1", load, qos)
	}
}
