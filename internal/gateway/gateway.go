// Package gateway is the fleet front for vcodecd: one HTTP endpoint that
// routes /encode sessions across N encode backends and keeps serving when
// a backend is slow, dead, or draining.
//
// # Routing policy
//
// Every PollInterval the gateway polls each backend's /healthz (liveness,
// drain state, occupancy gauges, QoS level). A new session is
// dispatched to the eligible backend — alive, not draining, circuit
// breaker closed — with the least load, where load is the larger of the
// gateway's own in-flight count for that backend and the backend's
// self-reported active+queued sessions. Ties break first toward the
// backend reporting the lowest QoS degradation level (a session placed
// there encodes at higher quality, and new load steers away from the
// part of the fleet already trading quality for latency), then toward
// the backend that has served the fewest sessions.
//
// # Retry semantics
//
// A session is idempotently re-dispatchable for exactly as long as zero
// response bytes have been forwarded to the client: the upload is teed
// into a replay buffer while it streams to the backend, so an attempt
// that dies before its first packet (connect failure, 503 admission
// rejection, first-packet timeout, connection reset) is retried on
// another eligible backend after a capped exponential backoff with
// jitter (a backend's Retry-After, when longer, is honored instead).
// The moment the first response byte reaches the client the session is
// committed: a later failure is terminal and is reported explicitly in
// the X-Vcodec-Error trailer — a truncated stream is never passed off
// as a complete one. Repeated attempt failures open a backend's circuit
// breaker (see backend), taking it out of rotation for a cooldown.
//
// # Drain ordering
//
// Draining a fleet is gateway first, then backends: Gateway.Drain stops
// admitting sessions (503 + Retry-After) while in-flight streams run to
// completion — including streams on draining backends, which vcodecd
// likewise finishes. Backends observed draining stop receiving new
// sessions at the next poll at the latest (dispatch also reacts to an
// admission 503 immediately), so rolling restarts rebalance live load
// onto the rest of the fleet without killing a single stream.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Config sizes the gateway.
type Config struct {
	// Backends lists the vcodecd base URLs (e.g. http://10.0.0.7:8323).
	Backends []string
	// PollInterval is the /healthz poll cadence (default 250ms).
	PollInterval time.Duration
	// ConnectTimeout bounds one attempt's dial + response headers
	// (default 2s).
	ConnectTimeout time.Duration
	// FirstPacketTimeout bounds headers → first response byte (default
	// 15s: the first packet is one encoded frame away, but the backend
	// may queue the session behind MaxQueued others first).
	FirstPacketTimeout time.Duration
	// StreamIdleTimeout bounds the gap between response bytes after the
	// stream is committed (default 60s). A stalled backend (partition,
	// wedged process) fails the session explicitly instead of hanging it.
	StreamIdleTimeout time.Duration
	// MaxAttempts caps dispatch attempts per session (default 4).
	MaxAttempts int
	// RetryBaseDelay/RetryMaxDelay shape the capped exponential backoff
	// between attempts (defaults 50ms / 1s); full jitter is applied.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// BreakerThreshold consecutive attempt failures open a backend's
	// circuit breaker for BreakerCooldown (defaults 3 / 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// MaxSessions caps concurrent sessions at the gateway itself
	// (default 64); beyond it /encode sheds with 503 + Retry-After.
	MaxSessions int
	// ReplayLimit caps the upload replay buffer per session (default
	// 64 MiB). A session whose upload outgrows it keeps streaming but is
	// no longer re-dispatchable.
	ReplayLimit int
}

func (c Config) withDefaults() Config {
	def := func(d *time.Duration, v time.Duration) {
		if *d <= 0 {
			*d = v
		}
	}
	def(&c.PollInterval, 250*time.Millisecond)
	def(&c.ConnectTimeout, 2*time.Second)
	def(&c.FirstPacketTimeout, 15*time.Second)
	def(&c.StreamIdleTimeout, 60*time.Second)
	def(&c.RetryBaseDelay, 50*time.Millisecond)
	def(&c.RetryMaxDelay, time.Second)
	def(&c.BreakerCooldown, 2*time.Second)
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.ReplayLimit <= 0 {
		c.ReplayLimit = 64 << 20
	}
	return c
}

// Gateway routes encode sessions across a fleet of vcodecd backends.
type Gateway struct {
	cfg      Config
	backends []*backend
	mux      *http.ServeMux
	client   *http.Client // session transport (no global timeout: streams)
	pollC    *http.Client // health transport (short timeout)
	m        metrics
	start    time.Time

	routeHist    *obs.Histogram // arrival → commit (first byte to client)
	relayGapHist *obs.Histogram // gap between committed-stream chunks

	draining atomic.Bool
	active   atomic.Int64

	pollStop chan struct{}
	pollDone sync.WaitGroup
}

// New builds the gateway and starts its health pollers. Callers must
// Close it to stop them.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gateway: no backends configured")
	}
	g := &Gateway{
		cfg:    cfg,
		mux:    http.NewServeMux(),
		client: &http.Client{},
		pollC:  &http.Client{Timeout: cfg.ConnectTimeout},
		start:  time.Now(),

		routeHist:    obs.NewHistogram("gateway_route_seconds", "session arrival to backend-stream commit"),
		relayGapHist: obs.NewHistogram("gateway_relay_gap_seconds", "gap between relayed stream chunks"),

		pollStop: make(chan struct{}),
	}
	for _, u := range cfg.Backends {
		g.backends = append(g.backends, &backend{url: strings.TrimRight(u, "/")})
	}
	g.mux.HandleFunc("/encode", g.handleEncode)
	g.mux.HandleFunc("/healthz", g.handleHealthz)
	g.mux.HandleFunc("/metrics", g.handleMetrics)
	g.mux.HandleFunc("/debug/vcodec/trace", g.handleDebugTrace)
	for _, b := range g.backends {
		g.pollDone.Add(1)
		go g.pollLoop(b)
	}
	return g, nil
}

// Handler returns the HTTP handler tree (/encode, /healthz, /metrics).
func (g *Gateway) Handler() http.Handler { return g.mux }

// Drain begins graceful shutdown: new sessions are shed with 503 while
// in-flight streams (wherever their backend is) run to completion, or
// until ctx expires. Safe to call more than once.
func (g *Gateway) Drain(ctx context.Context) error {
	g.draining.Store(true)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if g.active.Load() == 0 {
			return nil
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Close stops the health pollers and the session transport. Call after
// Drain has returned.
func (g *Gateway) Close() {
	select {
	case <-g.pollStop:
	default:
		close(g.pollStop)
	}
	g.pollDone.Wait()
	g.client.CloseIdleConnections()
	g.pollC.CloseIdleConnections()
}

// pollLoop keeps one backend's health view fresh. The first poll runs
// immediately so the gateway is routable as soon as a backend is.
func (g *Gateway) pollLoop(b *backend) {
	defer g.pollDone.Done()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-g.pollStop
		cancel()
	}()
	tick := time.NewTicker(g.cfg.PollInterval)
	defer tick.Stop()
	for {
		b.poll(ctx, g.pollC)
		select {
		case <-tick.C:
		case <-g.pollStop:
			return
		}
	}
}

// pick selects the least-loaded eligible backend, skipping those in
// tried (this session's failed attempts) while an untried one exists.
// Load ties break toward the backend with the lowest reported QoS
// degradation level, then toward the fewest sessions routed.
func (g *Gateway) pick(tried map[*backend]bool) *backend {
	now := time.Now()
	best := func(skipTried bool) *backend {
		var sel *backend
		var selLoad, selRouted int64
		var selQos int
		for _, b := range g.backends {
			if !b.eligible(now) || (skipTried && tried[b]) {
				continue
			}
			load, routed, qos := b.load(), b.sessionsRouted.Load(), b.qosLevel()
			if sel == nil || load < selLoad ||
				(load == selLoad && (qos < selQos || (qos == selQos && routed < selRouted))) {
				sel, selLoad, selRouted, selQos = b, load, routed, qos
			}
		}
		return sel
	}
	if b := best(true); b != nil {
		return b
	}
	// Every eligible backend has already failed this session once;
	// retrying one of them (after backoff) still beats failing the
	// session while the fleet looks alive.
	return best(false)
}

// backoff returns the pre-attempt delay: capped exponential with full
// jitter, stretched to a backend-advertised Retry-After when longer.
func (g *Gateway) backoff(attempt int, retryAfter time.Duration) time.Duration {
	d := g.cfg.RetryBaseDelay << (attempt - 1)
	if d > g.cfg.RetryMaxDelay || d <= 0 {
		d = g.cfg.RetryMaxDelay
	}
	d = time.Duration(rand.Int64N(int64(d)) + 1) // full jitter in (0, d]
	if retryAfter > d {
		d = retryAfter
		if cap := 4 * g.cfg.RetryMaxDelay; d > cap {
			d = cap
		}
	}
	return d
}

// shed rejects a session at the gateway with 503 + Retry-After.
func (g *Gateway) shed(w http.ResponseWriter, msg string) {
	g.m.sessionsRejected.Add(1)
	w.Header().Set("Retry-After", "1")
	http.Error(w, msg, http.StatusServiceUnavailable)
}

// handleEncode runs one gateway session: admit, pick a backend, relay the
// stream; retry while re-dispatch is safe, fail explicitly once it isn't.
func (g *Gateway) handleEncode(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST a YUV4MPEG2 stream", http.StatusMethodNotAllowed)
		return
	}
	if g.draining.Load() {
		g.shed(w, "gateway: draining, not admitting sessions")
		return
	}
	if g.active.Add(1) > int64(g.cfg.MaxSessions) {
		g.active.Add(-1)
		g.shed(w, "gateway: session limit reached")
		return
	}
	defer g.active.Add(-1)
	g.m.sessionsTotal.Add(1)
	begin := time.Now()

	// Trace identity: one ID per session, across every dispatch attempt.
	// An inbound X-Vcodec-Trace (sanitized) is honored so an upstream
	// caller can stitch its own traces through; otherwise the gateway
	// mints. The ID travels to the backend as a request header and comes
	// back to the client in both sides' trailers.
	traceID := obs.SanitizeTraceID(r.Header.Get(obs.TraceIDHeader))
	if traceID == "" {
		traceID = obs.NewTraceID()
	}

	upload := newReplayUpload(r.Body, g.cfg.ReplayLimit)
	defer upload.close()
	tried := make(map[*backend]bool)
	var lastErr error
	retryAfter := time.Duration(0)
	for attempt := 1; attempt <= g.cfg.MaxAttempts; attempt++ {
		if attempt > 1 {
			select {
			case <-time.After(g.backoff(attempt-1, retryAfter)):
			case <-r.Context().Done():
				g.m.sessionsFailed.Add(1)
				return // client gone; nothing to answer
			}
			g.m.retriesTotal.Add(1)
		}
		b := g.pick(tried)
		if b == nil {
			lastErr = errors.New("no eligible backend (all dead, draining, or breaker-open)")
			// Health may flip on the next poll; the backoff loop keeps
			// trying until attempts run out.
			retryAfter = g.cfg.PollInterval
			continue
		}
		g.m.attemptsTotal.Add(1)
		res := g.tryBackend(w, r, b, upload, begin, attempt, traceID)
		switch res.kind {
		case attemptCommitted:
			return // stream fully handled (success or explicit in-band error)
		case attemptClientError:
			return // 4xx relayed verbatim; retrying cannot fix the request
		case attemptBusy:
			// Admission 503: the backend works, it is just full — do not
			// feed the breaker, do honor its Retry-After.
			tried[b], lastErr, retryAfter = true, res.err, res.retryAfter
		case attemptFailed:
			tried[b], lastErr, retryAfter = true, res.err, 0
			b.noteFailure(g.cfg.BreakerThreshold, g.cfg.BreakerCooldown)
		}
		if !upload.replayable() {
			lastErr = fmt.Errorf("upload exceeded the %d-byte replay buffer, cannot re-dispatch (last error: %w)", g.cfg.ReplayLimit, lastErr)
			break
		}
		if r.Context().Err() != nil {
			g.m.sessionsFailed.Add(1)
			return
		}
	}
	g.m.sessionsFailed.Add(1)
	log.Printf("gateway: session %s failed after %d attempts: %v", traceID, g.cfg.MaxAttempts, lastErr)
	w.Header().Set("Retry-After", "1")
	// Terminal failure happens before any body byte, so the trace ID can
	// still ride a plain response header — load tools keep the identity
	// of sessions that never placed.
	w.Header().Set(TrailerTrace, traceID)
	http.Error(w, fmt.Sprintf("gateway: session failed after %d attempts: %v", g.cfg.MaxAttempts, lastErr),
		http.StatusServiceUnavailable)
}

// attemptResult classifies one dispatch attempt.
type attemptKind int

const (
	attemptCommitted   attemptKind = iota // response bytes reached the client
	attemptBusy                           // backend 503 (admission/draining)
	attemptFailed                         // connect/timeout/reset before commit
	attemptClientError                    // backend 4xx, relayed verbatim
)

type attemptResult struct {
	kind       attemptKind
	err        error
	retryAfter time.Duration
}

// tryBackend runs one dispatch attempt against b. It returns
// attemptCommitted once any response byte has been written to the client
// — from that point the attempt owns the session to its end, and a
// mid-stream failure is reported in the X-Vcodec-Error trailer rather
// than by retry.
func (g *Gateway) tryBackend(w http.ResponseWriter, r *http.Request, b *backend, upload *replayUpload, begin time.Time, attempt int, traceID string) attemptResult {
	b.active.Add(1)
	defer b.active.Add(-1)

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	body := upload.newAttempt()
	// Closing the attempt unblocks any transport goroutine still reading
	// it (reads are buffer-backed, so no upload byte is lost) — the next
	// attempt can start immediately without racing this one.
	defer body.Close()

	u := b.url + "/encode"
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, body)
	if err != nil {
		return attemptResult{kind: attemptFailed, err: err}
	}
	req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
	// Propagate the session's trace identity: the backend keys its
	// flight recorder by this ID, so the gateway trailer and the backend
	// timeline name the same session.
	req.Header.Set(obs.TraceIDHeader, traceID)

	// Phase 1: dial + response headers, bounded by ConnectTimeout.
	connT := time.AfterFunc(g.cfg.ConnectTimeout, cancel)
	resp, err := g.client.Do(req)
	connT.Stop()
	if err != nil {
		return attemptResult{kind: attemptFailed, err: fmt.Errorf("%s: %w", b.url, err)}
	}
	defer resp.Body.Close()

	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		ra, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		return attemptResult{
			kind:       attemptBusy,
			err:        fmt.Errorf("%s: 503: %s", b.url, strings.TrimSpace(string(msg))),
			retryAfter: time.Duration(ra) * time.Second,
		}
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		// The request itself is bad; every backend would refuse it the
		// same way. Relay the verdict verbatim.
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		http.Error(w, strings.TrimSpace(string(msg)), resp.StatusCode)
		return attemptResult{kind: attemptClientError}
	case resp.StatusCode != http.StatusOK:
		return attemptResult{kind: attemptFailed, err: fmt.Errorf("%s: unexpected status %d", b.url, resp.StatusCode)}
	}

	// Phase 2: first response byte, bounded by FirstPacketTimeout. Until
	// it arrives nothing has been promised to the client and the session
	// is still re-dispatchable.
	buf := make([]byte, 32<<10)
	firstT := time.AfterFunc(g.cfg.FirstPacketTimeout, cancel)
	n, err := resp.Body.Read(buf)
	firstT.Stop()
	if n == 0 {
		if err == io.EOF {
			err = errors.New("empty response stream")
		}
		return attemptResult{kind: attemptFailed, err: fmt.Errorf("%s: awaiting first packet: %w", b.url, err)}
	}

	// Commit: relay headers and the first chunk. From here on the
	// attempt is the session, and the upload need not be kept for a
	// retry.
	body.commit()
	b.sessionsRouted.Add(1)
	routeDur := time.Since(begin)
	g.m.routeNs.Add(routeDur.Nanoseconds())
	g.routeHist.Observe(routeDur)
	g.m.sessionsRouted.Add(1)
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	// resp.Trailer is pre-populated with the backend's declared trailer
	// names at header-parse time (the client moves them out of the Trailer
	// header), so it is the declaration list to forward. The gateway's own
	// trailers ride along; TrailerError and TrailerTrace may already be
	// among the backend's, so they are deduplicated here.
	trailers := []string{TrailerBackend, TrailerAttempts, TrailerError, TrailerTrace}
	for name := range resp.Trailer {
		if name != TrailerError && name != TrailerTrace {
			trailers = append(trailers, name)
		}
	}
	w.Header().Set("Trailer", strings.Join(trailers, ", "))

	werr := g.relay(w, rc, resp, buf, n, cancel)

	// Trailers: the backend's own (available after its body is fully
	// read), plus where the session ran and how hard it was to place.
	for name, vals := range resp.Trailer {
		if len(vals) > 0 {
			w.Header().Set(name, vals[0])
		}
	}
	w.Header().Set(TrailerBackend, b.url)
	w.Header().Set(TrailerAttempts, strconv.Itoa(attempt))
	// Set explicitly (not only via the backend's echoed trailer): the
	// gateway's trailer carries the ID even against a backend build that
	// does not echo it.
	w.Header().Set(TrailerTrace, traceID)
	if werr != nil {
		// Mid-stream death: the stream is truncated and says so. The
		// brokenness is the backend's, not the request's — feed the
		// breaker so the next sessions steer away.
		b.noteFailure(g.cfg.BreakerThreshold, g.cfg.BreakerCooldown)
		g.m.sessionsFailed.Add(1)
		w.Header().Set(TrailerError, fmt.Sprintf("gateway: stream from %s died mid-session: %v", b.url, werr))
		return attemptResult{kind: attemptCommitted, err: werr}
	}
	b.noteSuccess()
	return attemptResult{kind: attemptCommitted}
}

// relay pumps the committed response stream to the client, flushing per
// chunk and failing a stall via StreamIdleTimeout. Returns nil on clean
// EOF from the backend.
func (g *Gateway) relay(w http.ResponseWriter, rc *http.ResponseController, resp *http.Response, buf []byte, n int, cancel context.CancelFunc) error {
	idleT := time.AfterFunc(g.cfg.StreamIdleTimeout, cancel)
	defer idleT.Stop()
	lastChunk := time.Now()
	for {
		if n > 0 {
			if _, err := w.Write(buf[:n]); err != nil {
				return fmt.Errorf("client write: %w", err)
			}
			_ = rc.Flush()
			g.m.bytesRelayed.Add(int64(n))
		}
		var err error
		n, err = resp.Body.Read(buf)
		idleT.Reset(g.cfg.StreamIdleTimeout)
		// Gap between successive backend chunks — the client-visible
		// stream smoothness, one observation per chunk.
		now := time.Now()
		g.relayGapHist.Observe(now.Sub(lastChunk))
		lastChunk = now
		if err == io.EOF {
			if n > 0 {
				if _, werr := w.Write(buf[:n]); werr != nil {
					return fmt.Errorf("client write: %w", werr)
				}
				_ = rc.Flush()
				g.m.bytesRelayed.Add(int64(n))
			}
			return nil
		}
		if err != nil {
			return err
		}
	}
}
