package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/video"
)

// ServeConfig configures a load run: M concurrent encode sessions against
// a running vcodecd or gateway, measuring what a client of the "variable
// bandwidth channel" deployment cares about — time to first packet
// (stream startup) and per-frame packet cadence — across a sweep of
// session counts.
type ServeConfig struct {
	// URL is the daemon base URL, e.g. http://127.0.0.1:8323.
	URL string
	// URLs, when non-empty, replaces URL with multi-endpoint targets:
	// sessions round-robin across them (several gateways, or backends
	// driven directly).
	URLs []string
	// Sessions lists the concurrency levels to sweep (default {1, 4, 8}).
	Sessions []int
	// Frames per session (default 30).
	Frames int
	// Size and Profile describe the synthetic upload (default QCIF
	// Foreman — the paper's hard case).
	Size    frame.Size
	Profile video.Profile
	Qp      int    // default 16
	Seed    uint64 // default DefaultSeed
	// Searcher and Entropy are passed through as /encode query params.
	Searcher string
	Entropy  string
	// Kbps, when positive, requests per-session frame-lag rate control
	// (the kbps query param); sessions then run rate-controlled on the
	// shared pool at full parallelism.
	Kbps float64
	// Priority selects the sessions' scheduling tier: "" or "live",
	// "batch", or "mixed" (sessions alternate live/batch — the overload
	// shape the QoS controller's batch-first degradation is for).
	Priority string
	// QosPin, when non-empty, pins every session at that QoS level
	// (the qoslevel query param: "0".."3"); empty runs adaptive, under
	// the server's closed-loop controller.
	QosPin string
	// Verify byte-compares one session's packets per point against the
	// offline EncodePackets output — the "it serves traffic" claim is
	// then also an "it serves the right bits" claim. An adaptive run pins
	// the verified session at level 0 (the controller could otherwise
	// legitimately change its bytes mid-stream); a QosPin run verifies at
	// the pinned level against ApplyQosLevel.
	Verify bool
	// Retry503, when set, honors a 503's Retry-After: the session sleeps
	// the advertised delay and re-submits, up to RetryMax times (default
	// 4). Off by default — a load generator that silently retries hides
	// admission behavior unless explicitly asked to cooperate with it.
	Retry503 bool
	RetryMax int
}

func (c ServeConfig) withDefaults() ServeConfig {
	if len(c.Sessions) == 0 {
		c.Sessions = []int{1, 4, 8}
	}
	if c.Frames <= 0 {
		c.Frames = 30
	}
	if c.Size == (frame.Size{}) {
		c.Size = frame.QCIF
	}
	if c.Qp <= 0 {
		c.Qp = 16
	}
	if c.Seed == 0 {
		c.Seed = experiment.DefaultSeed
	}
	if c.Searcher == "" {
		c.Searcher = "acbm"
	}
	if len(c.URLs) == 0 && c.URL != "" {
		c.URLs = []string{c.URL}
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 4
	}
	return c
}

// ServePoint is one session-count measurement.
type ServePoint struct {
	Sessions    int
	TotalFrames int
	WallSeconds float64
	// FramesPerSec is aggregate serving throughput: frames streamed by
	// all sessions over the sweep's wall clock.
	FramesPerSec float64
	// FirstPacketMs* is the time from sending the request to receiving
	// the first frame packet (stream startup latency), across sessions.
	FirstPacketMsP50 float64
	FirstPacketMsP99 float64
	// FrameMs* is the gap between consecutive frame packets (steady-state
	// per-frame latency), across all sessions' samples.
	FrameMsP50 float64
	FrameMsP99 float64
	Errors     int
	Verified   bool
	// QosFinalLevels histograms the sessions by the QoS level their
	// stream ended at (X-Vcodec-Qos-Level trailer): index L counts the
	// sessions that finished at level L.
	QosFinalLevels []int
	// Worst names the point's slowest session by trace ID, with its
	// per-frame timeline fetched from the flight recorder.
	Worst *WorstSession
}

// ServeResult is the full serving report.
type ServeResult struct {
	URL       string
	Profile   string
	Size      string
	Frames    int
	Qp        int
	Searcher  string
	GoMaxProc int
	Points    []ServePoint
}

// sessionSample is one client's observations.
type sessionSample struct {
	firstPacket time.Duration
	frameGaps   []time.Duration
	wall        time.Duration // request sent → stream drained
	frames      int
	qosLevel    int      // final QoS level (trailer)
	traceID     string   // X-Vcodec-Trace trailer — flight-recorder key
	backend     string   // X-Vcodec-Backend trailer (gateway runs)
	attempts    int      // X-Vcodec-Attempts trailer (gateway runs)
	packets     [][]byte // retained only for the verified session
	err         error
}

// RunServe sweeps the configured session counts against the daemon.
func RunServe(cfg ServeConfig) (*ServeResult, error) {
	cfg = cfg.withDefaults()
	frames := video.Generate(cfg.Profile, cfg.Size, cfg.Frames, cfg.Seed)
	var body bytes.Buffer
	if err := frame.WriteY4M(&body, frames, 30, 1); err != nil {
		return nil, err
	}
	upload := body.Bytes()
	query := fmt.Sprintf("/encode?qp=%d&me=%s&entropy=%s", cfg.Qp, cfg.Searcher, cfg.Entropy)
	if cfg.Kbps > 0 {
		// Fixed-point formatting: %g's exponent form ("1e+06") would have
		// its '+' decoded as a space in the query string.
		query += "&kbps=" + strconv.FormatFloat(cfg.Kbps, 'f', -1, 64)
	}
	if cfg.QosPin != "" {
		query += "&qoslevel=" + cfg.QosPin
	}
	urls := make([]string, len(cfg.URLs))
	for i, base := range cfg.URLs {
		urls[i] = base + query
	}

	var offline [][]byte
	if cfg.Verify {
		scfg, err := offlineConfig(cfg)
		if err != nil {
			return nil, err
		}
		offline, _, err = codec.EncodePackets(scfg, frames)
		if err != nil {
			return nil, err
		}
	}

	res := &ServeResult{
		URL:       strings.Join(cfg.URLs, ","),
		Profile:   cfg.Profile.String(),
		Size:      fmt.Sprintf("%dx%d", cfg.Size.W, cfg.Size.H),
		Frames:    cfg.Frames,
		Qp:        cfg.Qp,
		Searcher:  cfg.Searcher,
		GoMaxProc: runtime.GOMAXPROCS(0),
	}
	client := &http.Client{} // no timeout: sessions are long-lived streams
	for _, n := range cfg.Sessions {
		pt, err := runServePoint(client, urls, upload, n, cfg, offline)
		if err != nil {
			return nil, fmt.Errorf("sessions=%d: %w", n, err)
		}
		res.Points = append(res.Points, *pt)
	}
	return res, nil
}

// offlineConfig maps the benchmark parameters onto the library encoder
// for the verification encode (Workers=1 — identity across worker counts
// is the codec's own guarantee).
func offlineConfig(cfg ServeConfig) (codec.Config, error) {
	scfg := codec.Config{Qp: cfg.Qp, FPS: 30, Workers: 1, TargetKbps: cfg.Kbps}
	var err error
	if scfg.Entropy, err = codec.ParseEntropyMode(cfg.Entropy); err != nil {
		return scfg, err
	}
	if scfg.Searcher, err = core.SearcherByName(cfg.Searcher); err != nil {
		return scfg, err
	}
	if cfg.QosPin != "" {
		// A pinned session's bytes are the offline encoder's at that
		// level — the server's documented qoslevel contract.
		level, err := strconv.Atoi(cfg.QosPin)
		if err != nil || level < 0 || level > server.MaxQosLevel {
			return scfg, fmt.Errorf("bad QosPin %q (want 0..%d)", cfg.QosPin, server.MaxQosLevel)
		}
		scfg = server.ApplyQosLevel(scfg, level)
	}
	return scfg, nil
}

// sessionQuery appends session i's serving-layer parameters: its
// priority tier (under "mixed", odd sessions run batch) and, for the
// verified session of an adaptive run, the level-0 pin that keeps its
// bytes offline-comparable while the controller degrades the rest.
func sessionQuery(base string, i int, verify bool, cfg ServeConfig) string {
	switch cfg.Priority {
	case "", "live":
	case "batch":
		base += "&priority=batch"
	case "mixed":
		if i%2 == 1 {
			base += "&priority=batch"
		}
	}
	if verify && cfg.QosPin == "" {
		base += "&qoslevel=0"
	}
	return base
}

func runServePoint(client *http.Client, urls []string, upload []byte, n int, cfg ServeConfig, offline [][]byte) (*ServePoint, error) {
	samples := make([]sessionSample, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			verify := cfg.Verify && i == 0
			samples[i] = runSession(client, sessionQuery(urls[i%len(urls)], i, verify, cfg), upload, verify, cfg)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	pt := &ServePoint{
		Sessions:    n,
		WallSeconds: wall.Seconds(),
	}
	var firsts, gaps []time.Duration
	levels := make([]int, server.MaxQosLevel+1)
	for i := range samples {
		s := &samples[i]
		if s.err != nil {
			pt.Errors++
			continue
		}
		pt.TotalFrames += s.frames
		if s.qosLevel >= 0 && s.qosLevel <= server.MaxQosLevel {
			levels[s.qosLevel]++
		}
		firsts = append(firsts, s.firstPacket)
		gaps = append(gaps, s.frameGaps...)
	}
	pt.QosFinalLevels = levels
	if wall > 0 {
		pt.FramesPerSec = float64(pt.TotalFrames) / wall.Seconds()
	}
	// The tail: name the slowest session and pull its timeline back from
	// the flight recorder before later sessions push it out of the
	// completed ring.
	worst := -1
	for i := range samples {
		if samples[i].err != nil || samples[i].traceID == "" {
			continue
		}
		if worst < 0 || samples[i].wall > samples[worst].wall {
			worst = i
		}
	}
	if worst >= 0 {
		s := &samples[worst]
		w := &WorstSession{
			TraceID:       s.traceID,
			Backend:       s.backend,
			Attempts:      s.attempts,
			WallMs:        float64(s.wall.Nanoseconds()) / 1e6,
			FirstPacketMs: float64(s.firstPacket.Nanoseconds()) / 1e6,
			GapP99Ms:      quantileMs(s.frameGaps, 0.99),
		}
		bases := make([]string, len(urls))
		for i, u := range urls {
			bases[i] = debugBase(u)
		}
		w.Timeline, w.DroppedFrames = fetchTimeline(client, bases, s.traceID)
		pt.Worst = w
	}
	pt.FirstPacketMsP50 = quantileMs(firsts, 0.50)
	pt.FirstPacketMsP99 = quantileMs(firsts, 0.99)
	pt.FrameMsP50 = quantileMs(gaps, 0.50)
	pt.FrameMsP99 = quantileMs(gaps, 0.99)
	if pt.Errors > 0 {
		var firstErr error
		for i := range samples {
			if samples[i].err != nil {
				firstErr = samples[i].err
				break
			}
		}
		return nil, fmt.Errorf("%d/%d sessions failed: %w", pt.Errors, n, firstErr)
	}
	if offline != nil {
		if len(samples[0].packets) != len(offline) {
			return nil, fmt.Errorf("verify: %d packets, offline %d", len(samples[0].packets), len(offline))
		}
		for i := range offline {
			if !bytes.Equal(samples[0].packets[i], offline[i]) {
				return nil, fmt.Errorf("verify: packet %d differs from offline encoder", i)
			}
		}
		pt.Verified = true
	}
	return pt, nil
}

// runSession is one load-generating client: upload the clip, stream the
// packets back, timestamp each arrival. With cfg.Retry503 it cooperates
// with admission control, sleeping a 503's advertised Retry-After before
// re-submitting.
func runSession(client *http.Client, url string, upload []byte, keep bool, cfg ServeConfig) sessionSample {
	var s sessionSample
	var resp *http.Response
	begin := time.Now()
	for attempt := 0; ; attempt++ {
		var err error
		resp, err = client.Post(url, "video/x-yuv4mpeg", bytes.NewReader(upload))
		if err != nil {
			s.err = err
			return s
		}
		if resp.StatusCode == http.StatusServiceUnavailable && cfg.Retry503 && attempt < cfg.RetryMax {
			delay := 200 * time.Millisecond
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
				delay = time.Duration(ra) * time.Second
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			time.Sleep(delay)
			begin = time.Now() // startup latency is per accepted submission
			continue
		}
		break
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		s.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		return s
	}
	pr := codec.NewPacketReader(resp.Body)
	var last time.Time
	for {
		idx, data, err := pr.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			s.err = err
			return s
		}
		now := time.Now()
		if keep {
			s.packets = append(s.packets, data)
		}
		if idx == 0 {
			continue // header packet: startup is measured to the first frame
		}
		if s.frames == 0 {
			s.firstPacket = now.Sub(begin)
		} else {
			s.frameGaps = append(s.frameGaps, now.Sub(last))
		}
		last = now
		s.frames++
	}
	s.wall = time.Since(begin)
	s.qosLevel, _ = strconv.Atoi(resp.Trailer.Get("X-Vcodec-Qos-Level"))
	s.traceID = resp.Trailer.Get(obs.TraceIDHeader)
	s.backend = resp.Trailer.Get("X-Vcodec-Backend")
	s.attempts, _ = strconv.Atoi(resp.Trailer.Get("X-Vcodec-Attempts"))
	if errT := resp.Trailer.Get("X-Vcodec-Error"); errT != "" {
		s.err = fmt.Errorf("server: %s", errT)
	} else if s.frames == 0 {
		s.err = fmt.Errorf("no frame packets received")
	} else if s.frames != cfg.Frames {
		// Graceful degradation must never shorten a stream: a session that
		// ends cleanly with fewer frames than it uploaded is a truncation,
		// the contract violation the QoS design exists to avoid.
		s.err = fmt.Errorf("truncated: %d/%d frames", s.frames, cfg.Frames)
	}
	return s
}

// quantileMs returns the q-quantile of the samples in milliseconds
// (nearest-rank; 0 for an empty set).
func quantileMs(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), d...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i].Nanoseconds()) / 1e6
}

// FormatServe renders the result as an aligned text table.
func FormatServe(r *ServeResult) string {
	out := fmt.Sprintf("serving: %s, %s %s, %d frames/session, Qp %d, %s, GOMAXPROCS %d\n",
		r.URL, r.Profile, r.Size, r.Frames, r.Qp, r.Searcher, r.GoMaxProc)
	out += fmt.Sprintf("%8s %8s %10s %9s %12s %12s %10s %10s %9s %12s\n",
		"sessions", "frames", "wall s", "frames/s", "first p50ms", "first p99ms", "gap p50ms", "gap p99ms", "verified", "qos levels")
	for _, p := range r.Points {
		v := "-"
		if p.Verified {
			v = "yes"
		}
		out += fmt.Sprintf("%8d %8d %10.2f %9.1f %12.1f %12.1f %10.2f %10.2f %9s %12s\n",
			p.Sessions, p.TotalFrames, p.WallSeconds, p.FramesPerSec,
			p.FirstPacketMsP50, p.FirstPacketMsP99, p.FrameMsP50, p.FrameMsP99, v,
			formatLevelHist(p.QosFinalLevels))
		out += formatWorst(p.Worst)
	}
	return out
}

// formatLevelHist renders a final-level histogram as "L0:8 L2:4"
// (levels with no sessions omitted; "-" when empty).
func formatLevelHist(levels []int) string {
	var parts []string
	for l, n := range levels {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("L%d:%d", l, n))
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}
