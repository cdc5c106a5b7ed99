package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/frame"
	vmetrics "repro/internal/metrics"
	"repro/internal/obs"
)

// metrics are vcodecd's cumulative counters. Rates exposed on /metrics
// are derived from totals (frames / uptime, phase ns / frames), so a
// scraper can also rate() the raw totals itself. The cumulative phase
// wall clocks are the sums of the analysis and entropy histograms, which
// see every frame of every rung.
type metrics struct {
	sessionsTotal    atomic.Int64 // admitted sessions
	sessionsRejected atomic.Int64 // 503s from admission control
	sessionsFailed   atomic.Int64 // sessions that ended with an error trailer
	framesTotal      atomic.Int64 // frame packets emitted
	packetsTotal     atomic.Int64 // all packets (header + frame)
	bytesOut         atomic.Int64 // packet payload bytes streamed
	sessionNs        atomic.Int64 // cumulative per-session wall clock

	// Rate-controlled sessions (kbps query param): target and achieved
	// bitrates accumulate in milli-kbps so a scraper can derive the mean
	// tracking ratio achieved/target.
	rateSessions          atomic.Int64
	rateTargetMilliKbps   atomic.Int64
	rateAchievedMilliKbps atomic.Int64
}

// handleHealthz reports liveness, the scheduler's occupancy and the QoS
// degradation level (the batch level — the deepest in force; a fronting
// gateway uses it to prefer less-degraded backends). During drain it
// flips to 503 so load balancers stop routing here.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	active, queued := s.sched.counts()
	status := "ok"
	code := http.StatusOK
	if s.sched.isDraining() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	qosLevel := 0
	if s.qos != nil {
		_, qosLevel, _ = s.qos.snapshot()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status":          status,
		"sessions_active": active,
		"sessions_queued": queued,
		"qos_level":       qosLevel,
		"uptime_seconds":  time.Since(s.start).Seconds(),
	})
}

// handleMetrics exposes the counters in the Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	active, queued := s.sched.counts()
	frames := s.m.framesTotal.Load()
	uptime := time.Since(s.start).Seconds()
	analysis, entropy := s.hist.analysis.Sum(), s.hist.entropy.Sum()
	var fps, analysisMs, entropyMs float64
	if uptime > 0 {
		fps = float64(frames) / uptime
	}
	if frames > 0 {
		analysisMs = float64(analysis.Nanoseconds()) / float64(frames) / 1e6
		entropyMs = float64(entropy.Nanoseconds()) / float64(frames) / 1e6
	}
	draining := 0
	if s.sched.isDraining() {
		draining = 1
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	// Every sample ships with HELP and TYPE so strict exposition-format
	// parsers (and the metrics tests) accept the page: counters for the
	// monotonic _total series, gauges for point-in-time values.
	g := func(name, typ, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, v)
	}
	// Build/host context as labels (value always 1, the Prometheus
	// *_info convention): which SAD kernel tier this process dispatches
	// to, so a fleet dashboard can spot a node that silently fell back
	// to scalar — a 5–10× throughput cliff with no error anywhere.
	fmt.Fprintf(w, "# HELP vcodecd_build_info build and host context, value is always 1\n# TYPE vcodecd_build_info gauge\n")
	fmt.Fprintf(w, "vcodecd_build_info{goarch=%q,gomaxprocs=\"%d\",kernel_isa=%q,kernel_isas=%q} 1\n",
		runtime.GOARCH, runtime.GOMAXPROCS(0),
		vmetrics.ActiveKernelISA(), strings.Join(vmetrics.KernelISAs(), ","))
	g("vcodecd_sessions_active", "gauge", "sessions currently encoding", active)
	g("vcodecd_sessions_queued", "gauge", "sessions waiting for admission", queued)
	g("vcodecd_sessions_total", "counter", "sessions admitted since start", s.m.sessionsTotal.Load())
	g("vcodecd_sessions_rejected_total", "counter", "sessions rejected by admission control", s.m.sessionsRejected.Load())
	g("vcodecd_sessions_failed_total", "counter", "sessions that ended with an error", s.m.sessionsFailed.Load())
	g("vcodecd_frames_total", "counter", "frame packets emitted", frames)
	g("vcodecd_packets_total", "counter", "packets emitted (header + frame)", s.m.packetsTotal.Load())
	g("vcodecd_response_bytes_total", "counter", "packet payload bytes streamed to clients", s.m.bytesOut.Load())
	g("vcodecd_analysis_seconds_total", "counter", "cumulative macroblock-analysis wall clock", analysis.Seconds())
	g("vcodecd_entropy_seconds_total", "counter", "cumulative entropy-coding wall clock", entropy.Seconds())
	g("vcodecd_session_seconds_total", "counter", "cumulative session wall clock", float64(s.m.sessionNs.Load())/1e9)
	g("vcodecd_frames_per_second", "gauge", "frame packets per second of uptime", fps)
	g("vcodecd_analysis_ms_per_frame", "gauge", "mean analysis latency per frame", analysisMs)
	g("vcodecd_entropy_ms_per_frame", "gauge", "mean entropy latency per frame", entropyMs)
	g("vcodecd_rate_sessions_total", "counter", "completed sessions that ran bitrate control", s.m.rateSessions.Load())
	g("vcodecd_rate_target_kbps_total", "counter", "sum of kbps targets across rate-controlled sessions", float64(s.m.rateTargetMilliKbps.Load())/1000)
	g("vcodecd_rate_achieved_kbps_total", "counter", "sum of achieved kbps across rate-controlled sessions", float64(s.m.rateAchievedMilliKbps.Load())/1000)
	g("vcodecd_pool_workers", "gauge", "shared analysis pool size", s.pool.Size())
	// The pool's idle policy (codec.Pool: spin briefly, then park). Parks
	// flat while frames flow means the lanes are staying hot; CPU on an
	// idle-looking daemon with parks still rising is workers spinning out
	// their bound between sparse frames.
	ps := s.pool.Stats()
	g("vcodecd_pool_parks_total", "counter", "times a pool worker gave up its idle spin and parked", ps.Parks)
	g("vcodecd_pool_spin_pickups_total", "counter", "row tasks taken by a pool worker still in its idle spin (wake-ups avoided)", ps.SpinPickups)
	g("vcodecd_draining", "gauge", "1 while graceful shutdown is draining sessions", draining)

	live, batch := s.sched.countsByClass()
	g("vcodecd_sessions_active_live", "gauge", "live-priority sessions currently encoding", live)
	g("vcodecd_sessions_active_batch", "gauge", "batch-priority sessions currently encoding", batch)
	if s.qos != nil {
		liveLevel, batchLevel, perLevel := s.qos.snapshot()
		g("vcodecd_qos_level", "gauge", "current QoS degradation level (batch tier — the deepest in force)", batchLevel)
		g("vcodecd_qos_level_live", "gauge", "current QoS degradation level of live-priority sessions", liveLevel)
		g("vcodecd_qos_degrades_total", "counter", "controller degradation steps taken", s.qos.degrades.Load())
		g("vcodecd_qos_restores_total", "counter", "controller restoration steps taken", s.qos.restores.Load())
		g("vcodecd_qos_actuations_total", "counter", "per-session level changes applied at frame hand-off", s.qos.actuations.Load())
		fmt.Fprintf(w, "# HELP vcodecd_qos_sessions adaptive sessions by class and applied QoS level\n# TYPE vcodecd_qos_sessions gauge\n")
		for cls, name := range []string{"live", "batch"} {
			for level, n := range perLevel[cls] {
				fmt.Fprintf(w, "vcodecd_qos_sessions{class=%q,level=\"%d\"} %d\n", name, level, n)
			}
		}
	}

	// Frame-plane pool efficiency per size/apron bucket class. A rising
	// miss rate on a hot class means plane allocations leaked back into
	// the steady state — ladder sessions churn downscaled planes hard, so
	// this is the first gauge to move when recycling regresses.
	poolStats := frame.PoolStats()
	fmt.Fprintf(w, "# HELP vcodecd_frame_pool_hits_total plane-pool checkouts served from the pool\n# TYPE vcodecd_frame_pool_hits_total counter\n")
	for _, c := range poolStats {
		fmt.Fprintf(w, "vcodecd_frame_pool_hits_total{w=\"%d\",h=\"%d\",apron=\"%d\"} %d\n", c.W, c.H, c.Apron, c.Hits)
	}
	fmt.Fprintf(w, "# HELP vcodecd_frame_pool_misses_total plane-pool checkouts that allocated fresh\n# TYPE vcodecd_frame_pool_misses_total counter\n")
	for _, c := range poolStats {
		fmt.Fprintf(w, "vcodecd_frame_pool_misses_total{w=\"%d\",h=\"%d\",apron=\"%d\"} %d\n", c.W, c.H, c.Apron, c.Misses)
	}

	// Latency distributions from the flight-recorder substrate.
	for _, h := range []*obs.Histogram{
		s.hist.firstPacket, s.hist.frameGap, s.hist.read,
		s.hist.analysis, s.hist.entropy, s.hist.emit, s.hist.queueWait,
	} {
		h.WriteProm(w)
	}
}
