package server

import (
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/search"
)

// ContentType is the media type of the framed packet stream /encode
// returns (codec.PacketWriter records).
const ContentType = "application/x-vcodec-packets"

// LadderContentType is the media type a simulcast session returns: the
// rungs' packet streams interleaved as codec.LadderPacketWriter records.
const LadderContentType = "application/x-vcodec-ladder-packets"

// Trailer names carrying per-session results at the end of the packet
// stream.
const (
	TrailerFrames = "X-Vcodec-Frames"
	TrailerPSNRY  = "X-Vcodec-Psnr-Y"
	TrailerKbps   = "X-Vcodec-Kbps"
	// TrailerTargetKbps echoes the session's kbps target (rate-controlled
	// sessions only), so a client can read achieved-vs-target from the
	// trailers alone.
	TrailerTargetKbps = "X-Vcodec-Target-Kbps"
	TrailerError      = "X-Vcodec-Error"
	// TrailerRungs summarises a ladder session per rung as
	// "WxH:frames:psnrY:kbps" entries joined by ";", in rung order.
	TrailerRungs = "X-Vcodec-Rungs"
	// TrailerTrace echoes the session's trace ID (minted here, or
	// accepted from an inbound X-Vcodec-Trace header — typically the
	// gateway's), the key into /debug/vcodec/trace.
	TrailerTrace = obs.TraceIDHeader
)

// Config sizes the serving layer.
type Config struct {
	// PoolWorkers is the shared analysis pool size (0 = GOMAXPROCS).
	// This is the machine-wide analysis parallelism — at most this many
	// macroblock rows of all sessions run at once, each session's own
	// goroutine holding one slot per row it runs: sessions share it fairly
	// instead of each spinning up its own worker set.
	PoolWorkers int
	// MaxSessions caps concurrently encoding sessions (default 8).
	MaxSessions int
	// MaxQueued caps sessions waiting for admission (default 32); beyond
	// it /encode fails fast with 503.
	MaxQueued int
	// MaxFramesPerSession bounds one upload (0 = unlimited).
	MaxFramesPerSession int
	// QosInterval is the closed-loop QoS controller's tick period
	// (default 250ms). Negative disables the controller entirely:
	// sessions then encode at their requested (or pinned) level no
	// matter the load.
	QosInterval time.Duration
	// QosTargetFrameMs is the per-frame analysis latency — EncodeFrame
	// wall clock, shared-pool queueing included — the controller steers
	// the EWMA to stay under (default 75, comfortably inside an
	// interactive frame interval).
	QosTargetFrameMs float64
}

func (c Config) withDefaults() Config {
	if c.PoolWorkers <= 0 {
		c.PoolWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 8
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 32
	}
	if c.QosInterval == 0 {
		c.QosInterval = 250 * time.Millisecond
	}
	if c.QosTargetFrameMs <= 0 {
		c.QosTargetFrameMs = 75
	}
	return c
}

// Server is the encode service: it owns the shared analysis pool and the
// session scheduler. Serve it with net/http via Handler.
type Server struct {
	cfg   Config
	pool  *codec.Pool
	sched *scheduler
	qos   *qosController // nil when Config.QosInterval < 0
	mux   *http.ServeMux
	m     metrics
	obs   *obs.Registry // per-session flight recorders (always on)
	hist  serverHists
	start time.Time
}

// serverHists are vcodecd's latency distributions, exposed on /metrics.
// Every observation is a phase boundary the serving path already times,
// so the histograms cost one atomic add each on top of existing code.
type serverHists struct {
	firstPacket *obs.Histogram // request start → first frame packet flushed
	frameGap    *obs.Histogram // gap between consecutive frame-packet flushes
	read        *obs.Histogram // Y4M source-frame read (client upload pressure)
	analysis    *obs.Histogram // per-frame phase-1 wall clock
	entropy     *obs.Histogram // per-frame phase-2 wall clock
	emit        *obs.Histogram // per-packet write + client flush
	queueWait   *obs.Histogram // per-frame summed shared-pool queue wait
}

func newServerHists() serverHists {
	return serverHists{
		firstPacket: obs.NewHistogram("vcodecd_first_packet_seconds", "request start to first frame packet flushed"),
		frameGap:    obs.NewHistogram("vcodecd_frame_gap_seconds", "gap between consecutive frame-packet flushes"),
		read:        obs.NewHistogram("vcodecd_read_seconds", "Y4M source-frame read latency"),
		analysis:    obs.NewHistogram("vcodecd_analysis_seconds", "per-frame macroblock-analysis wall clock"),
		entropy:     obs.NewHistogram("vcodecd_entropy_seconds", "per-frame entropy-coding wall clock"),
		emit:        obs.NewHistogram("vcodecd_emit_seconds", "per-packet write plus client flush"),
		queueWait:   obs.NewHistogram("vcodecd_queue_wait_seconds", "per-frame shared-pool queue wait summed over the frame's rows, observed for every frame (0 when none waited)"),
	}
}

// New builds a server and starts its analysis pool and QoS control loop.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		pool:  codec.NewPool(cfg.PoolWorkers),
		sched: newScheduler(cfg.MaxSessions, cfg.MaxQueued),
		mux:   http.NewServeMux(),
		obs:   obs.NewRegistry(0),
		hist:  newServerHists(),
		start: time.Now(),
	}
	if cfg.QosInterval > 0 {
		s.qos = newQosController(cfg.QosInterval, cfg.QosTargetFrameMs, cfg.MaxSessions, s.sched)
	}
	s.mux.HandleFunc("/encode", s.handleEncode)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/vcodec/sessions", s.handleDebugSessions)
	s.mux.HandleFunc("/debug/vcodec/trace", s.handleDebugTrace)
	s.mux.HandleFunc("/debug/vcodec/qos", s.handleDebugQos)
	return s
}

// Handler returns the HTTP handler tree (/encode, /healthz, /metrics).
func (s *Server) Handler() http.Handler { return s.mux }

// Drain begins graceful shutdown: new sessions are rejected with 503 and
// the call blocks until every in-flight session has finished (or ctx
// expires). Safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.sched.beginDrain()
	return s.sched.waitIdle(ctx)
}

// Close stops the QoS control loop and releases the analysis pool. Only
// call it after Drain has returned nil (pool workers must be idle).
func (s *Server) Close() {
	if s.qos != nil {
		s.qos.close()
	}
	s.pool.Close()
}

// handleEncode runs one encode session: Y4M frames in (chunked), framed
// packets out, flushed per packet.
func (s *Server) handleEncode(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST a YUV4MPEG2 stream", http.StatusMethodNotAllowed)
		return
	}
	cfg, opts, err := parseSessionConfig(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.sched.admit(r.Context(), opts.batch); err != nil {
		switch err {
		case errDraining, errQueueFull:
			s.m.sessionsRejected.Add(1)
			// Retry-After scales with the actual backlog and how degraded
			// the fleet already is — a rejected client under deep overload
			// backs off harder than one that just raced a full queue.
			_, queued := s.sched.counts()
			step := 0
			if s.qos != nil {
				step = s.qos.currentStep()
			}
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(queued, step, s.cfg.MaxSessions)))
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		default: // client gave up while queued
		}
		return
	}
	defer s.sched.release(opts.batch)
	s.m.sessionsTotal.Add(1)

	// Trace identity: accept a sanitized inbound ID (normally minted by
	// the fronting gateway) or mint one here. The ID keys the session's
	// flight recorder into /debug/vcodec/trace and is echoed in the
	// response trailers, so client, gateway and backend all name the
	// same session.
	traceID := obs.SanitizeTraceID(r.Header.Get(obs.TraceIDHeader))
	if traceID == "" {
		traceID = obs.NewTraceID()
	}
	pri := "live"
	if opts.batch {
		pri = "batch"
	}
	meName := strings.ToLower(r.URL.Query().Get("me"))
	if meName == "" {
		meName = "acbm"
	}
	rec := obs.NewFlightRecorder(traceID, obs.Meta{Priority: pri, Searcher: meName, PinnedLevel: opts.pinned, Rungs: len(opts.ladder)}, 0)
	s.obs.Add(rec)
	defer s.obs.Complete(rec)

	// pprof labels scope the session goroutine — and the pipeline writer
	// goroutine it spawns, which inherits the labels at creation — so a
	// CPU or goroutine profile taken under load attributes samples to
	// session, priority class and searcher.
	pprof.Do(r.Context(), pprof.Labels(
		"vcodec_session", traceID,
		"vcodec_priority", pri,
		"vcodec_searcher", meName,
	), func(ctx context.Context) {
		s.encodeSession(ctx, w, r, cfg, opts, rec, traceID)
	})
}

// encodeSession runs an admitted session: Y4M frames in, framed packets
// out, the flight recorder observing every phase boundary along the way.
//
// A session is a chain of rungs, each one codec session engine. A plain
// /encode is the one-rung chain, driven as a codec.EncodeStream on this
// goroutine; /encode?ladder=WxH@kbps,... ingests the source once and
// streams every rung back interleaved through a codec.LadderStream (which
// owns the downscale chain, cross-layer motion seeding and per-rung rate
// control). The two differ here only in record framing, the trailer set
// and QoS registration: ladder sessions are exempt from the adaptive
// controller — the rungs ARE the quality ladder, and a client that wants
// a degraded stream picks a lower rung — while a pinned qoslevel applies
// uniformly to every rung, keeping the stream byte-verifiable against an
// offline EncodeLadder run.
func (s *Server) encodeSession(ctx context.Context, w http.ResponseWriter, r *http.Request, cfg codec.Config, opts sessionOpts, rec *obs.FlightRecorder, traceID string) {
	ladder := len(opts.ladder) > 0
	badRequest := func(err error) {
		rec.Finish(err)
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
	y4m, err := frame.NewY4MReader(r.Body)
	if err != nil {
		badRequest(err)
		return
	}
	if sz := y4m.Size(); ladder && sz != opts.ladder[0].Size {
		top := opts.ladder[0].Size
		badRequest(fmt.Errorf("source is %dx%d, ladder top rung wants %dx%d", sz.W, sz.H, top.W, top.H))
		return
	} else if sz.W%16 != 0 || sz.H%16 != 0 {
		badRequest(fmt.Errorf("frame size %dx%d not divisible into 16x16 macroblocks", sz.W, sz.H))
		return
	}
	if fps := y4m.FPS(); fps > 0 {
		cfg.FPS = fps
	}
	// Sessions share the machine-sized pool (never private workers) and
	// pipeline entropy of frame n over analysis of frame n+1. Per-session
	// rate profiles (kbps, budget) ride the same path: the frame-lag
	// controllers decide before analysis and observe after entropy, so a
	// rate-controlled session keeps full pool parallelism and still
	// streams the bytes the offline encoder would produce.
	cfg.Pool = s.pool
	cfg.Pipeline = true
	if opts.batch {
		cfg.Priority = codec.PriorityBatch
	}
	// One encoder config per rung: shared knobs from the query, and for a
	// ladder the per-rung bitrate target from the spec and — the Rung
	// contract — a fresh searcher instance each, since the rungs analyse
	// on parallel goroutines. The flight recorder rides the codec's
	// observer hook; observation is one-way — nothing there can change an
	// output bit.
	rungs := make([]codec.Rung, max(1, len(opts.ladder)))
	for i := range rungs {
		rcfg := cfg
		if ladder {
			rungs[i].Size = opts.ladder[i].Size
			rcfg.TargetKbps = opts.ladder[i].TargetKbps
			if rcfg.Searcher, err = opts.newSearcher(); err != nil {
				badRequest(err)
				return
			}
		}
		// A pinned session (qoslevel=N) takes its degradation at admission:
		// its whole stream encodes at one level, byte-verifiable against the
		// offline encoder.
		if opts.pinned >= 0 {
			rcfg = ApplyQosLevel(rcfg, opts.pinned)
		}
		rcfg.Observer = &sessionObserver{rec: rec, h: &s.hist, rung: i, rungs: len(rungs)}
		rungs[i].Cfg = rcfg
	}

	// QoS coupling: an adaptive plain session registers with the control
	// loop and applies the controller's target level at each frame
	// hand-off below; pinned and ladder sessions are exempt.
	var qs *qosSession
	qosLevel := max(0, opts.pinned)
	if opts.pinned >= 0 {
		rec.SetQosLevel(qosLevel)
	} else if s.qos != nil && !ladder {
		qs = s.qos.register(opts.batch)
		defer s.qos.unregister(qs)
	}

	// The response streams while the request body is still being read;
	// HTTP/1 needs full-duplex explicitly enabled (no-op error on HTTP/2).
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()

	trailers := []string{TrailerFrames, TrailerPSNRY, TrailerKbps, TrailerTargetKbps, TrailerQosLevel, TrailerQosTransitions, TrailerTrace, TrailerError}
	w.Header().Set("Content-Type", ContentType)
	if ladder {
		trailers = []string{TrailerFrames, TrailerRungs, TrailerQosLevel, TrailerTrace, TrailerError}
		w.Header().Set("Content-Type", LadderContentType)
	}
	w.Header().Set("Trailer", strings.Join(trailers, ", "))

	// The labelled request context (see handleEncode) dies the moment the
	// client disconnects (or a fronting gateway abandons the attempt).
	// Every per-frame step checks it, so a dead session releases its
	// scheduler slot and pool share within one frame instead of encoding
	// the rest of a buffered upload into a socket nobody reads — small
	// packets can keep "succeeding" into kernel buffers long after the
	// peer is gone.

	begin := time.Now()
	// Emit-side stream state: the callback runs on the session's writer
	// goroutine (a ladder serialises it across its rungs' writers), so
	// lastEmit and the record writers need no locking.
	var lastEmit time.Time
	pw, lpw := codec.NewPacketWriter(w), codec.NewLadderPacketWriter(w)
	emit := func(rung int, p codec.Packet) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("client gone: %w", err)
		}
		emitStart := time.Now()
		var err error
		if ladder {
			err = lpw.WritePacket(rung, p.Index, p.Data)
		} else {
			err = pw.WritePacket(p.Index, p.Data)
		}
		if err != nil {
			return err
		}
		// Flush per packet: this is what turns the response into a live
		// stream (first-byte latency of one frame) and what propagates a
		// slow client's backpressure into the encode loop.
		if err := rc.Flush(); err != nil {
			return err
		}
		emitDur := time.Since(emitStart)
		if s.qos != nil {
			s.qos.observe(0, emitDur)
		}
		s.hist.emit.Observe(emitDur)
		s.m.packetsTotal.Add(1)
		s.m.bytesOut.Add(int64(len(p.Data)))
		if p.Index > 0 {
			s.m.framesTotal.Add(1)
			rec.FrameEmitted((p.Index-1)*len(rungs)+rung, emitDur)
			now := time.Now()
			if lastEmit.IsZero() {
				s.hist.firstPacket.Observe(now.Sub(begin))
			} else {
				s.hist.frameGap.Observe(now.Sub(lastEmit))
			}
			lastEmit = now
		}
		return nil
	}
	var (
		es     *codec.EncodeStream // plain session: also the QoS actuation target
		enc    interface{ EncodeFrame(*frame.Frame) error }
		finish func() ([]*codec.SequenceStats, error)
	)
	if ladder {
		ls, err := codec.NewLadderStream(rungs, emit)
		if err != nil {
			badRequest(err)
			return
		}
		enc, finish = ls, ls.Close
	} else {
		es = codec.NewEncodeStream(rungs[0].Cfg, func(p codec.Packet) error { return emit(0, p) })
		enc = es
		finish = func() ([]*codec.SequenceStats, error) {
			st, err := es.Close()
			return []*codec.SequenceStats{st}, err
		}
	}

	// A plain session recycles its source frames: the Encoder promises it
	// is done reading frame n once EncodeFrame returns for frame n+1, and
	// with every frame after finish, so frame n goes back to the plane
	// pools then (prev). A ladder keeps its sources until Close, and an
	// error path leaves them to the GC.
	var prev *frame.Frame
	frames := 0
	var sessionErr error
	for {
		if err := ctx.Err(); err != nil {
			sessionErr = fmt.Errorf("client gone: %w", err)
			break
		}
		readStart := time.Now()
		f, err := y4m.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			sessionErr = err
			break
		}
		readDur := time.Since(readStart)
		rec.FrameRead(frames*len(rungs), readDur) // the source read is a rung-0 event
		s.hist.read.Observe(readDur)
		if s.cfg.MaxFramesPerSession > 0 && frames >= s.cfg.MaxFramesPerSession {
			sessionErr = fmt.Errorf("session frame cap (%d) exceeded", s.cfg.MaxFramesPerSession)
			break
		}
		// Frame hand-off is the only point a QoS level may change: the
		// actuation lands on the session goroutine before this frame's
		// analysis, so the stream stays deterministic for the actuation
		// schedule it actually received.
		if qs != nil {
			if t := int(qs.target.Load()); t != qosLevel {
				es.Actuate(qosLevels[t])
				rec.FrameActuated(frames, t)
				qosLevel = t
				qs.applied.Store(int32(t))
				if frames > 0 {
					qs.transitions.Add(1)
				}
				s.qos.actuations.Add(1)
			}
		}
		encStart := time.Now()
		if err := enc.EncodeFrame(f); err != nil {
			sessionErr = err
			break
		}
		if s.qos != nil {
			s.qos.observe(time.Since(encStart), 0)
		}
		if !ladder {
			prev.Release()
			prev = f
		}
		frames++
	}
	stats, closeErr := finish()
	if sessionErr == nil {
		sessionErr = closeErr
	}
	if sessionErr == nil {
		prev.Release()
	}
	s.m.sessionNs.Add(time.Since(begin).Nanoseconds())

	// Declared trailers: set after the body, shipped with the final chunk.
	w.Header().Set(TrailerFrames, strconv.Itoa(frames))
	if ladder {
		parts := make([]string, len(stats))
		for i, st := range stats {
			sz := rungs[i].Size
			parts[i] = fmt.Sprintf("%dx%d:%d:%.2f:%.1f", sz.W, sz.H, len(st.Frames), st.AvgPSNRY(), st.BitrateKbps())
		}
		w.Header().Set(TrailerRungs, strings.Join(parts, ";"))
	} else {
		st := stats[0]
		w.Header().Set(TrailerPSNRY, strconv.FormatFloat(st.AvgPSNRY(), 'f', 2, 64))
		w.Header().Set(TrailerKbps, strconv.FormatFloat(st.BitrateKbps(), 'f', 1, 64))
		if cfg.TargetKbps > 0 {
			w.Header().Set(TrailerTargetKbps, strconv.FormatFloat(cfg.TargetKbps, 'f', 1, 64))
			// Only completed sessions enter the tracking sums: a truncated
			// stream's bitrate (an I-frame-heavy prefix, or zero frames) would
			// skew the achieved/target ratio the metrics promise.
			if sessionErr == nil {
				s.m.rateSessions.Add(1)
				s.m.rateTargetMilliKbps.Add(int64(cfg.TargetKbps * 1000))
				s.m.rateAchievedMilliKbps.Add(int64(st.BitrateKbps() * 1000))
			}
		}
		transitions := 0
		if qs != nil {
			transitions = int(qs.transitions.Load())
		}
		w.Header().Set(TrailerQosTransitions, strconv.Itoa(transitions))
	}
	w.Header().Set(TrailerQosLevel, strconv.Itoa(qosLevel))
	w.Header().Set(TrailerTrace, traceID)
	rec.Finish(sessionErr)
	if sessionErr != nil {
		s.m.sessionsFailed.Add(1)
		w.Header().Set(TrailerError, sessionErr.Error())
		log.Printf("session %s failed after %d frames: %v", traceID, frames, sessionErr)
	}
}

// sessionObserver bridges one rung's codec.FrameObserver events to the
// session's flight recorder and the server-wide latency histograms,
// keying recorder slots as frame×rungs+rung so the trace endpoint can
// render a per-rung timeline (a plain session is rung 0 of 1). Its
// methods run on the rung's analysis goroutine (FrameAnalyzed) and its
// writer goroutine (FrameWritten); both targets are lock-free.
type sessionObserver struct {
	rec         *obs.FlightRecorder
	h           *serverHists
	rung, rungs int
}

func (o *sessionObserver) FrameAnalyzed(index int, wall, queueWait, maxStall time.Duration, intra bool, qp int) {
	o.rec.FrameAnalyzed(index*o.rungs+o.rung, wall, queueWait, maxStall, intra, qp)
	// Every frame, the ones that never queued included: the two histograms
	// count the same frames, and a quantile of the wait is over all of them.
	o.h.analysis.Observe(wall)
	o.h.queueWait.Observe(queueWait)
}

func (o *sessionObserver) FrameWritten(index int, wall time.Duration, bits int) {
	o.rec.FrameWritten(index*o.rungs+o.rung, wall, bits)
	o.h.entropy.Observe(wall)
}

// sessionOpts carries the serving-layer (non-codec) session parameters.
type sessionOpts struct {
	// batch marks the session PriorityBatch on the shared pool (and
	// first in line for QoS degradation).
	batch bool
	// pinned, when ≥ 0, fixes the session's QoS level for its whole
	// lifetime, exempt from the controller. -1 = adaptive.
	pinned int
	// ladder, when non-empty, makes this a simulcast session encoding
	// every rung of the chain (top rung first).
	ladder []codec.RungSpec
	// newSearcher builds a fresh motion-searcher instance; set for ladder
	// sessions, where each rung needs its own (stateful searchers would
	// race across rung goroutines).
	newSearcher func() (search.Searcher, error)
}

// parseSessionConfig maps /encode query parameters onto a codec.Config:
// qp, me (searcher), entropy, gop, range, kbps (target bitrate, finite and
// ≥ 0; frame-lag rate control), budget (target motion-search positions/MB,
// finite and > 0; the ACBM complexity servo) and ladder (simulcast rungs,
// codec.ParseLadderSpec). Rate profiles run at full pool parallelism —
// nothing here degrades the session to serial. The serving-layer
// parameters ride alongside: priority (live|batch pool tier) and qoslevel
// (pin the session at one degradation level). Unknown parameters are
// ignored.
func parseSessionConfig(q url.Values) (codec.Config, sessionOpts, error) {
	cfg := codec.Config{Qp: 16}
	opts := sessionOpts{pinned: -1}
	switch strings.ToLower(q.Get("priority")) {
	case "", "live":
	case "batch":
		opts.batch = true
	default:
		return cfg, opts, fmt.Errorf("unknown priority %q (want live|batch)", q.Get("priority"))
	}
	if v := q.Get("qoslevel"); v != "" {
		n, e := strconv.Atoi(v)
		if e != nil || n < 0 || n > MaxQosLevel {
			return cfg, opts, fmt.Errorf("bad qoslevel=%q (want 0..%d)", v, MaxQosLevel)
		}
		opts.pinned = n
	}
	var err error
	intArg := func(name string, def int) int {
		v := q.Get(name)
		if v == "" {
			return def
		}
		n, e := strconv.Atoi(v)
		if e != nil && err == nil {
			err = fmt.Errorf("bad %s=%q", name, v)
		}
		return n
	}
	cfg.Qp = intArg("qp", 16)
	cfg.SearchRange = intArg("range", 0)
	cfg.IntraPeriod = intArg("gop", 0)
	if v := q.Get("kbps"); v != "" {
		kbps, e := codec.ParseKbps(v)
		if e != nil {
			return cfg, opts, fmt.Errorf("bad kbps=%q", v)
		}
		cfg.TargetKbps = kbps
	}
	if err != nil {
		return cfg, opts, err
	}
	if cfg.Qp < 1 || cfg.Qp > 31 {
		return cfg, opts, fmt.Errorf("qp %d out of range 1..31", cfg.Qp)
	}
	var budget float64
	if v := q.Get("budget"); v != "" {
		if budget, err = strconv.ParseFloat(v, 64); err != nil || !(budget > 0) || math.IsInf(budget, 1) {
			return cfg, opts, fmt.Errorf("bad budget=%q (want positive positions/MB)", v)
		}
	}
	me := q.Get("me")
	if cfg.Searcher, err = core.NewSearcher(me, core.DefaultParams, budget); err != nil {
		return cfg, opts, err
	}
	if cfg.Entropy, err = codec.ParseEntropyMode(q.Get("entropy")); err != nil {
		return cfg, opts, err
	}
	if v := q.Get("ladder"); v != "" {
		specs, e := codec.ParseLadderSpec(v)
		if e != nil {
			return cfg, opts, e
		}
		if cfg.TargetKbps > 0 {
			return cfg, opts, fmt.Errorf("kbps is per-rung in a ladder session (use ladder=WxH@kbps)")
		}
		opts.ladder = specs
		// Rebuild the searcher per rung from the same parameters the
		// single-session path used — fresh instances, identical config.
		opts.newSearcher = func() (search.Searcher, error) {
			return core.NewSearcher(me, core.DefaultParams, budget)
		}
	}
	return cfg, opts, nil
}
