package obs

import (
	"sync/atomic"
	"time"
)

// DefaultRingFrames is the per-session ring capacity (a power of two):
// long sessions keep their most recent frames, short ones keep all.
const DefaultRingFrames = 1024

// frameSlot is one frame's event record in the ring. Every field is an
// independent atomic: the analysis-side fields are written by the
// session goroutine, the entropy/emit fields by the pipeline's writer
// goroutine, and the debug endpoints read all of them concurrently. The
// index field is the slot's occupancy marker — a reader that observes a
// different index before and after its field loads discards the slot as
// a wrap-around mixture.
type frameSlot struct {
	index      atomic.Int64 // frame number occupying the slot, -1 empty
	readNs     atomic.Int64 // Y4M source-frame read
	queueNs    atomic.Int64 // summed shared-pool queue wait across the frame's rows
	stallNs    atomic.Int64 // worst single row's queue wait (preemption stall)
	analysisNs atomic.Int64
	entropyNs  atomic.Int64
	emitNs     atomic.Int64 // packet write + client flush
	bits       atomic.Int64
	qp         atomic.Int64
	qosLevel   atomic.Int64
	flags      atomic.Int64 // bit 0 intra, bit 1 actuated this frame
}

const (
	flagIntra    = 1 << 0
	flagActuated = 1 << 1
)

// FrameEvent is one frame's readable flight record. For simulcast
// sessions (Meta.Rungs > 1) each rendition of a source frame is its own
// event, tagged with its rung index.
type FrameEvent struct {
	Index       int     `json:"index"`
	Rung        int     `json:"rung,omitempty"`
	ReadMs      float64 `json:"read_ms"`
	QueueWaitMs float64 `json:"queue_wait_ms"`
	StallMs     float64 `json:"stall_ms"`
	AnalysisMs  float64 `json:"analysis_ms"`
	EntropyMs   float64 `json:"entropy_ms"`
	EmitMs      float64 `json:"emit_ms"`
	Bits        int     `json:"bits"`
	Qp          int     `json:"qp"`
	QosLevel    int     `json:"qos_level"`
	Intra       bool    `json:"intra,omitempty"`
	Actuated    bool    `json:"actuated,omitempty"`
}

// Record is a session's full flight record as the debug endpoints
// serve it: identity, summary, and the per-frame timeline still held in
// the ring.
type Record struct {
	TraceID  string `json:"trace_id"`
	Priority string `json:"priority,omitempty"`
	Searcher string `json:"searcher,omitempty"`
	// PinnedLevel is the session's pinned QoS level, -1 when adaptive.
	PinnedLevel int `json:"pinned_level"`
	// Rungs is the simulcast rung count (omitted for single renditions).
	Rungs     int    `json:"rungs,omitempty"`
	StartedAt string `json:"started_at"`
	Done      bool   `json:"done"`
	Frames    int    `json:"frames"`
	// DroppedFrames counts frames that aged out of the ring (the
	// timeline then covers only the most recent RingFrames frames).
	DroppedFrames int          `json:"dropped_frames,omitempty"`
	FirstPacketMs float64      `json:"first_packet_ms,omitempty"`
	WallMs        float64      `json:"wall_ms,omitempty"`
	Error         string       `json:"error,omitempty"`
	Events        []FrameEvent `json:"events"`
}

// Meta is the per-session identity captured at recorder construction.
type Meta struct {
	Priority string
	Searcher string
	// PinnedLevel is the pinned QoS level, -1 for adaptive sessions.
	PinnedLevel int
	// Rungs is the simulcast rung count (0 or 1 = single rendition).
	// When > 1 the recorder's slot keys are frame*Rungs + rung, and
	// Snapshot decodes them back into per-rung frame events.
	Rungs int
}

// FlightRecorder is one session's lock-free frame-event ring. All
// methods are safe on a nil receiver (no-ops) — that nil path is the
// compiled-out baseline the overhead guard compares against — and safe
// to call concurrently from the session goroutine, the pipeline writer
// goroutine, shared-pool workers, and debug-endpoint readers.
type FlightRecorder struct {
	traceID string
	meta    Meta
	start   time.Time

	frames   atomic.Int64 // frames whose analysis has been recorded
	qosLevel atomic.Int64 // level in force for the next analysed frame
	actuate  atomic.Bool  // next analysed frame carries an actuation
	firstNs  atomic.Int64 // request start → first frame packet emitted
	wallNs   atomic.Int64 // set once at Finish
	done     atomic.Bool
	errMu    atomic.Pointer[string]

	mask  int
	slots []frameSlot
}

// NewFlightRecorder builds a recorder with the given identity and ring
// capacity (rounded up to a power of two; <= 0 selects
// DefaultRingFrames). The slab is the recorder's only allocation.
func NewFlightRecorder(traceID string, meta Meta, ringFrames int) *FlightRecorder {
	if ringFrames <= 0 {
		ringFrames = DefaultRingFrames
	}
	n := 1
	for n < ringFrames {
		n <<= 1
	}
	r := &FlightRecorder{traceID: traceID, meta: meta, start: time.Now(), mask: n - 1, slots: make([]frameSlot, n)}
	for i := range r.slots {
		r.slots[i].index.Store(-1)
	}
	return r
}

// TraceID returns the session's trace identity ("" on nil).
func (r *FlightRecorder) TraceID() string {
	if r == nil {
		return ""
	}
	return r.traceID
}

// slot claims the ring slot for frame index, stamping its occupancy.
func (r *FlightRecorder) slot(index int) *frameSlot {
	s := &r.slots[index&r.mask]
	if s.index.Load() != int64(index) {
		// First touch for this frame: stamp and clear the wrapped slot.
		s.index.Store(int64(index))
		s.readNs.Store(0)
		s.queueNs.Store(0)
		s.stallNs.Store(0)
		s.analysisNs.Store(0)
		s.entropyNs.Store(0)
		s.emitNs.Store(0)
		s.bits.Store(0)
		s.qp.Store(0)
		s.qosLevel.Store(0)
		s.flags.Store(0)
	}
	return s
}

// FrameRead records the Y4M source read preceding frame index.
func (r *FlightRecorder) FrameRead(index int, d time.Duration) {
	if r == nil {
		return
	}
	r.slot(index).readNs.Store(int64(d))
}

// FrameActuated marks that a QoS actuation to level was applied at the
// hand-off before frame index's analysis.
func (r *FlightRecorder) FrameActuated(index, level int) {
	if r == nil {
		return
	}
	r.qosLevel.Store(int64(level))
	r.actuate.Store(true)
}

// SetQosLevel records the level in force without marking an actuation
// (the admission-time level of pinned or pre-degraded sessions).
func (r *FlightRecorder) SetQosLevel(level int) {
	if r == nil {
		return
	}
	r.qosLevel.Store(int64(level))
}

// FrameAnalyzed records frame index's phase-1 outcome. It implements
// the analysis half of codec.FrameObserver; the codec calls it on the
// session goroutine at the end of each frame's analysis.
func (r *FlightRecorder) FrameAnalyzed(index int, wall, queueWait, maxStall time.Duration, intra bool, qp int) {
	if r == nil {
		return
	}
	s := r.slot(index)
	s.analysisNs.Store(int64(wall))
	s.queueNs.Store(int64(queueWait))
	s.stallNs.Store(int64(maxStall))
	s.qp.Store(int64(qp))
	s.qosLevel.Store(r.qosLevel.Load())
	var f int64
	if intra {
		f |= flagIntra
	}
	if r.actuate.Swap(false) {
		f |= flagActuated
	}
	s.flags.Store(f)
	// Monotonic max, not a plain store: a simulcast session's rungs run
	// pipelined, so a lower rung's (smaller) slot key can land after a
	// higher one and must not rewind the count.
	for {
		cur := r.frames.Load()
		if int64(index+1) <= cur || r.frames.CompareAndSwap(cur, int64(index+1)) {
			break
		}
	}
}

// FrameWritten records frame index's phase-2 (entropy) wall clock and
// encoded size. It implements the write half of codec.FrameObserver;
// in pipelined sessions the codec calls it on the writer goroutine.
func (r *FlightRecorder) FrameWritten(index int, wall time.Duration, bits int) {
	if r == nil {
		return
	}
	s := &r.slots[index&r.mask]
	s.entropyNs.Store(int64(wall))
	s.bits.Store(int64(bits))
}

// FrameEmitted records frame index's packet write + client flush time.
func (r *FlightRecorder) FrameEmitted(index int, d time.Duration) {
	if r == nil {
		return
	}
	r.slots[index&r.mask].emitNs.Store(int64(d))
	if index == 0 {
		r.firstNs.CompareAndSwap(0, int64(time.Since(r.start)))
	}
}

// Finish seals the record with the session outcome. Idempotent.
func (r *FlightRecorder) Finish(err error) {
	if r == nil {
		return
	}
	if r.done.Swap(true) {
		return
	}
	r.wallNs.Store(int64(time.Since(r.start)))
	if err != nil {
		msg := err.Error()
		r.errMu.Store(&msg)
	}
}

// Snapshot renders the current flight record. Safe while the session is
// still encoding; frames whose later phases have not landed yet simply
// show zero for those fields. Events come in frame order and each is one
// frame's own record, but on a session long enough to wrap the ring the
// timeline may skip frames: the scan and the writer both move oldest
// slot first, and a slot the writer reclaims mid-scan is dropped, not
// returned as a mixture.
func (r *FlightRecorder) Snapshot() Record {
	if r == nil {
		return Record{}
	}
	rungs := r.meta.Rungs
	if rungs < 1 {
		rungs = 1
	}
	raw := int(r.frames.Load()) // slot keys recorded: frames × rungs
	rec := Record{
		TraceID:     r.traceID,
		Priority:    r.meta.Priority,
		Searcher:    r.meta.Searcher,
		PinnedLevel: r.meta.PinnedLevel,
		StartedAt:   r.start.UTC().Format(time.RFC3339Nano),
		Done:        r.done.Load(),
		Frames:      (raw + rungs - 1) / rungs,
	}
	if rungs > 1 {
		rec.Rungs = rungs
	}
	if e := r.errMu.Load(); e != nil {
		rec.Error = *e
	}
	if ns := r.firstNs.Load(); ns > 0 {
		rec.FirstPacketMs = float64(ns) / 1e6
	}
	if ns := r.wallNs.Load(); ns > 0 {
		rec.WallMs = float64(ns) / 1e6
	}
	lo := 0
	if n := raw - len(r.slots); n > 0 {
		lo = n
		rec.DroppedFrames = (n + rungs - 1) / rungs
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	for i := lo; i < raw; i++ {
		s := &r.slots[i&r.mask]
		if s.index.Load() != int64(i) {
			continue // being overwritten by a wrapping writer right now
		}
		ev := FrameEvent{
			Index:       i / rungs,
			Rung:        i % rungs,
			ReadMs:      ms(s.readNs.Load()),
			QueueWaitMs: ms(s.queueNs.Load()),
			StallMs:     ms(s.stallNs.Load()),
			AnalysisMs:  ms(s.analysisNs.Load()),
			EntropyMs:   ms(s.entropyNs.Load()),
			EmitMs:      ms(s.emitNs.Load()),
			Bits:        int(s.bits.Load()),
			Qp:          int(s.qp.Load()),
			QosLevel:    int(s.qosLevel.Load()),
		}
		f := s.flags.Load()
		ev.Intra = f&flagIntra != 0
		ev.Actuated = f&flagActuated != 0
		if s.index.Load() != int64(i) {
			continue // torn by a wrap between the loads; drop the mixture
		}
		rec.Events = append(rec.Events, ev)
	}
	return rec
}

// Summary is the one-line view of a session for the listing endpoint.
type Summary struct {
	TraceID       string  `json:"trace_id"`
	Priority      string  `json:"priority,omitempty"`
	Searcher      string  `json:"searcher,omitempty"`
	PinnedLevel   int     `json:"pinned_level"`
	StartedAt     string  `json:"started_at"`
	Done          bool    `json:"done"`
	Frames        int     `json:"frames"`
	FirstPacketMs float64 `json:"first_packet_ms,omitempty"`
	WallMs        float64 `json:"wall_ms,omitempty"`
	Error         string  `json:"error,omitempty"`
}

// Summarize renders the listing view of the recorder.
func (r *FlightRecorder) Summarize() Summary {
	if r == nil {
		return Summary{}
	}
	rungs := r.meta.Rungs
	if rungs < 1 {
		rungs = 1
	}
	s := Summary{
		TraceID:     r.traceID,
		Priority:    r.meta.Priority,
		Searcher:    r.meta.Searcher,
		PinnedLevel: r.meta.PinnedLevel,
		StartedAt:   r.start.UTC().Format(time.RFC3339Nano),
		Done:        r.done.Load(),
		Frames:      (int(r.frames.Load()) + rungs - 1) / rungs,
	}
	if e := r.errMu.Load(); e != nil {
		s.Error = *e
	}
	if ns := r.firstNs.Load(); ns > 0 {
		s.FirstPacketMs = float64(ns) / 1e6
	}
	if ns := r.wallNs.Load(); ns > 0 {
		s.WallMs = float64(ns) / 1e6
	}
	return s
}
