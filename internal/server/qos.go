// Closed-loop QoS: under overload vcodecd trades quality for latency
// instead of queueing or shedding. A periodic control loop computes a
// load score from per-phase latency EWMAs and the scheduler's occupancy,
// steps sessions through explicit degradation levels (the searcher's own
// complexity dial turned down — ACBM's α/γ thresholds relaxed, a
// budgeted session's target shrunk — then the quantiser up) and
// restores them symmetrically with hysteresis when load drops. Every
// per-session actuation rides the codec's frame-lag contract
// (codec.Actuation): it is applied at frame hand-off on the session
// goroutine, so degraded streams stay deterministic and race-clean under
// Workers × Pipeline × Pool. Batch sessions degrade one step before live
// sessions (the controller's step leads the live level by one).
package server

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
)

// QoS trailers: the session's final degradation level and how many level
// transitions the controller actuated on it mid-stream. A session with
// zero transitions encoded its whole stream at the reported level, so
// its bytes match the offline encoder with ApplyQosLevel applied.
const (
	TrailerQosLevel       = "X-Vcodec-Qos-Level"
	TrailerQosTransitions = "X-Vcodec-Qos-Transitions"
)

// qosLevels is the degradation ladder, one actuation per level: the
// searcher's complexity dial first (codec.Actuation.BudgetScale: ACBM's
// α/γ thresholds ×2, then ×8), the quantiser last. Searchers without a
// dial (FSBM, RCFSBM, the fixed-pattern searches) degrade by QpOffset
// only. Level 0 is the session's requested quality and an exact no-op.
// Levels are absolute, not cumulative, and every entry states both
// fields, so actuating a level is idempotent and restoring one is
// symmetric. At ×8 ACBM sends no block of the test clips to full search:
// the bottom rung streams PBM's bytes at Qp+6 (TestQosLadder).
var qosLevels = []codec.Actuation{
	{BudgetScale: 1, QpOffset: 0},
	{BudgetScale: 1.0 / 2, QpOffset: 0},
	{BudgetScale: 1.0 / 8, QpOffset: 3},
	{BudgetScale: 1.0 / 8, QpOffset: 6},
}

// MaxQosLevel is the deepest degradation level (levels are 0..MaxQosLevel).
var MaxQosLevel = len(qosLevels) - 1

// qosMaxStep: the controller's global step runs one past the level count
// because batch leads live by one step (batch-first degradation).
var qosMaxStep = MaxQosLevel + 1

// Controller tuning. Degradation is immediate (one breached tick; two
// steps at once far past saturation) and restoration is slow (sustained
// low score and a dwell after any change) — degrade fast, restore
// carefully.
const (
	qosHighWater    = 1.0 // score above: degrade
	qosLowWater     = 0.5 // score below: restoration pressure
	qosRestoreTicks = 4   // consecutive low ticks per restore step
	qosDwellTicks   = 6   // min ticks between any two step changes
	qosEwmaAlpha    = 0.2 // per-frame latency EWMA weight
)

// levelForStep maps the controller's global step to a class's level:
// batch takes the full step, live lags one behind (batch degrades first,
// restores last).
func levelForStep(step int, batch bool) int {
	l := step
	if !batch {
		l = step - 1
	}
	if l < 0 {
		l = 0
	}
	if l > MaxQosLevel {
		l = MaxQosLevel
	}
	return l
}

// ApplyQosLevel degrades cfg to the given level: the quantiser offset is
// added (the codec clamps) and the searcher's complexity dial, if it has
// one, is set to the level's scale — in place, on cfg.Searcher, exactly
// as a mid-stream actuation would. It is the offline-verifiable meaning
// of a level: a session pinned (or actuated, with zero further
// transitions) at level L streams bytes identical to EncodePackets with
// ApplyQosLevel(cfg, L). Level 0 leaves cfg and its searcher as
// constructed. Out-of-range levels are clamped.
func ApplyQosLevel(cfg codec.Config, level int) codec.Config {
	a := qosLevels[min(max(level, 0), MaxQosLevel)]
	cfg.Qp += a.QpOffset
	if s, ok := cfg.Searcher.(interface{ ScaleBudget(float64) }); ok {
		s.ScaleBudget(a.BudgetScale)
	}
	return cfg
}

// qosSession is one adaptive session's coupling to the controller: the
// controller writes the target level, the session goroutine applies it
// at the next frame hand-off and records what is in force.
type qosSession struct {
	batch       bool
	target      atomic.Int32 // controller-written desired level
	applied     atomic.Int32 // session-written level actually encoding
	transitions atomic.Int32 // mid-stream level changes applied
}

// qosController runs the closed loop: sessions feed per-frame phase
// latencies in, the tick computes the load score and steps the global
// degradation level, and registered sessions pick their class's level up
// at the next frame hand-off.
type qosController struct {
	interval    time.Duration
	targetMs    float64
	maxSessions int
	sched       *scheduler

	stop chan struct{}
	done chan struct{}

	mu       sync.Mutex
	sessions map[*qosSession]struct{}
	// Per-phase latency EWMAs (ms): analysis is the EncodeFrame wall
	// clock (pool queueing included — the overload signal), emit is the
	// packet write + flush (entropy-side and client-side pressure).
	analysisMs float64
	emitMs     float64
	frameSeen  bool // any observation since the last tick (idle decay)

	step        int // global degradation step, 0..qosMaxStep
	downRun     int
	sinceChange int

	degrades   atomic.Int64 // controller step-up events
	restores   atomic.Int64 // controller step-down events
	actuations atomic.Int64 // per-session level changes applied at hand-off

	// audit is a bounded ring of per-tick decision records for
	// /debug/vcodec/qos: every tick appends the inputs the controller saw
	// (EWMAs, occupancy), the score it computed, and what it decided.
	// Written under c.mu in tick; auditNext points at the oldest entry.
	audit     []QosAuditEntry
	auditNext int
}

// qosAuditEntries is the audit ring capacity (~32s of history at the
// default 250ms tick).
const qosAuditEntries = 128

// QosAuditEntry is one control-loop tick as /debug/vcodec/qos reports
// it: every input to the decision, the decision, and the resulting
// per-class levels — enough to reconstruct why the fleet degraded (or
// refused to restore) at any point in the retained window.
type QosAuditEntry struct {
	Time       string  `json:"time"`
	AnalysisMs float64 `json:"analysis_ms"` // EWMA at decision time
	EmitMs     float64 `json:"emit_ms"`     // EWMA at decision time
	Active     int     `json:"active"`
	Queued     int     `json:"queued"`
	Score      float64 `json:"score"`
	Step       int     `json:"step"` // global step after the decision
	LiveLevel  int     `json:"live_level"`
	BatchLevel int     `json:"batch_level"`
	// Action is "degrade", "restore", or "" when the step held.
	Action string `json:"action,omitempty"`
}

func newQosController(interval time.Duration, targetMs float64, maxSessions int, sched *scheduler) *qosController {
	c := &qosController{
		interval:    interval,
		targetMs:    targetMs,
		maxSessions: maxSessions,
		sched:       sched,
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		sessions:    make(map[*qosSession]struct{}),
	}
	go c.run()
	return c
}

func (c *qosController) run() {
	defer close(c.done)
	t := time.NewTicker(c.interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.tick()
		}
	}
}

func (c *qosController) close() {
	close(c.stop)
	<-c.done
}

// register couples a session to the loop; it starts at the class's
// current level (a session admitted under overload starts degraded).
func (c *qosController) register(batch bool) *qosSession {
	qs := &qosSession{batch: batch}
	c.mu.Lock()
	level := levelForStep(c.step, batch)
	c.sessions[qs] = struct{}{}
	c.mu.Unlock()
	qs.target.Store(int32(level))
	return qs
}

func (c *qosController) unregister(qs *qosSession) {
	c.mu.Lock()
	delete(c.sessions, qs)
	c.mu.Unlock()
}

// observe feeds one frame's phase latencies into the EWMAs. Called from
// session goroutines (analysis) and writer goroutines (emit).
func (c *qosController) observe(analysis, emit time.Duration) {
	c.mu.Lock()
	if analysis > 0 {
		c.analysisMs += qosEwmaAlpha * (float64(analysis.Nanoseconds())/1e6 - c.analysisMs)
		c.frameSeen = true
	}
	if emit > 0 {
		c.emitMs += qosEwmaAlpha * (float64(emit.Nanoseconds())/1e6 - c.emitMs)
	}
	c.mu.Unlock()
}

// tick computes the load score and applies one control decision.
func (c *qosController) tick() {
	active, queued := c.sched.counts()
	c.mu.Lock()
	if !c.frameSeen {
		// No frame landed since the last tick: the latency estimate is
		// stale evidence, decay it toward idle.
		c.analysisMs *= 0.5
		c.emitMs *= 0.5
	}
	c.frameSeen = false
	score := c.analysisMs/c.targetMs + 0.25*c.emitMs/c.targetMs +
		float64(queued)/float64(c.maxSessions) +
		0.25*float64(active)/float64(c.maxSessions)
	prevStep := c.step
	step := c.stepOn(score)
	for qs := range c.sessions {
		qs.target.Store(int32(levelForStep(step, qs.batch)))
	}
	action := ""
	if step > prevStep {
		action = "degrade"
	} else if step < prevStep {
		action = "restore"
	}
	c.auditAppend(QosAuditEntry{
		Time:       time.Now().UTC().Format(time.RFC3339Nano),
		AnalysisMs: c.analysisMs,
		EmitMs:     c.emitMs,
		Active:     active,
		Queued:     queued,
		Score:      score,
		Step:       step,
		LiveLevel:  levelForStep(step, false),
		BatchLevel: levelForStep(step, true),
		Action:     action,
	})
	c.mu.Unlock()
}

// auditAppend records one tick's decision in the audit ring. c.mu held.
func (c *qosController) auditAppend(e QosAuditEntry) {
	if len(c.audit) < qosAuditEntries {
		c.audit = append(c.audit, e)
		return
	}
	c.audit[c.auditNext] = e
	c.auditNext = (c.auditNext + 1) % len(c.audit)
}

// auditSnapshot returns the retained decision history, oldest first.
func (c *qosController) auditSnapshot() []QosAuditEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]QosAuditEntry, 0, len(c.audit))
	for i := 0; i < len(c.audit); i++ {
		out = append(out, c.audit[(c.auditNext+i)%len(c.audit)])
	}
	return out
}

// stepOn advances the hysteresis state machine by one tick with the
// given load score and returns the new global step. Degradation is
// immediate — one tick above the high water mark steps up, two steps
// when the score is twice the mark — while restoration needs
// qosRestoreTicks consecutive ticks below the low water mark and a dwell
// of qosDwellTicks since the last change. The low water mark is the
// no-oscillation argument: only the analysis term of the score scales
// with a level's cost, so a one-step restore multiplies the score by at
// most the adjacent levels' cost ratio r, and a score below qosLowWater
// cannot re-breach qosHighWater while r < qosHighWater/qosLowWater = 2
// (the ladder's measured r stays below 1.8). Callers other than the
// control loop (the deterministic unit test) drive it with synthetic
// scores; c.mu must be held.
func (c *qosController) stepOn(score float64) int {
	c.sinceChange++
	switch {
	case score > qosHighWater:
		c.downRun = 0
		if c.step < qosMaxStep {
			c.step++
			if score > 2*qosHighWater && c.step < qosMaxStep {
				c.step++
			}
			c.sinceChange = 0
			c.degrades.Add(1)
		}
	case score < qosLowWater:
		c.downRun++
		if c.step > 0 && c.downRun >= qosRestoreTicks && c.sinceChange >= qosDwellTicks {
			c.step--
			c.downRun = 0
			c.sinceChange = 0
			c.restores.Add(1)
		}
	default:
		c.downRun = 0
	}
	return c.step
}

// currentStep reports the global degradation step (0..qosMaxStep).
func (c *qosController) currentStep() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.step
}

// snapshot reports the controller state for /healthz and /metrics: the
// in-force level per class and the count of registered sessions at each
// applied level, per class.
func (c *qosController) snapshot() (liveLevel, batchLevel int, perLevel [2][]int) {
	perLevel[0] = make([]int, MaxQosLevel+1)
	perLevel[1] = make([]int, MaxQosLevel+1)
	c.mu.Lock()
	liveLevel = levelForStep(c.step, false)
	batchLevel = levelForStep(c.step, true)
	for qs := range c.sessions {
		cls := 0
		if qs.batch {
			cls = 1
		}
		perLevel[cls][qs.applied.Load()]++
	}
	c.mu.Unlock()
	return liveLevel, batchLevel, perLevel
}

// retryAfterSeconds scales the admission 503's Retry-After with how
// overloaded the server actually is: the queue backlog in units of the
// session cap, plus the current degradation step, floored at 1s and
// capped at 8s.
func retryAfterSeconds(queued, step, maxSessions int) int {
	s := 1 + step + queued/max(1, maxSessions)
	if s > 8 {
		s = 8
	}
	return s
}
