package gateway

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// backend is the gateway's view of one vcodecd: its address, the load and
// liveness signals the health poller refreshes, the circuit breaker that
// session-attempt failures feed, and the counters /metrics exposes.
//
// Two failure detectors run side by side on purpose:
//
//   - The health poller (GET /healthz every PollInterval)
//     catches a backend that is down, unreachable, or draining before any
//     session is risked on it.
//   - The circuit breaker catches a backend whose /healthz still answers
//     but whose /encode path fails (a half-dead process, a chewed-up
//     network path): BreakerThreshold consecutive attempt failures open
//     it for BreakerCooldown, after which one attempt may probe it again
//     (half-open); the first success closes it.
type backend struct {
	url string

	// active is the number of gateway sessions currently dispatched here
	// (attempt in flight or stream being relayed). It is the primary
	// least-loaded signal: it updates at dispatch time, not at the next
	// poll, so a burst of arrivals spreads instead of dogpiling the
	// backend that looked idle a poll ago.
	active atomic.Int64
	// sessionsRouted counts sessions whose stream was served from here
	// (committed attempts, successful or not).
	sessionsRouted atomic.Int64
	// attemptFailures counts retryable attempt failures charged here.
	attemptFailures atomic.Int64
	// breakerTrips counts transitions to the open state.
	breakerTrips atomic.Int64

	mu sync.Mutex
	// alive is the last poll's verdict: /healthz answered (200 or a
	// well-formed draining 503).
	alive bool
	// draining: the backend answers but refuses new sessions; in-flight
	// streams keep running. Routing skips it, the breaker leaves it alone.
	draining bool
	// reportedActive/reportedQueued are the backend's own occupancy from
	// /healthz (all its clients, not just this gateway) — the tiebreak
	// signal that makes least-loaded honest when several gateways or
	// direct clients share a backend.
	reportedActive int
	reportedQueued int
	// reportedQos is the backend's QoS degradation level from /healthz
	// (its batch tier — the deepest in force). On load ties the router
	// prefers the less-degraded backend: a new session placed there
	// encodes at higher quality, and the placement spreads pressure away
	// from the part of the fleet already trading quality for latency.
	reportedQos int
	// consecFails/openUntil implement the breaker (guarded by mu).
	consecFails int
	openUntil   time.Time
}

// eligible reports whether the router may dispatch a new session here.
func (b *backend) eligible(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.alive && !b.draining && !now.Before(b.openUntil)
}

// load is the least-loaded score: sessions this gateway has in flight
// here plus the backlog the backend itself reports. reportedActive is
// deliberately not added on top of active — for a single-gateway
// deployment they largely double-count the same sessions; the max of the
// two is the honest occupancy estimate.
func (b *backend) load() int64 {
	g := b.active.Load()
	b.mu.Lock()
	r := int64(b.reportedActive + b.reportedQueued)
	b.mu.Unlock()
	if r > g {
		return r
	}
	return g
}

// qosLevel is the backend's last-polled degradation level (0 when the
// backend predates the QoS field or has never been polled).
func (b *backend) qosLevel() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.reportedQos
}

// noteFailure charges one retryable attempt failure and opens the breaker
// at the threshold.
func (b *backend) noteFailure(threshold int, cooldown time.Duration) {
	b.attemptFailures.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails++
	if b.consecFails >= threshold && time.Now().After(b.openUntil) {
		b.openUntil = time.Now().Add(cooldown)
		b.breakerTrips.Add(1)
		// Half-open probe protocol: once the cooldown expires, eligible()
		// admits attempts again; the counter stays at the threshold, so
		// the very next failure re-opens immediately while a success
		// resets everything.
		b.consecFails = threshold - 1
	}
}

// noteSuccess closes the breaker.
func (b *backend) noteSuccess() {
	b.mu.Lock()
	b.consecFails = 0
	b.openUntil = time.Time{}
	b.mu.Unlock()
}

// breakerOpen reports whether the breaker currently rejects dispatch.
func (b *backend) breakerOpen(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return now.Before(b.openUntil)
}

// snapshot returns the health view for /healthz and /metrics.
func (b *backend) snapshot() backendView {
	b.mu.Lock()
	defer b.mu.Unlock()
	return backendView{
		URL:            b.url,
		Alive:          b.alive,
		Draining:       b.draining,
		BreakerOpen:    time.Now().Before(b.openUntil),
		Active:         b.active.Load(),
		ReportedActive: b.reportedActive,
		ReportedQueued: b.reportedQueued,
		QosLevel:       b.reportedQos,
		Routed:         b.sessionsRouted.Load(),
		Failures:       b.attemptFailures.Load(),
	}
}

// backendView is the JSON shape of one backend in gateway /healthz.
type backendView struct {
	URL            string `json:"url"`
	Alive          bool   `json:"alive"`
	Draining       bool   `json:"draining"`
	BreakerOpen    bool   `json:"breaker_open"`
	Active         int64  `json:"sessions_active"`
	ReportedActive int    `json:"reported_active"`
	ReportedQueued int    `json:"reported_queued"`
	QosLevel       int    `json:"qos_level"`
	Routed         int64  `json:"sessions_routed"`
	Failures       int64  `json:"attempt_failures"`
}

// poll refreshes the backend's health view once from /healthz: liveness,
// drain state, the occupancy gauges and the QoS level. It rides a short
// timeout — a backend that cannot answer its health endpoint inside a
// poll interval is not one to trust with a session.
func (b *backend) poll(ctx context.Context, client *http.Client) {
	alive, draining := false, false
	active, queued, qos := 0, 0, 0

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/healthz", nil)
	if err == nil {
		if resp, err := client.Do(req); err == nil {
			var hz struct {
				Status         string `json:"status"`
				SessionsActive int    `json:"sessions_active"`
				SessionsQueued int    `json:"sessions_queued"`
				QosLevel       int    `json:"qos_level"`
			}
			if json.NewDecoder(resp.Body).Decode(&hz) == nil {
				switch {
				case resp.StatusCode == http.StatusOK:
					alive = true
				case hz.Status == "draining":
					// A draining backend is alive — it is finishing the
					// sessions it has — it just must not receive new ones.
					alive, draining = true, true
				}
				active, queued, qos = hz.SessionsActive, hz.SessionsQueued, hz.QosLevel
			}
			resp.Body.Close()
		}
	}
	b.mu.Lock()
	b.alive = alive
	b.draining = draining
	b.reportedActive = active
	b.reportedQueued = queued
	b.reportedQos = qos
	if !alive {
		// A dead backend's breaker state is moot; reset it so recovery
		// is judged fresh once /healthz answers again.
		b.consecFails = 0
		b.openUntil = time.Time{}
	}
	b.mu.Unlock()
}
