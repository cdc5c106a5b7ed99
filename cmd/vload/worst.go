package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/obs"
)

// WorstSession identifies the slowest session of a load point — the one
// a tail-latency investigation starts from — by its fleet-wide trace ID,
// with the per-frame timeline pulled back from the serving node's flight
// recorder while the session is still in the completed ring.
type WorstSession struct {
	TraceID string
	// Backend is where the session ran (X-Vcodec-Backend trailer; empty
	// when the load generator talked to a vcodecd directly).
	Backend string
	// Attempts is the gateway dispatch count (1 when direct).
	Attempts      int
	WallMs        float64
	FirstPacketMs float64
	GapP99Ms      float64
	// Timeline is the per-frame phase breakdown from
	// /debug/vcodec/trace; empty if the record had already aged out (or,
	// under chaos, the serving backend died).
	Timeline []obs.FrameEvent
	// DroppedFrames counts timeline entries lost to ring wrap.
	DroppedFrames int
}

// fetchTimeline resolves a trace ID against the endpoints' debug
// handlers — a vcodecd answers for its own sessions, a gateway proxies
// the lookup across its backends. Best-effort: a dead backend or an
// aged-out record yields an empty timeline, never an error.
func fetchTimeline(client *http.Client, bases []string, id string) ([]obs.FrameEvent, int) {
	if id == "" {
		return nil, 0
	}
	for _, base := range bases {
		resp, err := client.Get(base + "/debug/vcodec/trace?id=" + id)
		if err != nil {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			continue
		}
		var rec obs.Record
		err = json.NewDecoder(resp.Body).Decode(&rec)
		resp.Body.Close()
		if err != nil {
			continue
		}
		return rec.Events, rec.DroppedFrames
	}
	return nil, 0
}

// debugBase strips the /encode query suffix off a session URL, leaving
// the endpoint base the debug handlers live on.
func debugBase(sessionURL string) string {
	if i := strings.Index(sessionURL, "/encode"); i >= 0 {
		return sessionURL[:i]
	}
	return sessionURL
}

// formatWorst renders the worst session as an indented block under its
// load point: the identity line, then one line per recorded frame.
func formatWorst(w *WorstSession) string {
	if w == nil {
		return ""
	}
	out := fmt.Sprintf("  worst session: trace=%s wall=%.0fms first=%.1fms gap p99=%.2fms",
		w.TraceID, w.WallMs, w.FirstPacketMs, w.GapP99Ms)
	if w.Backend != "" {
		out += " backend=" + w.Backend
	}
	if w.Attempts > 1 {
		out += fmt.Sprintf(" attempts=%d", w.Attempts)
	}
	out += "\n"
	if len(w.Timeline) == 0 {
		return out + "    (timeline unavailable: record aged out or backend gone)\n"
	}
	if w.DroppedFrames > 0 {
		out += fmt.Sprintf("    (%d early frames aged out of the ring)\n", w.DroppedFrames)
	}
	for _, ev := range w.Timeline {
		kind := "P"
		if ev.Intra {
			kind = "I"
		}
		act := ""
		if ev.Actuated {
			act = " *qos-actuated"
		}
		out += fmt.Sprintf("    frame %3d %s: read %6.2f  wait %6.2f  stall %6.2f  analysis %7.2f  entropy %6.2f  emit %6.2f ms  %6d bits  qp %2d  L%d%s\n",
			ev.Index, kind, ev.ReadMs, ev.QueueWaitMs, ev.StallMs,
			ev.AnalysisMs, ev.EntropyMs, ev.EmitMs, ev.Bits, ev.Qp, ev.QosLevel, act)
	}
	return out
}
