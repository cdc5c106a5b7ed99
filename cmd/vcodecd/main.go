// Command vcodecd is the encode-as-a-service daemon: it accepts raw
// YUV4MPEG2 video over chunked HTTP POST and streams the packetized
// bitstream back as frames complete, with N concurrent sessions sharing
// one machine-sized analysis worker pool (internal/server).
//
// Usage:
//
//	vcodecd -addr :8323 -pool 8 -max-sessions 8 -max-queued 32
//
// Endpoints:
//
//	POST /encode?qp=16&me=acbm&entropy=arith&gop=30   Y4M in, packets out
//	GET  /healthz                                     liveness + occupancy
//	GET  /metrics                                     Prometheus text + latency histograms
//	GET  /debug/vcodec/sessions                       live + completed session summaries
//	GET  /debug/vcodec/trace?id=TRACE                 one session's per-frame timeline
//	GET  /debug/vcodec/qos                            QoS controller decision audit
//
// The response body is a stream of codec.PacketWriter records (uvarint
// index, uvarint length, payload), flushed per packet; decode it with
// `vcodec decode -packets` or codec.PacketReader + codec.PacketDecoder.
// Session statistics arrive as X-Vcodec-* trailers.
//
// Every session carries a trace ID — accepted from an inbound
// X-Vcodec-Trace header (a fronting gateway sets one per session) or
// minted locally — under which an always-on flight recorder keeps a
// per-frame timeline of phase latencies (read, queue wait, analysis,
// entropy, emit), bits, Qp, and QoS actuations. The ID is echoed in the
// X-Vcodec-Trace trailer and keys /debug/vcodec/trace.
//
// A closed-loop QoS controller ticks every -qos-interval, compares the
// observed per-frame analysis latency against -qos-target-ms, and under
// sustained overload steps sessions down a degradation ladder (ACBM's
// α/γ thresholds relaxed so fewer blocks reach full search, then higher
// Qp) instead of letting latency grow without bound; no level swaps the
// searcher or forces an intra frame, and quality is restored with
// hysteresis once load subsides. Batch-priority sessions
// (?priority=batch) degrade first and are scheduled behind live work;
// ?qoslevel=N pins a session at a fixed level, exempt from the
// controller and byte-reproducible offline. /healthz and /metrics
// report the current degradation level.
//
// SIGINT/SIGTERM trigger graceful shutdown: new sessions get 503, the
// /healthz status flips to "draining", and in-flight sessions stream to
// completion (bounded by -drain-timeout) before the process exits.
//
// -addrfile writes the bound address (useful with -addr 127.0.0.1:0) so
// a client finds the random port, as TestDaemonSmoke's rows do.
//
// -pprof 127.0.0.1:6060 serves the net/http/pprof endpoints on a
// separate debug listener (never on the serving address), so live
// sessions can be CPU/heap-profiled in production. Session goroutines
// carry pprof labels (vcodec_session = trace ID, vcodec_priority,
// vcodec_searcher), so profiles slice by session. The flight-recorder
// debug endpoints are mounted on the same listener:
//
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
//	go tool pprof http://127.0.0.1:6060/debug/pprof/heap
//	curl http://127.0.0.1:6060/debug/vcodec/sessions
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", ":8323", "listen address")
		addrfile = flag.String("addrfile", "", "write the bound address to this file once listening")
		pool     = flag.Int("pool", 0, "shared analysis pool size (0 = GOMAXPROCS): at most this many macroblock rows of all sessions run at once, each session's own goroutine included")
		maxSess  = flag.Int("max-sessions", 8, "concurrent encode sessions")
		maxQueue = flag.Int("max-queued", 32, "sessions allowed to wait for admission")
		maxFrame = flag.Int("max-frames", 0, "per-session frame cap (0 = unlimited)")
		qosTick  = flag.Duration("qos-interval", 0, "QoS control loop tick (0 = default 250ms)")
		qosTgt   = flag.Float64("qos-target-ms", 0, "QoS per-frame analysis latency target in ms (0 = default 75)")
		drainT   = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget for in-flight sessions")
		pprofA   = flag.String("pprof", "", "serve net/http/pprof on this debug address (e.g. 127.0.0.1:6060); empty disables")
	)
	flag.Parse()

	srv := server.New(server.Config{
		PoolWorkers:         *pool,
		MaxSessions:         *maxSess,
		MaxQueued:           *maxQueue,
		MaxFramesPerSession: *maxFrame,
		QosInterval:         *qosTick,
		QosTargetFrameMs:    *qosTgt,
	})

	if *pprofA != "" {
		// The profiling endpoints live on their own mux and listener so
		// they are never exposed on the serving address and cannot contend
		// with session admission. net/http/pprof registers its handlers on
		// http.DefaultServeMux; the flight-recorder debug endpoints mount
		// beside them so one debug listener answers both.
		http.Handle("/debug/vcodec/", srv.Handler())
		dln, err := net.Listen("tcp", *pprofA)
		if err != nil {
			log.Fatalf("vcodecd: pprof listen: %v", err)
		}
		go func() {
			log.Printf("vcodecd: pprof debug mux on http://%s/debug/pprof/", dln.Addr())
			if err := http.Serve(dln, http.DefaultServeMux); err != nil {
				log.Printf("vcodecd: pprof server: %v", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("vcodecd: %v", err)
	}
	if *addrfile != "" {
		if err := os.WriteFile(*addrfile, []byte(ln.Addr().String()), 0o644); err != nil {
			log.Fatalf("vcodecd: %v", err)
		}
	}
	hs := &http.Server{
		Handler: srv.Handler(),
		// No WriteTimeout: sessions are long-lived streams whose pace the
		// client controls (backpressure is the feature, not a hang).
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	log.Printf("vcodecd: listening on %s (pool %d, %d sessions + %d queued)",
		ln.Addr(), *pool, *maxSess, *maxQueue)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("vcodecd: %v — draining", s)
	case err := <-errCh:
		log.Fatalf("vcodecd: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("vcodecd: drain incomplete: %v", err)
		os.Exit(1)
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("vcodecd: shutdown: %v", err)
	}
	srv.Close()
	fmt.Println("vcodecd: drained, bye")
}
