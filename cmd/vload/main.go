// Command vload is the load generator and byte verifier for vcodecd and
// vcodec-gateway: it drives M concurrent encode sessions against one or
// more endpoints (uploading a synthetic Y4M clip, streaming the packet
// response) across a sweep of session counts and reports aggregate
// throughput plus first-packet and per-frame latency percentiles. The
// module's TestDaemonSmoke (daemon_test.go) runs it against real
// daemons; speed claims are bench/'s (BENCHMARK.json), not vload's.
//
// Usage:
//
//	vload -url http://127.0.0.1:8323 -sessions 1,4,8 -frames 30
//	vload -url http://gw-a:8320,http://gw-b:8320 -sessions 8 -verify
//	vload -url http://127.0.0.1:8323 -sessions 1 -qoslevel 2 -verify
//
// -url accepts multiple comma-separated endpoints; sessions round-robin
// across them (several gateways, or backends driven directly).
//
// -verify byte-compares one session per point against the offline
// EncodePackets output, turning the throughput claim into a correctness
// claim; any session that fails, ends with an X-Vcodec-Error trailer or
// streams fewer frames than it uploaded fails the run.
//
// -retry-after makes a session honor a 503's Retry-After header: sleep
// the advertised delay and re-submit (bounded retries). Off by default
// so admission behavior stays visible in the report.
//
// -priority tags the sweep's sessions with a scheduling tier: live,
// batch, or mixed (sessions alternate — the shape that shows the QoS
// controller degrading batch before live). -qoslevel pins every session
// at a fixed degradation level; the default is adaptive, under the
// daemon's closed-loop controller, and the report's "qos levels" column
// histograms where each session's stream ended up.
//
// Every report names each point's slowest session by its trace ID (the
// X-Vcodec-Trace trailer) and dumps that session's per-frame timeline —
// read, queue wait, analysis, entropy and emit latency, bits, Qp, QoS
// level — pulled from the serving node's flight recorder via
// /debug/vcodec/trace (through the gateway's fleet-wide proxy when -url
// names a gateway). A tail-latency investigation starts from that ID,
// not from a percentile.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/frame"
	"repro/internal/video"
)

func main() {
	var (
		url      = flag.String("url", "", "endpoint base URL(s), comma-separated (e.g. http://127.0.0.1:8323)")
		sessions = flag.String("sessions", "1,4,8", "comma-separated session counts to sweep")
		frames   = flag.Int("frames", 30, "frames per session")
		sizeName = flag.String("size", "qcif", "clip size: sqcif|qcif|cif")
		profName = flag.String("profile", "foreman", "clip profile: carphone|foreman|missamerica|table")
		qp       = flag.Int("qp", 16, "quantiser parameter")
		me       = flag.String("me", "acbm", "motion estimator")
		entropy  = flag.String("entropy", "", "entropy backend: expgolomb|arith")
		kbps     = flag.Float64("kbps", 0, "per-session rate-control target in kbit/s (0 = constant Qp)")
		seed     = flag.Uint64("seed", 0, "clip seed (0 = experiment default)")
		verify   = flag.Bool("verify", false, "byte-compare one session per point against the offline encoder")
		retryA   = flag.Bool("retry-after", false, "on 503, honor Retry-After and re-submit (bounded)")
		retryMax = flag.Int("retry-max", 4, "max 503 re-submissions per session with -retry-after")
		priority = flag.String("priority", "", "session scheduling tier: live|batch|mixed (default live)")
		qosPin   = flag.String("qoslevel", "", "pin sessions at this QoS level 0..3 (default adaptive)")
		wait     = flag.Duration("wait", 10*time.Second, "how long to wait for /healthz before starting")
	)
	flag.Parse()

	counts, err := parseSessions(*sessions)
	if err != nil {
		fatal(err)
	}
	size, err := frame.SizeByName(*sizeName)
	if err != nil {
		fatal(err)
	}
	prof, err := video.ProfileByName(*profName)
	if err != nil {
		fatal(err)
	}
	var urls []string
	for _, u := range strings.Split(*url, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}

	switch *priority {
	case "", "live", "batch", "mixed":
	default:
		fatal(fmt.Errorf("bad -priority %q (want live, batch or mixed)", *priority))
	}

	if len(urls) == 0 {
		fatal(fmt.Errorf("-url is required"))
	}
	for _, u := range urls {
		if err := waitHealthy(u, *wait); err != nil {
			fatal(err)
		}
	}

	res, err := RunServe(ServeConfig{
		URLs:     urls,
		Sessions: counts,
		Frames:   *frames,
		Size:     size,
		Profile:  prof,
		Qp:       *qp,
		Seed:     *seed,
		Searcher: *me,
		Entropy:  *entropy,
		Kbps:     *kbps,
		Priority: *priority,
		QosPin:   *qosPin,
		Verify:   *verify,
		Retry503: *retryA,
		RetryMax: *retryMax,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Print(FormatServe(res))
}

// waitHealthy polls /healthz until the daemon answers 200.
func waitHealthy(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon at %s not healthy after %v: %w", base, timeout, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func parseSessions(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad session count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no session counts in %q", s)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vload:", err)
	os.Exit(1)
}
