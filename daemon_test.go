package repro

// The serving layer end to end: the real daemons on random loopback ports,
// driven through the module's own tools. Each row of TestDaemonSmoke is one
// serving surface and runs in a fresh environment — its own daemons, its
// own temp dir — ending in a clean SIGTERM drain. `make X-smoke` runs row
// X alone.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// smokeRow is one scenario: a topology (vcodecd backends, optionally a
// gateway in front of them) and the burst and assertions run against it.
type smokeRow struct {
	name string
	// backends holds each vcodecd's flags beyond -addr and -addrfile.
	backends [][]string
	// gateway, when non-nil, holds vcodec-gateway's flags beyond -addr,
	// -addrfile and -backends (every backend, in order).
	gateway []string
	check   func(t *testing.T, e *smokeEnv)
}

// smokeEnv is a row's running topology.
type smokeEnv struct {
	dir      string
	backends []*daemon
	gateway  *daemon // nil without one
	url      string  // what clients target: the gateway, else backend 0
}

// qosBurstFrames sizes the qos row's overload burst. The controller
// degrades on a tick (every 25 ms here) whose score exceeds 1; with 4
// sessions against a cap of 2 the score is ≥ 1.25 only while the two
// over-cap sessions wait in the queue, i.e. while the first two run. At
// the 12 frames the shell smoke used that was ~10 ms, and bursts ended
// with no degrade at all. At 480 SQCIF frames each admitted session runs
// ~100 ms on a 2-vCPU host, four ticks and more: three bursts measured 4
// degrades each (the ladder's full depth), so the assertion does not rest
// on a tick's phase. A slower host only lengthens the window.
const qosBurstFrames = 480

// TestDaemonSmoke boots each row's daemons, runs its check, then drains
// the gateway and every backend the check did not kill, each of which
// must still be running and exit 0.
func TestDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows := []smokeRow{
		{
			name:     "serve",
			backends: [][]string{{"-max-sessions", "4"}},
			check: func(t *testing.T, e *smokeEnv) {
				e.vload(t, "-sessions", "1,2", "-frames", "6", "-verify")
			},
		},
		{
			name:     "cluster",
			backends: [][]string{{"-max-sessions", "4"}, {"-max-sessions", "4"}},
			gateway:  []string{"-poll-interval", "100ms", "-breaker-cooldown", "500ms"},
			check: func(t *testing.T, e *smokeEnv) {
				e.vload(t, "-sessions", "1,4", "-frames", "6", "-verify")
				// Backend 1 dies outright, no drain; the gateway must route
				// the next burst to the survivor, every stream verifying.
				e.backends[0].kill()
				e.vload(t, "-sessions", "4", "-frames", "6", "-verify", "-retry-after")
			},
		},
		{
			name: "qos",
			// A 2-session cap and an unmeetable 5 ms frame target: a burst
			// over the cap overloads the loop, which ticks every 25 ms.
			backends: [][]string{{"-max-sessions", "2", "-qos-interval", "25ms", "-qos-target-ms", "5"}},
			check:    checkQos,
		},
		{
			name:     "obs",
			backends: [][]string{{"-max-sessions", "4"}},
			check:    checkObs,
		},
		{
			name:     "ladder",
			backends: [][]string{{"-max-sessions", "4"}},
			check:    checkLadder,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			e := &smokeEnv{dir: t.TempDir()}
			var urls []string
			for i, flags := range row.backends {
				d := startDaemon(t, fmt.Sprintf("vcodecd-%d", i+1), "vcodecd", flags...)
				e.backends = append(e.backends, d)
				urls = append(urls, "http://"+d.addr)
			}
			e.url = urls[0]
			if row.gateway != nil {
				e.gateway = startDaemon(t, "vcodec-gateway", "vcodec-gateway",
					append([]string{"-backends", strings.Join(urls, ",")}, row.gateway...)...)
				e.url = "http://" + e.gateway.addr
			}
			row.check(t, e)
			if e.gateway != nil {
				e.gateway.drain(t)
			}
			for _, d := range e.backends {
				if !d.killed {
					d.drain(t)
				}
			}
		})
	}
}

// checkQos: pinned levels stream the offline encoder's bytes at that
// level; an overload burst makes the controller degrade while the pinned
// verified session still matches; afterwards the controller restores
// full quality.
func checkQos(t *testing.T, e *smokeEnv) {
	for level := 0; level <= server.MaxQosLevel; level++ {
		e.vload(t, "-sessions", "1", "-frames", "6", "-qoslevel", strconv.Itoa(level), "-verify")
	}
	degrades, restores := e.counter(t, "vcodecd_qos_degrades_total"), e.counter(t, "vcodecd_qos_restores_total")
	// The queue absorbs the overflow (vload fails on a 503), nobody
	// truncates (vload fails on a short stream), and vload pins its
	// verified session at level 0 while the others degrade.
	e.vload(t, "-sessions", "4", "-frames", strconv.Itoa(qosBurstFrames), "-priority", "mixed", "-verify")
	got := e.counter(t, "vcodecd_qos_degrades_total")
	if got <= degrades {
		t.Fatalf("vcodecd_qos_degrades_total %d before the overload burst, %d after: the controller never degraded", degrades, got)
	}
	t.Logf("overload burst: vcodecd_qos_degrades_total %d → %d", degrades, got)
	var hz struct {
		QosLevel int `json:"qos_level"`
	}
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(100 * time.Millisecond) {
		e.getJSON(t, "/healthz", &hz)
		if hz.QosLevel == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz qos_level still %d 20s after the burst", hz.QosLevel)
		}
	}
	if got = e.counter(t, "vcodecd_qos_restores_total"); got <= restores {
		t.Fatalf("qos_level back at 0 but vcodecd_qos_restores_total %d → %d", restores, got)
	}
}

// checkObs: a burst's sessions land in the flight recorder's completed
// ring; the first one's trace holds every frame it streamed; an unknown
// trace ID is refused; the latency histograms are on /metrics.
func checkObs(t *testing.T, e *smokeEnv) {
	const frames = 6
	e.vload(t, "-sessions", "2", "-frames", strconv.Itoa(frames))
	var list struct{ Completed []obs.Summary }
	e.getJSON(t, "/debug/vcodec/sessions", &list)
	if len(list.Completed) < 2 {
		t.Fatalf("%d completed sessions listed, want ≥ 2", len(list.Completed))
	}
	var rec obs.Record
	e.getJSON(t, "/debug/vcodec/trace?id="+list.Completed[0].TraceID, &rec)
	if rec.Frames != frames || len(rec.Events) != frames {
		t.Fatalf("trace %s: %d frames, %d timeline events; want %d of each", rec.TraceID, rec.Frames, len(rec.Events), frames)
	}
	resp, err := http.Get(e.url + "/debug/vcodec/trace?id=doesnotexist00")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace ID: status %d, want 404", resp.StatusCode)
	}
	m := e.get(t, "/metrics")
	for _, fam := range []string{"vcodecd_analysis_seconds", "vcodecd_entropy_seconds", "vcodecd_emit_seconds", "vcodecd_first_packet_seconds"} {
		if !hasLine(m, "# TYPE "+fam+" histogram") {
			t.Errorf("/metrics lacks # TYPE %s histogram", fam)
		}
		if !strings.Contains(m, "\n"+fam+`_bucket{le="+Inf"}`) {
			t.Errorf("/metrics lacks %s's +Inf bucket", fam)
		}
	}
}

// checkLadder: one /encode?ladder= session, split into per-rung
// artifacts, matches the offline `vcodec encode -ladder` run byte for byte
// and every rung decodes on its own; the plane pool's counters are live.
func checkLadder(t *testing.T, e *smokeEnv) {
	const ladder, qp, me = "128x128,64x64,32x32", "14", "pbm"
	seqgen, vcodec := buildTool(t, "seqgen"), buildTool(t, "vcodec")
	in, off, stream, srv := e.path("in.y4m"), e.path("off.acbm"), e.path("stream.bin"), e.path("srv.acbm")
	runTool(t, seqgen, "-profile", "foreman", "-size", "128x128", "-frames", "6", "-seed", "7", "-o", in)
	runTool(t, vcodec, "encode", "-i", in, "-o", off, "-qp", qp, "-me", me, "-ladder", ladder)

	clip, err := os.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(e.url+"/encode?qp="+qp+"&me="+me+"&ladder="+ladder, "video/x-yuv4mpeg", bytes.NewReader(clip))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || resp.Trailer.Get(server.TrailerError) != "" {
		t.Fatalf("ladder session: status %d, read error %v, error trailer %q", resp.StatusCode, err, resp.Trailer.Get(server.TrailerError))
	}
	if err := os.WriteFile(stream, body, 0o644); err != nil {
		t.Fatal(err)
	}

	runTool(t, vcodec, "ladder-split", "-i", stream, "-o", srv)
	for r := 0; r < 3; r++ {
		want, err := os.ReadFile(e.path(fmt.Sprintf("off.r%d.acbm", r)))
		if err != nil {
			t.Fatal(err)
		}
		rung := e.path(fmt.Sprintf("srv.r%d.acbm", r))
		got, err := os.ReadFile(rung)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("rung %d: served %d bytes differ from the offline encode's %d", r, len(got), len(want))
		}
		runTool(t, vcodec, "decode", "-packets", "-i", rung, "-o", e.path(fmt.Sprintf("dec.r%d.y4m", r)))
	}
	m := e.get(t, "/metrics")
	for _, fam := range []string{"vcodecd_frame_pool_hits_total", "vcodecd_frame_pool_misses_total"} {
		if !hasLine(m, "# TYPE "+fam+" counter") {
			t.Errorf("/metrics lacks # TYPE %s counter", fam)
		}
	}
}

func (e *smokeEnv) path(name string) string { return filepath.Join(e.dir, name) }

// vload runs one vload sweep of SQCIF sessions against the row's url and
// logs its report, less the slowest sessions' timelines.
func (e *smokeEnv) vload(t *testing.T, args ...string) {
	t.Helper()
	out := runTool(t, buildTool(t, "vload"), append([]string{"-url", e.url, "-size", "sqcif"}, args...)...)
	var report []string
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] != "worst" && f[0] != "frame" {
			report = append(report, line)
		}
	}
	t.Logf("vload %s:\n%s", strings.Join(args, " "), strings.Join(report, "\n"))
}

// get fetches path from the row's url and requires 200.
func (e *smokeEnv) get(t *testing.T, path string) string {
	t.Helper()
	resp, err := http.Get(e.url + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v: %s", path, resp.StatusCode, err, body)
	}
	return string(body)
}

// getJSON decodes path's 200 response into v.
func (e *smokeEnv) getJSON(t *testing.T, path string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(e.get(t, path)), v); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

// counter reads one unlabelled counter off /metrics.
func (e *smokeEnv) counter(t *testing.T, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(e.get(t, "/metrics"), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("/metrics %s: %v", name, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics has no %s", name)
	return 0
}

func hasLine(text, line string) bool {
	return strings.Contains("\n"+text, "\n"+line+"\n")
}

// daemon is one started server process.
type daemon struct {
	name string
	addr string
	cmd  *exec.Cmd
	log  string        // its stdout and stderr
	done chan struct{} // closed once it has exited; err is then Wait's
	err  error
	// killed records a deliberate kill: only such a process is spared
	// the drain, so one that died unasked fails its row.
	killed bool
}

// startDaemon starts cmd/tool on a random loopback port and waits at most
// 10 s for it to publish its address. A process still running when the
// test ends is killed, and a failed test logs every daemon's output.
func startDaemon(t *testing.T, name, tool string, flags ...string) *daemon {
	t.Helper()
	dir := t.TempDir()
	d := &daemon{name: name, log: filepath.Join(dir, "log"), done: make(chan struct{})}
	logf, err := os.Create(d.log)
	if err != nil {
		t.Fatal(err)
	}
	addrFile := filepath.Join(dir, "addr")
	d.cmd = exec.Command(buildTool(t, tool), append([]string{"-addr", "127.0.0.1:0", "-addrfile", addrFile}, flags...)...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	err = d.cmd.Start()
	logf.Close()
	if err != nil {
		t.Fatal(err)
	}
	go func() { d.err = d.cmd.Wait(); close(d.done) }()
	t.Cleanup(func() {
		if !d.exited() {
			d.kill()
		}
		if t.Failed() {
			t.Logf("%s output:\n%s", d.name, d.output())
		}
	})
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if b, _ := os.ReadFile(addrFile); len(b) > 0 {
			if _, _, err := net.SplitHostPort(string(b)); err == nil {
				d.addr = string(b)
				return d
			}
		}
		if d.exited() {
			t.Fatalf("%s exited before listening: %v\n%s", name, d.err, d.output())
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s published no address in 10s\n%s", name, d.output())
		}
	}
}

func (d *daemon) exited() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

func (d *daemon) output() string {
	b, _ := os.ReadFile(d.log)
	return string(b)
}

// kill ends the process with SIGKILL: no drain. A process that already
// exited needs no signal, so Kill's error is moot; done says it is gone.
func (d *daemon) kill() {
	d.killed = true
	d.cmd.Process.Kill()
	<-d.done
}

// drain sends SIGTERM and requires the process to exit 0.
func (d *daemon) drain(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("%s: SIGTERM: %v (exited early?)\n%s", d.name, err, d.output())
	}
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s still running 30s after SIGTERM", d.name)
	}
	if d.err != nil {
		t.Fatalf("%s: exit after SIGTERM: %v\n%s", d.name, d.err, d.output())
	}
}
