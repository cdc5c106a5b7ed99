package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/search"
	"repro/internal/video"
)

// TestQosControllerStepTrajectory drives the hysteresis state machine
// with a synthetic load-score trajectory and pins every transition:
// degradation is immediate (two steps past 2× the high water mark),
// restoration needs a run of qosRestoreTicks scores below the low water
// mark plus a qosDwellTicks dwell since the last change — and nothing
// else — and a middle-band tick resets the restore run. Deterministic:
// no ticker, no clock.
func TestQosControllerStepTrajectory(t *testing.T) {
	c := &qosController{}
	traj := []struct {
		score float64
		want  int
		note  string
	}{
		{0.7, 0, "middle band: no change"},
		{0.7, 0, "middle band: no change"},
		{1.5, 1, "breach: one step up"},
		{2.5, 3, "deep breach (>2x): two steps up"},
		{1.2, 4, "still breached: step to max"},
		{1.2, 4, "saturated: holds at max step"},
		{1.2, 4, "saturated: holds at max step"},
		{0.4, 4, "low, run 1 (dwell 3)"},
		{0.4, 4, "low, run 2"},
		{0.4, 4, "low, run 3"},
		{0.4, 3, "run 4, dwell 6: restore"},
		{0.4, 3, "run restarts after the change"},
		{0.4, 3, "run 2"},
		{0.7, 3, "middle band resets the restore run"},
		{0.4, 3, "run 1 again"},
		{0.4, 3, "run 2"},
		{0.4, 3, "run 3"},
		{0.4, 2, "run 4, dwell 7: restore"},
		{0.49, 2, "run 1 (dwell 1)"},
		{0.49, 2, "run 2"},
		{0.49, 2, "run 3"},
		{0.49, 2, "run 4, dwell 4: dwell not served"},
		{0.49, 2, "run 5, dwell 5"},
		{0.49, 1, "run 6, dwell 6: restore — just under the low water mark is enough"},
		{0.5, 1, "at the low water mark: middle band, run resets (dwell 1)"},
		{0.1, 1, "run 1 (dwell 2)"},
		{0.1, 1, "run 2"},
		{0.1, 1, "run 3"},
		{0.1, 1, "run 4, dwell 5: dwell not served"},
		{0.1, 0, "run 5, dwell 6: restored to full quality"},
		{0.1, 0, "stays restored"},
	}
	for i, tc := range traj {
		if got := c.stepOn(tc.score); got != tc.want {
			t.Fatalf("tick %d (score %.2f, %s): step %d, want %d", i, tc.score, tc.note, got, tc.want)
		}
	}
	if d := c.degrades.Load(); d != 3 {
		t.Errorf("degrades %d, want 3", d)
	}
	if r := c.restores.Load(); r != 4 {
		t.Errorf("restores %d, want 4", r)
	}
}

// TestQosLevelForStep pins the batch-first mapping: batch takes the full
// step, live lags one behind, both clamped to the ladder.
func TestQosLevelForStep(t *testing.T) {
	wantBatch := []int{0, 1, 2, 3, 3}
	wantLive := []int{0, 0, 1, 2, 3}
	for step := 0; step <= qosMaxStep; step++ {
		if got := levelForStep(step, true); got != wantBatch[step] {
			t.Errorf("step %d batch level %d, want %d", step, got, wantBatch[step])
		}
		if got := levelForStep(step, false); got != wantLive[step] {
			t.Errorf("step %d live level %d, want %d", step, got, wantLive[step])
		}
	}
}

// TestQosRegisterStartsAtCurrentLevel: a session admitted under overload
// starts at its class's in-force level instead of briefly encoding at
// full quality.
func TestQosRegisterStartsAtCurrentLevel(t *testing.T) {
	c := newQosController(time.Hour, 75, 8, newScheduler(8, 8))
	defer c.close()
	c.mu.Lock()
	c.step = 3
	c.mu.Unlock()
	if got := c.register(true).target.Load(); got != 3 {
		t.Errorf("batch session admitted at level %d, want 3", got)
	}
	if got := c.register(false).target.Load(); got != 2 {
		t.Errorf("live session admitted at level %d, want 2", got)
	}
}

// TestRetryAfterSeconds pins the dynamic 503 backoff: floor 1s, plus the
// degradation step, plus the queue backlog in session-cap units, cap 8s.
func TestRetryAfterSeconds(t *testing.T) {
	for _, tc := range []struct{ queued, step, maxSessions, want int }{
		{0, 0, 8, 1},
		{16, 0, 8, 3},
		{4, 2, 8, 3},
		{100, 4, 8, 8},
		{0, 0, 0, 1}, // max-sessions guard
	} {
		if got := retryAfterSeconds(tc.queued, tc.step, tc.maxSessions); got != tc.want {
			t.Errorf("retryAfterSeconds(%d,%d,%d) = %d, want %d",
				tc.queued, tc.step, tc.maxSessions, got, tc.want)
		}
	}
}

// TestQosPinnedLevelsByteIdenticalOffline is the offline-verifiability
// gate: a session pinned at QoS level L streams packets byte-identical
// to the offline encoder with ApplyQosLevel(cfg, L) — for every level,
// for both priority classes, and for the budget-controlled profile, whose
// dial rescales its positions/MB target rather than ACBM's thresholds.
func TestQosPinnedLevelsByteIdenticalOffline(t *testing.T) {
	frames := video.Generate(video.Foreman, frame.SQCIF, 6, 7)
	body := y4mBody(t, frames)
	_, ts := newTestServer(t, Config{})

	run := func(query string, offline codec.Config, level int) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/encode?"+query, "video/x-yuv4mpeg", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("%s: status %d: %s", query, resp.StatusCode, msg)
		}
		pkts := readPackets(t, resp.Body)
		if errT := resp.Trailer.Get(TrailerError); errT != "" {
			t.Fatalf("%s: error trailer: %s", query, errT)
		}
		if got := resp.Trailer.Get(TrailerQosLevel); got != strconv.Itoa(level) {
			t.Errorf("%s: qos level trailer %q, want %d", query, got, level)
		}
		if got := resp.Trailer.Get(TrailerQosTransitions); got != "0" {
			t.Errorf("%s: transitions trailer %q, want 0 (pinned)", query, got)
		}
		want, _, err := codec.EncodePackets(ApplyQosLevel(offline, level), frames)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkts) != len(want) {
			t.Fatalf("%s: %d packets, offline %d", query, len(pkts), len(want))
		}
		for i := range want {
			if !bytes.Equal(pkts[i], want[i]) {
				t.Errorf("%s: packet %d differs from offline ApplyQosLevel encode", query, i)
				break
			}
		}
	}

	for level := 0; level <= MaxQosLevel; level++ {
		pri := "live"
		if level%2 == 1 {
			pri = "batch" // priority is pure scheduling; bytes must not care
		}
		run(fmt.Sprintf("qp=14&me=acbm&priority=%s&qoslevel=%d", pri, level),
			codec.Config{Qp: 14, FPS: 30, Searcher: core.New(core.DefaultParams), Workers: 1}, level)
	}

	// Budget-controlled profile: level 2 scales the complexity target to
	// an eighth.
	bd, err := core.NewBudgeted(150, core.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	run("qp=14&budget=150&qoslevel=2",
		codec.Config{Qp: 14, FPS: 30, Searcher: bd, Workers: 1}, 2)
}

// TestQosDegradeUnderLoadAndRestore runs the loop for real: a controller
// tuned so any observed frame latency counts as overload must degrade a
// running session mid-stream (trailer level > 0, transitions > 0) while
// the stream stays decodable and complete — graceful degradation, not
// truncation — and once the session ends the controller must walk back
// to full quality.
//
// The upload streams: the first frames go out, and the rest only once the
// controller has stepped down, so the session is still running when a tick
// sees its latency however fast the host encodes (a whole clip sent at
// once can finish inside one 2 ms interval).
func TestQosDegradeUnderLoadAndRestore(t *testing.T) {
	frames := video.Generate(video.Foreman, frame.SQCIF, 24, 7)
	s, ts := newTestServer(t, Config{
		MaxSessions:      2,
		QosInterval:      2 * time.Millisecond,
		QosTargetFrameMs: 0.01, // any real frame latency reads as overload
	})

	body, head := y4mBody(t, frames), y4mBody(t, frames[:4])
	if !bytes.HasPrefix(body, head) {
		t.Fatal("a clip's Y4M does not start with its first frames' Y4M")
	}
	upload, pw := io.Pipe()
	go func() {
		if _, err := pw.Write(head); err != nil {
			return // the request ended early; the transport closed the pipe
		}
		for deadline := time.Now().Add(10 * time.Second); s.qos.currentStep() == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		_, err := pw.Write(body[len(head):])
		pw.CloseWithError(err)
	}()
	resp, err := http.Post(ts.URL+"/encode?qp=16&me=acbm", "video/x-yuv4mpeg", upload)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	pkts := readPackets(t, resp.Body)
	if errT := resp.Trailer.Get(TrailerError); errT != "" {
		t.Fatalf("error trailer: %s", errT)
	}
	if got := resp.Trailer.Get(TrailerFrames); got != strconv.Itoa(len(frames)) {
		t.Fatalf("frames trailer %q, want %d — degradation must not truncate", got, len(frames))
	}
	level, err := strconv.Atoi(resp.Trailer.Get(TrailerQosLevel))
	if err != nil || level <= 0 {
		t.Errorf("qos level trailer %q, want > 0 under forced overload", resp.Trailer.Get(TrailerQosLevel))
	}
	if tr, _ := strconv.Atoi(resp.Trailer.Get(TrailerQosTransitions)); tr <= 0 {
		t.Errorf("transitions trailer %q, want > 0 (degraded mid-stream)", resp.Trailer.Get(TrailerQosTransitions))
	}

	// The degraded stream decodes end to end: quality was traded, not
	// correctness.
	dec, err := codec.NewPacketDecoder(pkts[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, pkt := range pkts[1:] {
		if _, err := dec.DecodePacket(pkt); err != nil {
			t.Fatalf("decoding degraded frame %d: %v", i, err)
		}
	}

	// No degradation step costs an intra frame: the session's flight
	// record shows frame 0 as its only intra frame, actuations and all.
	rec := s.obs.Lookup(resp.Trailer.Get(TrailerTrace)).Snapshot()
	if len(rec.Events) != len(frames) {
		t.Fatalf("flight record holds %d frames, want %d", len(rec.Events), len(frames))
	}
	actuated := 0
	for _, ev := range rec.Events {
		if ev.Intra != (ev.Index == 0) {
			t.Errorf("frame %d (qos level %d): intra=%v, want only frame 0 intra", ev.Index, ev.QosLevel, ev.Intra)
		}
		if ev.Actuated {
			actuated++
		}
	}
	if actuated == 0 {
		t.Error("flight record marks no actuated frame")
	}

	// Load is gone: the idle decay must walk the controller back to step
	// 0 (4 low ticks + 6-tick dwell per step at a 2ms interval).
	deadline := time.Now().Add(10 * time.Second)
	for s.qos.currentStep() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("controller stuck at step %d after load removed", s.qos.currentStep())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s.qos.restores.Load() == 0 {
		t.Error("no restore steps counted")
	}

	// Observability: the degradation shows up on /healthz and /metrics.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hzBody, _ := io.ReadAll(hz.Body)
	hz.Body.Close()
	if !strings.Contains(string(hzBody), `"qos_level":0`) {
		t.Errorf("healthz missing restored qos_level: %s", hzBody)
	}
	mt, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mtBody, _ := io.ReadAll(mt.Body)
	mt.Body.Close()
	for _, want := range []string{
		"vcodecd_qos_level 0",
		"vcodecd_qos_degrades_total",
		"vcodecd_qos_restores_total",
		"vcodecd_qos_actuations_total",
		"vcodecd_sessions_active_live",
	} {
		if !strings.Contains(string(mtBody), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestQosLevelZeroIsNoOp: ApplyQosLevel(cfg, 0) leaves the quantiser and
// the searcher's dial exactly as constructed — the property that keeps a
// qoslevel=0 stream (every benchmark pins it) byte-identical to an
// un-degraded encode — and so does returning to level 0 from the bottom
// rung, since every level is absolute.
func TestQosLevelZeroIsNoOp(t *testing.T) {
	p := core.Params{Alpha: 700, Beta: 6, GammaNum: 1, GammaDen: 3}
	acbm := core.New(p)
	bd, err := core.NewBudgeted(150, core.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []codec.Config{{Qp: 16, Searcher: acbm}, {Qp: 16, Searcher: bd}} {
		for _, level := range []int{0, MaxQosLevel, 0} {
			cfg := ApplyQosLevel(s, level)
			if level == 0 && cfg.Qp != 16 {
				t.Errorf("%s at level 0: qp %d, want 16", s.Searcher.Name(), cfg.Qp)
			}
		}
	}
	if acbm.Params != p {
		t.Errorf("ACBM params %+v after level 0, want %+v as constructed", acbm.Params, p)
	}
	if bd.Target != 150 {
		t.Errorf("budget target %g after level 0, want 150 as constructed", bd.Target)
	}
}

// TestQosLadder pins what each level buys on two cells, one search-bound
// (Foreman at Qp 16) and one residual-bound (Carphone at Qp 24), every
// level pinned through ApplyQosLevel on plain ACBM. By the encoder's own
// counters each level does less work than the level above it: strictly
// fewer search points or strictly fewer transformed blocks, and neither
// more than 2 % above the level above. The bottom rung is PBM at Qp+6 byte
// for byte: at ×8 thresholds no block goes on to full search.
func TestQosLadder(t *testing.T) {
	for _, cell := range []struct {
		name    string
		profile video.Profile
		qp      int
	}{
		{"foreman@16", video.Foreman, 16},
		{"carphone@24", video.Carphone, 24},
	} {
		t.Run(cell.name, func(t *testing.T) {
			frames := video.Generate(cell.profile, frame.QCIF, 20, 7)
			encode := func(cfg codec.Config) ([][]byte, *codec.SequenceStats) {
				t.Helper()
				pkts, st, err := codec.EncodePackets(cfg, frames)
				if err != nil {
					t.Fatal(err)
				}
				return pkts, st
			}
			var prevPts, prevTB int
			var bottom [][]byte
			for level := 0; level <= MaxQosLevel; level++ {
				pkts, st := encode(ApplyQosLevel(codec.Config{
					Qp: cell.qp, FPS: 30, Searcher: core.New(core.DefaultParams), Workers: 1,
				}, level))
				pts, tb, crit := 0, 0, 0
				for _, fs := range st.Frames {
					pts += fs.SearchPoints
					tb += fs.TransformedBlocks
					crit += fs.CriticalBlocks
				}
				t.Logf("level %d: %d points, %d transformed blocks, %d critical, %d bytes, PSNR-Y %.3f",
					level, pts, tb, crit, len(bytes.Join(pkts, nil)), st.AvgPSNRY())
				if level > 0 {
					if pts >= prevPts && tb >= prevTB {
						t.Errorf("level %d does no less work than level %d: points %d ≥ %d, transformed %d ≥ %d",
							level, level-1, pts, prevPts, tb, prevTB)
					}
					if 50*pts > 51*prevPts || 50*tb > 51*prevTB {
						t.Errorf("level %d exceeds level %d by more than 2 %%: points %d vs %d, transformed %d vs %d",
							level, level-1, pts, prevPts, tb, prevTB)
					}
				}
				prevPts, prevTB, bottom = pts, tb, pkts
			}
			pbm, _ := encode(codec.Config{Qp: cell.qp + 6, FPS: 30, Searcher: &search.PBM{}, Workers: 1})
			if len(pbm) != len(bottom) {
				t.Fatalf("bottom rung %d packets, PBM %d", len(bottom), len(pbm))
			}
			for i := range pbm {
				if !bytes.Equal(bottom[i], pbm[i]) {
					t.Fatalf("bottom rung packet %d differs from PBM at Qp %d", i, cell.qp+6)
				}
			}
		})
	}
}
