package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/video"
)

// scrapeMetrics fetches and returns /metrics.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// parseExposition is a strict-enough Prometheus text-format 0.0.4 reader
// for the tests: it returns sample name → value (labelled samples keyed
// by full series) and the HELP/TYPE metadata per metric family, failing
// the test on any malformed line or any sample whose family lacks
// HELP or TYPE metadata *above* it.
func parseExposition(t *testing.T, text string) (samples map[string]float64, types map[string]string) {
	t.Helper()
	samples = map[string]float64{}
	types = map[string]string{}
	help := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			f := strings.Fields(line)
			if len(f) < 4 {
				t.Fatalf("malformed HELP line %q", line)
			}
			help[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[f[2]] = f[3]
			continue
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		series, val := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("sample %q: bad value: %v", line, err)
		}
		family := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			family = series[:i]
		}
		// Histogram child series belong to the base family's metadata.
		base := family
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(family, suf); ok && types[b] == "histogram" {
				base = b
			}
		}
		if !help[base] {
			t.Errorf("series %q has no HELP line", series)
		}
		if _, ok := types[base]; !ok {
			t.Errorf("series %q has no TYPE line", series)
		}
		samples[series] = v
	}
	return samples, types
}

// TestMetricsExpositionUnderLoad drives 8 concurrent sessions and then
// checks the whole observability surface: /metrics parses with HELP and
// TYPE on every family, counters are monotonic across scrapes,
// histograms are sane (cumulative buckets, count==+Inf, observations
// present); the trace trailer round-trips into /debug/vcodec/trace with
// a frame count matching the trailer; and /debug/vcodec/sessions and
// /debug/vcodec/qos respond.
func TestMetricsExpositionUnderLoad(t *testing.T) {
	frames := video.Generate(video.Foreman, frame.SQCIF, 6, 7)
	body := y4mBody(t, frames)
	_, ts := newTestServer(t, Config{MaxSessions: 4})

	const sessions = 8
	traces := make([]string, sessions)
	trailerFrames := make([]int, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := ts.URL + "/encode?qp=16&me=acbm"
			if i%2 == 1 {
				url += "&priority=batch"
			}
			req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			if i == 0 {
				// One session supplies its own trace ID; the server must
				// honor it instead of minting.
				req.Header.Set(obs.TraceIDHeader, "client-chosen-trace-0")
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			readPackets(t, resp.Body)
			traces[i] = resp.Trailer.Get(TrailerTrace)
			trailerFrames[i], _ = strconv.Atoi(resp.Trailer.Get(TrailerFrames))
			if resp.Trailer.Get(TrailerError) != "" {
				t.Errorf("session %d error: %s", i, resp.Trailer.Get(TrailerError))
			}
		}(i)
	}
	wg.Wait()

	if traces[0] != "client-chosen-trace-0" {
		t.Errorf("inbound trace ID not honored: got %q", traces[0])
	}

	// Scrape twice: parseability + metadata, then counter monotonicity.
	s1, types := parseExposition(t, scrapeMetrics(t, ts.URL))
	s2, _ := parseExposition(t, scrapeMetrics(t, ts.URL))
	for series, v1 := range s1 {
		family := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			family = series[:i]
		}
		if types[family] == "counter" {
			if v2, ok := s2[series]; ok && v2 < v1 {
				t.Errorf("counter %s went backwards: %v -> %v", series, v1, v2)
			}
		}
	}
	if got := s1["vcodecd_sessions_total"]; got < sessions {
		t.Errorf("vcodecd_sessions_total %v, want >= %d", got, sessions)
	}

	// Histogram sanity: the per-frame families saw every frame, buckets
	// are cumulative, and _count equals the +Inf bucket.
	for _, h := range []string{"vcodecd_analysis_seconds", "vcodecd_entropy_seconds", "vcodecd_emit_seconds", "vcodecd_first_packet_seconds"} {
		if types[h] != "histogram" {
			t.Errorf("%s TYPE %q, want histogram", h, types[h])
			continue
		}
		inf := s1[fmt.Sprintf("%s_bucket{le=\"+Inf\"}", h)]
		if inf == 0 {
			t.Errorf("%s has no observations", h)
		}
		if c := s1[h+"_count"]; c != inf {
			t.Errorf("%s_count %v != +Inf bucket %v", h, c, inf)
		}
	}
	wantFrames := float64(sessions * len(frames))
	if got := s1[`vcodecd_analysis_seconds_bucket{le="+Inf"}`]; got != wantFrames {
		t.Errorf("analysis histogram saw %v frames, want %v", got, wantFrames)
	}

	// Trace endpoint: every session's trailer ID resolves to a timeline
	// whose frame count matches the trailer.
	for i, id := range traces {
		if id == "" {
			t.Errorf("session %d: empty trace trailer", i)
			continue
		}
		resp, err := http.Get(ts.URL + "/debug/vcodec/trace?id=" + id)
		if err != nil {
			t.Fatal(err)
		}
		var rec obs.Record
		if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
			t.Fatalf("trace %s: %v", id, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("trace %s: status %d", id, resp.StatusCode)
			continue
		}
		if rec.Frames != trailerFrames[i] {
			t.Errorf("trace %s: %d frames, trailer said %d", id, rec.Frames, trailerFrames[i])
		}
		if len(rec.Events) != rec.Frames {
			t.Errorf("trace %s: %d events for %d frames", id, len(rec.Events), rec.Frames)
		}
		if !rec.Done {
			t.Errorf("trace %s: not marked done", id)
		}
		for _, ev := range rec.Events {
			if ev.Bits <= 0 || ev.AnalysisMs <= 0 {
				t.Errorf("trace %s frame %d: bits=%d analysis=%v", id, ev.Index, ev.Bits, ev.AnalysisMs)
			}
		}
	}

	// Unknown trace → 404.
	resp, err := http.Get(ts.URL + "/debug/vcodec/trace?id=deadbeefdeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace: status %d, want 404", resp.StatusCode)
	}

	// Sessions listing: all 8 completed sessions retained, none live.
	resp, err = http.Get(ts.URL + "/debug/vcodec/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Live      []obs.Summary `json:"live"`
		Completed []obs.Summary `json:"completed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Live) != 0 || len(listing.Completed) != sessions {
		t.Errorf("sessions listing: %d live, %d completed; want 0/%d",
			len(listing.Live), len(listing.Completed), sessions)
	}

	// QoS audit endpoint responds with valid JSON.
	resp, err = http.Get(ts.URL + "/debug/vcodec/qos")
	if err != nil {
		t.Fatal(err)
	}
	var audit struct {
		Enabled bool            `json:"enabled"`
		Ticks   []QosAuditEntry `json:"ticks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&audit); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !audit.Enabled {
		t.Error("qos audit reports disabled on a QoS-enabled server")
	}
}

// TestTraceOfPinnedSession pins metadata propagation: a pinned batch
// session's flight record carries its priority, searcher and pinned
// level.
func TestTraceOfPinnedSession(t *testing.T) {
	frames := video.Generate(video.Carphone, frame.SQCIF, 3, 1)
	_, ts := newTestServer(t, Config{})

	resp, err := http.Post(ts.URL+"/encode?qp=16&me=pbm&priority=batch&qoslevel=2", "video/x-yuv4mpeg",
		bytes.NewReader(y4mBody(t, frames)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	readPackets(t, resp.Body)
	id := resp.Trailer.Get(TrailerTrace)

	tr, err := http.Get(ts.URL + "/debug/vcodec/trace?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	var rec obs.Record
	if err := json.NewDecoder(tr.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.Priority != "batch" || rec.Searcher != "pbm" || rec.PinnedLevel != 2 {
		t.Errorf("trace meta %q/%q/%d, want batch/pbm/2", rec.Priority, rec.Searcher, rec.PinnedLevel)
	}
	for _, ev := range rec.Events {
		if ev.QosLevel != 2 {
			t.Errorf("frame %d at level %d, want pinned 2", ev.Index, ev.QosLevel)
		}
	}
}

// TestPoolIdlePolicyMetrics: the pool's idle-policy counters reach
// /metrics as counters with metadata, and a served session moves them — a
// worker that ran a row task either found it spinning or was woken from a
// park it had counted. The frames are 11×12 macroblocks, which the lane
// rule gives a helper lane wherever the pool has two slots (QCIF runs on
// the session goroutine alone and hands the workers nothing).
func TestPoolIdlePolicyMetrics(t *testing.T) {
	frames := video.Generate(video.Foreman, frame.Size{W: 176, H: 192}, 4, 7)
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/encode?qp=16&me=acbm", "video/x-yuv4mpeg", bytes.NewReader(y4mBody(t, frames)))
	if err != nil {
		t.Fatal(err)
	}
	readPackets(t, resp.Body)
	resp.Body.Close()
	samples, types := parseExposition(t, scrapeMetrics(t, ts.URL))
	var moved float64
	for _, name := range []string{"vcodecd_pool_parks_total", "vcodecd_pool_spin_pickups_total"} {
		v, ok := samples[name]
		if !ok || types[name] != "counter" {
			t.Errorf("%s: present=%v TYPE %q, want a counter", name, ok, types[name])
		}
		moved += v
	}
	if moved == 0 {
		t.Error("a session ran on the pool and neither parks nor spin pick-ups moved")
	}
}

// TestQueueWaitObservedEveryFrame: vcodecd_queue_wait_seconds observes
// every analysed frame, the ones whose rows never waited for the pool
// included, so its count equals vcodecd_analysis_seconds' and its
// quantiles are over all frames. Three QCIF sessions on a pool of two
// slots: some frames queue for a slot, most do not.
func TestQueueWaitObservedEveryFrame(t *testing.T) {
	const sessions, n = 3, 6
	body := y4mBody(t, video.Generate(video.Carphone, frame.QCIF, n, 7))
	_, ts := newTestServer(t, Config{PoolWorkers: 2})
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/encode?qp=16&me=acbm", "video/x-yuv4mpeg", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			readPackets(t, resp.Body)
		}()
	}
	wg.Wait()
	samples, _ := parseExposition(t, scrapeMetrics(t, ts.URL))
	analysed := samples["vcodecd_analysis_seconds_count"]
	waited := samples["vcodecd_queue_wait_seconds_count"]
	if analysed != sessions*n || waited != analysed {
		t.Errorf("vcodecd_analysis_seconds_count %v, vcodecd_queue_wait_seconds_count %v: want both %d", analysed, waited, sessions*n)
	}
}
