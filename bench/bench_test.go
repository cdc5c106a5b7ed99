package main

import (
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/video"
)

func TestPercentile(t *testing.T) {
	xs := make([]float64, 1000) // 1..1000, shuffled deterministically
	for i := range xs {
		xs[(i*387)%1000] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.50, 500}, {0.95, 950}, {0.99, 990}, {1, 1000}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("p%g of 1..1000 = %v, want %v", 100*c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	// The "at least ten samples beyond" rule: p95 needs 200 samples, p99 1000.
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{199, 0.95, false}, {200, 0.95, true}, {999, 0.99, false}, {1000, 0.99, true}} {
		if got := tailSupported(c.n, c.q); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestParseProm(t *testing.T) {
	page := func(frames, hitsA, hitsB int) string {
		return "# HELP vcodecd_frames_total frame packets emitted\n# TYPE vcodecd_frames_total counter\n" +
			"vcodecd_frames_total " + itoa(frames) + "\n" +
			"vcodecd_build_info{goarch=\"amd64\",kernel_isas=\"scalar,swar, avx2\"} 1\n" +
			"vcodecd_frame_pool_hits_total{w=\"176\",h=\"144\",apron=\"16\"} " + itoa(hitsA) + "\n" +
			"vcodecd_frame_pool_hits_total{w=\"88\",h=\"72\",apron=\"8\"} " + itoa(hitsB) + "\n" +
			"vcodecd_analysis_seconds_total 1.5e-3\n"
	}
	before, err := parseProm(strings.NewReader(page(100, 10, 20)))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(page(160, 15, 27)))
	if err != nil {
		t.Fatal(err)
	}
	if got := after.delta(before, "vcodecd_frames_total"); got != 60 {
		t.Errorf("frames delta = %v, want 60", got)
	}
	if got := after.delta(before, "vcodecd_frame_pool_hits_total"); got != 12 {
		t.Errorf("labelled family delta = %v, want 12", got)
	}
	if got := after.sum("vcodecd_analysis_seconds_total"); got != 1.5e-3 {
		t.Errorf("float sample = %v, want 0.0015", got)
	}
	if got := after.sum("vcodecd_frames"); got != 0 {
		t.Errorf("a name prefix matched another family: %v", got)
	}
	for _, bad := range []string{"vcodecd_frames_total\n", "x{a=\"b c\"}\n", "x notanumber\n"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) accepted a malformed sample", bad)
		}
	}
}

func itoa(n int) string { b, _ := json.Marshal(n); return string(b) }

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "frame", Parent: -1, Start: 0, End: 100},
		{Name: "analysis", Parent: 0, Start: 10, End: 60},
		{Name: "entropy", Parent: 0, Start: 50, End: 80}, // overlaps analysis: the cover is a union
		{Name: "mb", Parent: 1, Start: 20, End: 30},
		{Name: "late", Parent: 0, Start: 90, End: 120}, // clipped to the parent
		{Name: "open", Parent: 0, Start: 5, End: -1},   // never closed: ignored
	}
	selfTimes(spans)
	for i, want := range []int64{20, 40, 30, 10, 30} {
		if spans[i].Self != want {
			t.Errorf("%s self = %d, want %d", spans[i].Name, spans[i].Self, want)
		}
	}
	tr := newTracer()
	root := tr.begin("root", "x", -1)
	kid := tr.begin("kid", "x", root)
	time.Sleep(time.Millisecond)
	if d := tr.end(kid, 7); d < int64(time.Millisecond) {
		t.Errorf("span lasted %d ns across a 1 ms sleep", d)
	}
	tr.end(root, 1)
	if ns, n := tr.total("kid"); n != 7 || ns <= 0 || tr.perUnit("kid") != float64(ns)/7 {
		t.Errorf("total(kid) = %d ns, %d units", ns, n)
	}
}

func TestClipDeterminism(t *testing.T) {
	d := &workloadDef{Size: frame.SQCIF, Frames: 3, Cells: []cell{{video.Carphone, 24, "acbm"}, {video.Foreman, 24, "acbm"}}}
	sum := func(seed uint64) [sha256.Size]byte {
		cs, err := buildClips(d, seed, true)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, c := range d.Cells {
			h.Write(cs.y4m[c.Profile])
		}
		return [sha256.Size]byte(h.Sum(nil))
	}
	if sum(7) != sum(7) {
		t.Error("the same seed gave different clips")
	}
	if sum(7) == sum(8) {
		t.Error("different seeds gave the same clips")
	}
}

// benchmarkJSON is the driver's view of the benchmark.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestSpecMatchesBenchmarkJSON keeps the code's tables and BENCHMARK.json
// from drifting: same names in the same order, same units, directions,
// bounds and reasons, and every name within the driver's alphabet.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: malformed unit %q", n, u)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", n, better)
		}
	}
	if len(bj.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d defined", len(bj.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		check(w.Name, "", "")
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, clips.go %q: %q", i, bj.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go", len(bj.EndToEnd), len(endToEnd))
	}
	for i, s := range endToEnd {
		check(s.Name, s.Unit, s.Better)
		if j := bj.EndToEnd[i]; j.Name != s.Name || j.Unit != s.Unit || j.Better != s.Better || j.Bound != s.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, spec.go %+v", i, j, s)
		}
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go", len(bj.PerLayer), len(perLayer))
	}
	for i, s := range perLayer {
		check(s.Name, s.Unit, s.Better)
		if j := bj.PerLayer[i]; j.Name != s.Name || j.Unit != s.Unit || j.Better != s.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, spec.go %+v", i, j, s)
		}
	}
	for _, m := range exactLayer {
		if _, ok := units[m]; !ok {
			t.Errorf("exactLayer names %q, which spec.go does not define", m)
		}
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" || bj.RunSeconds < 1 || bj.RunSeconds > 60 || len(bj.Command) == 0 {
		t.Errorf("BENCHMARK.json: paths %v, run_seconds %d, command %v", bj.Paths, bj.RunSeconds, bj.Command)
	}
}

// TestSmoke runs every workload at toy size — four frames a clip, measured
// for 0 s (so the minimum passes, one session per client), the daemons
// exec'd for real — and requires every
// metric BENCHMARK.json lists, finite and with its unit, from the run that
// owes it. The numbers mean nothing; the plumbing must all be there.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the daemons")
	}
	bj := readBenchmarkJSON(t)
	for _, w := range bj.Workloads {
		d, ok := defByName(w.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which is not defined", w.Name)
		}
		for _, trace := range []bool{false, true} {
			toy := *d
			toy.Frames = 4
			res, err := runWorkload(&toy, options{seed: 2005, trace: trace})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed; notes %v", w.Name, trace, res.Correct, res.Failed, res.Attempted, res.Notes)
			}
			want := map[string]string{}
			for _, m := range bj.EndToEnd {
				if !trace {
					want[m.Name] = m.Unit
				}
			}
			for _, m := range bj.PerLayer {
				if trace {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for n, u := range want {
				v, ok := res.Metrics[n]
				if !ok || v.Unit != u || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s (trace %v): metric %s = %+v (present %v), want a finite value in %s", w.Name, trace, n, v, ok, u)
				}
				if !trace && v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, n)
				}
			}
		}
	}
	if _, err := os.Stat("out/trace-fleet_live.json"); err != nil {
		t.Errorf("the traced run left no trace file: %v", err)
	}
	live.Lock()
	defer live.Unlock()
	if len(live.m) != 0 {
		t.Errorf("%d daemons still registered after the runs", len(live.m))
	}
}
