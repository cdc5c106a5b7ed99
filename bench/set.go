package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/metrics"
)

// A set run: every workload, untraced then traced, each in a fresh child
// process — the harness re-execs itself per run so that GOMAXPROCS, pools,
// the RSS high-water mark and kernel-dispatch state never leak from one
// workload into the next.

// stamp says where and from what a results file came; numbers without it
// describe no particular machine or commit.
type stamp struct {
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	KernelISA  string  `json:"kernel_isa"`
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"run_seconds"`
	Time       string  `json:"time"`
}

func newStamp(seed uint64, seconds float64) stamp {
	s := stamp{
		CPUModel: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), KernelISA: metrics.ActiveKernelISA(),
		Commit: "unknown", Seed: seed, Seconds: seconds, Time: time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// Outside a git checkout (the driver's copy) the commit stays unknown.
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		s.Commit = strings.TrimSpace(string(b))
		st, err := exec.Command("git", "status", "--porcelain").Output()
		s.Dirty = err != nil || len(bytes.TrimSpace(st)) > 0
	}
	return s
}

// workloadResult is one workload's two runs, merged.
type workloadResult struct {
	Why       string             `json:"why"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]value   `json:"end_to_end"`
	PerLayer  map[string]value   `json:"per_layer"`
	Extra     map[string]float64 `json:"extra"`
	Notes     []string           `json:"notes,omitempty"`
}

type setResult struct {
	Stamp     stamp                      `json:"stamp"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// runChild runs one workload once in a child process and parses the result
// line it prints last.
func runChild(ctx context.Context, name string, seed uint64, seconds float64, trace int) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll("out", 0o755); err != nil {
		return nil, err
	}
	detail := filepath.Join("out", fmt.Sprintf("detail-%s-%d.json", name, trace))
	cmd := exec.CommandContext(ctx, self, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-detail", detail)
	// A cancelled set asks the child to stop; the child kills its daemons.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 15 * time.Second
	cmd.Stderr = os.Stderr
	outb, runErr := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(outb), "\n"), "\n")
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	res := &runResult{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		return nil, fmt.Errorf("%s (trace %d): no result line (%v): %v", name, trace, runErr, err)
	}
	var d struct {
		Extra map[string]float64 `json:"extra"`
		Notes []string           `json:"notes"`
	}
	if b, err := os.ReadFile(detail); err == nil && json.Unmarshal(b, &d) == nil {
		res.Extra, res.Notes = d.Extra, d.Notes
	}
	os.Remove(detail)
	return res, nil
}

// runOnce runs every named workload: untraced on each of the seeds seed,
// seed+1, … (as the driver does, the end-to-end figure being the median over
// them), then traced on seed.
func runOnce(ctx context.Context, names []string, seed uint64, seeds int, seconds float64) (*setResult, error) {
	set := &setResult{Stamp: newStamp(seed, seconds), Workloads: map[string]*workloadResult{}}
	for _, name := range names {
		d, _ := defByName(name)
		w := &workloadResult{Why: d.Why, Correct: true, Extra: map[string]float64{}, EndToEnd: map[string]value{}}
		fold := func(r *runResult) {
			w.Correct = w.Correct && r.Correct
			w.Attempted += r.Attempted
			w.Failed += r.Failed
			w.Notes = append(w.Notes, r.Notes...)
			for k, v := range r.Extra {
				w.Extra[k] = v
			}
		}
		perSeed := map[string][]float64{}
		for i := 0; i < seeds; i++ {
			r, err := runChild(ctx, name, seed+uint64(i), seconds, 0)
			if err != nil {
				return nil, err
			}
			fold(r)
			for m, v := range r.Metrics {
				perSeed[m] = append(perSeed[m], v.Value)
			}
		}
		for m, vs := range perSeed {
			w.EndToEnd[m] = value{median(vs), units[m]}
		}
		r, err := runChild(ctx, name, seed, seconds, 1)
		if err != nil {
			return nil, err
		}
		fold(r)
		w.PerLayer = r.Metrics
		set.Workloads[name] = w
	}
	return set, nil
}

// exactLayer lists the per-layer metrics that are counts of deterministic
// work: two runs of the same code on the same seed must agree on them to
// the last digit, and on a clean run the mismatches are 0.
var exactLayer = []string{
	"core.points_per_mb", "core.easy_share", "core.goodmatch_share", "core.critical_share",
	"search.fsbm_points_per_block", "search.pbm_points_per_block",
	"dct.coded_block_share", "entropy.bits_per_block",
	"server.sessions_rejected", "server.sessions_failed", "server.frames_total_mismatch",
	"gateway.attempts_per_session", "gateway.retries", "gateway.bytes_relayed_mismatch",
}

// compare prints, per metric × workload, both values of an A/A pair (each
// the median over the set's seeds), their relative difference and the
// bound, and counts the pairs outside it.
func compare(names []string, a, b *setResult) (bad int) {
	fmt.Printf("\n%-18s %-34s %14s %14s %8s %7s\n", "workload", "metric", "A", "B", "diff", "bound")
	row := func(w, m string, va, vb, bound float64) {
		diff := 0.0
		if va != vb {
			diff = math.Abs(vb-va) / math.Abs(va)
		}
		verdict := ""
		if diff > bound {
			verdict = "  OUTSIDE"
			bad++
		}
		fmt.Printf("%-18s %-34s %14.4f %14.4f %7.2f%% %6.1f%%%s\n", w, m, va, vb, 100*diff, 100*bound, verdict)
	}
	for _, w := range names {
		for _, s := range endToEnd {
			row(w, s.Name, a.Workloads[w].EndToEnd[s.Name].Value, b.Workloads[w].EndToEnd[s.Name].Value, s.Bound)
		}
		for _, m := range exactLayer {
			row(w, m, a.Workloads[w].PerLayer[m].Value, b.Workloads[w].PerLayer[m].Value, 0)
		}
	}
	return bad
}

func runSet(names []string, seed uint64, seeds int, seconds float64, aa bool, out string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	set, err := runOnce(ctx, names, seed, seeds, seconds)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		return err
	}
	s := set.Stamp
	fmt.Printf("\nhost: %s, nproc %d, GOMAXPROCS %d, %s, SAD kernels %s; commit %s (dirty %v); results in bench/%s\n",
		s.CPUModel, s.NumCPU, s.GOMAXPROCS, s.GoVersion, s.KernelISA, s.Commit, s.Dirty, out)
	for _, n := range names {
		if w := set.Workloads[n]; !w.Correct {
			err = fmt.Errorf("%s: incorrect (%d of %d operations failed)", n, w.Failed, w.Attempted)
		}
	}
	if err != nil || !aa {
		return err
	}
	second, err := runOnce(ctx, names, seed, seeds, seconds)
	if err != nil {
		return err
	}
	if bad := compare(names, set, second); bad > 0 {
		return fmt.Errorf("A/A: %d metric × workload pairs outside their bound", bad)
	}
	return nil
}
