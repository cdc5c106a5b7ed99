// Command bench is the repository's benchmark: five workloads at the
// paper's real operating points, end-to-end metrics from untraced runs and
// per-layer metrics from a traced run, with every output verified.
//
//	go run . -workload W -seed N -seconds S -trace 0|1   one run of one workload
//	go run . [-workload a,b] [-seed N] [-seeds K] [-out file]   the whole set, one child process per run
//	go run . -aa [-seeds K]                                     the whole set twice, compared against the bounds
//
// Run it from this directory (bench/run.sh does, with a build cache inside
// the checkout). See README.md for the metric glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/metrics"
)

// options are one run's settings.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
}

// setupReps is how often set-up is repeated per run; setup_s is the median,
// so one slow repetition (a cold page cache, a late daemon) does not decide
// the figure.
const setupReps = 3

// runTimeout bounds one run of one workload; past it every daemon's
// process group is killed and the run fails.
const runTimeout = 170 * time.Second

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the outcome of one run of one workload. The JSON form is the
// line the driver reads.
type runResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// Extra carries ungated detail (p99, sample counts, build time) into the
	// results file; Notes are warnings worth a human's attention.
	Extra map[string]float64 `json:"-"`
	Notes []string           `json:"-"`
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, s := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		m[s.Name] = s.Unit
	}
	return m
}()

func (r *runResult) set(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("bench: metric " + name + " is not in spec.go")
	}
	r.Metrics[name] = value{v, u}
}

func (r *runResult) note(format string, a ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, a...))
}

// setLatency reports prefix_p50 and prefix_p95 of samples, p99 as ungated
// detail, and says so when the tail is only a handful of outliers.
func (r *runResult) setLatency(prefix string, samples []float64) {
	r.set(prefix+"_p50", median(samples))
	r.set(prefix+"_p95", percentile(samples, 0.95))
	r.Extra[prefix+"_p99"] = percentile(samples, 0.99)
	r.Extra[prefix+"_samples"] = float64(len(samples))
	if !tailSupported(len(samples), 0.95) {
		r.note("%s: %d samples leave fewer than %d beyond p95", prefix, len(samples), minTailSamples)
	}
}

// env is a workload set up and ready to measure.
type env struct {
	d     *workloadDef
	clips *clipSet
	refs  []*reference
	fleet *fleet // nil for in-process workloads
	// speed, when set, is sampled beside every timed operation (calib.go).
	speed *hostSpeed
}

// newEnv does one complete set-up: clip generation and Y4M serialisation,
// the verified reference encode of every cell, daemon boot, and a warm-up
// over every cell so pools, lazy tables and connections exist before
// anything is timed.
func newEnv(d *workloadDef, opt options, binDir string) (e *env, err error) {
	e = &env{d: d}
	if e.clips, err = buildClips(d, opt.seed, opt.trace || d.Backends > 0); err != nil {
		return nil, err
	}
	for _, c := range d.Cells {
		ref, err := makeReference(d, c, e.clips.frames[c.Profile], opt.trace)
		if err != nil {
			return nil, err
		}
		e.refs = append(e.refs, ref)
	}
	if d.Backends == 0 {
		return e, e.pass(&passes{}, 0)
	}
	if e.fleet, err = startFleet(d, binDir); err != nil {
		return nil, err
	}
	// Warm-up is unpaced even for the paced workload: it exists to touch
	// code paths and pools, and a camera-rate session would take seconds.
	warm := *d
	warm.Paced = false
	w := &env{d: &warm, clips: e.clips, refs: e.refs}
	for round := 0; round < 2; round++ { // two sessions per client: every backend sees one
		for _, s := range w.runLoad(e.fleet.entry, 0, nil).sessions {
			if s.err != nil {
				e.fleet.kill()
				return nil, fmt.Errorf("warm-up session: %w", s.err)
			}
		}
	}
	return e, nil
}

func (e *env) close() error {
	if e.fleet == nil {
		return nil
	}
	return e.fleet.stop()
}

// runWorkload is one run: refuse an unfit host, set up (repeatedly),
// measure or profile, and verify.
func runWorkload(d *workloadDef, opt options) (res *runResult, err error) {
	res = &runResult{Metrics: map[string]value{}, Extra: map[string]float64{}, Correct: true}
	if note := metrics.KernelInitNote(); note != "" {
		return nil, fmt.Errorf("SAD kernel selection: %s", note)
	}
	if runtime.NumCPU() < d.Procs {
		return nil, fmt.Errorf("%s needs %d cores and this host has %d: a parallel point on fewer cores is not a measurement", d.Name, d.Procs, runtime.NumCPU())
	}
	if d.Backends == 0 {
		// The encode happens in this process, so its parallelism is the
		// workload's; daemons size themselves.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(d.Procs))
	} else if runtime.GOMAXPROCS(0) < d.Procs {
		return nil, fmt.Errorf("%s needs GOMAXPROCS >= %d, have %d", d.Name, d.Procs, runtime.GOMAXPROCS(0))
	}
	watchdog := time.AfterFunc(runTimeout, func() {
		killAllDaemons()
		fmt.Fprintf(os.Stderr, "bench: %s exceeded %v; daemons killed\n", d.Name, runTimeout)
		os.Exit(3)
	})
	defer watchdog.Stop()

	var binDir string
	if d.Backends > 0 {
		var dur time.Duration
		if binDir, dur, err = buildDaemons(); err != nil {
			return nil, err
		}
		res.Extra["build_s"] = dur.Seconds()
	}

	var e *env
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		// A set-up spans whatever moods the host goes through, so it is
		// scaled by the host's typical speed over that set-up.
		speed := &hostSpeed{}
		stop := speed.watch(5 * time.Millisecond)
		t := time.Now()
		e, err = newEnv(d, opt, binDir)
		raw := time.Since(t).Seconds()
		stop()
		if err != nil {
			return nil, err
		}
		setups = append(setups, raw*speed.typical())
		res.Extra["setup_s_unscaled"] = raw
		if opt.trace {
			break // a traced run reports no setup_s
		}
	}
	defer func() {
		if cerr := e.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	if opt.trace {
		tr := newTracer()
		budget := opt.seconds
		if e.fleet != nil {
			budget /= 2 // the daemons' half follows
		}
		if err := e.profileInProcess(res, tr, budget); err != nil {
			return nil, err
		}
		if e.fleet != nil {
			if err := e.profileServing(res, tr, budget); err != nil {
				return nil, err
			}
		}
		for _, s := range perLayer {
			if _, ok := res.Metrics[s.Name]; !ok {
				res.set(s.Name, 0) // the layer is not on this workload's path
			}
		}
		path := fmt.Sprintf("out/trace-%s.json", d.Name)
		if err := tr.write(path, d.Name); err != nil {
			return nil, err
		}
		res.note("trace written to bench/%s (%d spans)", path, len(tr.spans))
	} else {
		res.set("setup_s", median(setups))
		if e.fleet == nil {
			if err := e.measureInProcess(res, opt.seconds); err != nil {
				return nil, err
			}
			rss, err := procStatusMB(os.Getpid(), "VmHWM")
			if err != nil {
				return nil, err
			}
			res.set("peak_rss_mb", rss)
		} else if err := e.measureServing(res, opt.seconds); err != nil {
			return nil, err
		}
	}
	if res.Failed > 0 || res.Attempted == 0 {
		res.Correct = false
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	return res, nil
}

// print lists every metric by name with its unit, then the notes.
func (r *runResult) print(w *os.File, workload string) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-18s %-36s %14.4f %s\n", workload, n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	extras := make([]string, 0, len(r.Extra))
	for n := range r.Extra {
		extras = append(extras, n)
	}
	sort.Strings(extras)
	for _, n := range extras {
		fmt.Fprintf(w, "%-18s (detail) %-27s %14.4f\n", workload, n, r.Extra[n])
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "%-18s note: %s\n", workload, n)
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run; a comma-separated list or empty runs the set, one child process per run")
		seed     = flag.Uint64("seed", 2005, "clip generator seed (reaches nothing else)")
		seconds  = flag.Float64("seconds", 14, "how long one run measures (BENCHMARK.json's run_seconds)")
		trace    = flag.Int("trace", 0, "1 = the traced run (per-layer metrics), 0 = untraced (end-to-end metrics)")
		aa       = flag.Bool("aa", false, "run the set twice and compare every end-to-end metric against its bound")
		seeds    = flag.Int("seeds", 1, "set runs: untraced runs per workload, on seeds seed, seed+1, …; the median is reported")
		out      = flag.String("out", "out/results.json", "results file of a set run")
		detail   = flag.String("detail", "", "also write this run's ungated detail as JSON here (set runs use it)")
	)
	flag.Parse()
	if d, ok := defByName(*workload); ok {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			killAllDaemons()
			os.Exit(130)
		}()
		res, err := runWorkload(d, options{seed: *seed, seconds: *seconds, trace: *trace == 1})
		if err != nil {
			killAllDaemons()
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", d.Name, err)
			os.Exit(1)
		}
		res.print(os.Stdout, d.Name)
		if *detail != "" {
			b, _ := json.Marshal(struct {
				Extra map[string]float64 `json:"extra"`
				Notes []string           `json:"notes"`
			}{res.Extra, res.Notes})
			if err := os.WriteFile(*detail, b, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				os.Exit(1)
			}
		}
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(2)
		}
		return
	}

	var names []string
	for _, n := range strings.Split(*workload, ",") {
		if n = strings.TrimSpace(n); n == "" {
			continue
		}
		if _, ok := defByName(n); !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", n)
			os.Exit(1)
		}
		names = append(names, n)
	}
	if names == nil {
		for _, d := range workloadDefs {
			names = append(names, d.Name)
		}
	}
	if err := runSet(names, *seed, max(1, *seeds), *seconds, *aa, *out); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}
