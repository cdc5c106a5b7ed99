// Command acbmbench regenerates the paper's evaluation artifacts: the
// Fig. 4 preliminary study, the Figs. 5/6 rate-distortion curves and the
// Table 1 complexity numbers, plus the §4 headline summary, and checks
// the paper's claims table (experiment.Claims) on every seed of
// experiment.Seeds. Speed is not measured here: bench/ (BENCHMARK.json)
// is the one measurement stack.
//
// Usage:
//
//	acbmbench -experiment all            # every paper experiment (a few minutes)
//	acbmbench -experiment table1         # Table 1 only
//	acbmbench -experiment fig5           # RD curves at 30 fps
//	acbmbench -experiment fig6           # RD curves at 10 fps
//	acbmbench -experiment fig4           # the MV-error study
//	acbmbench -experiment fig4 -csv points.csv
//	                                     # …and its raw scatter points
//	acbmbench -experiment headline       # §4 claims
//	acbmbench -experiment seeds          # every claim row on every seed: one
//	                                     # PASS/FAIL line per (row, seed), exit 1
//	                                     # on any FAIL; -size, -frames, -qps and
//	                                     # α/β/γ replace every row's own setting,
//	                                     # -seed does not apply
//	acbmbench -frames 30 -qps 30,24,18   # reduced sweep for quick runs
//	acbmbench -alpha 2000 -beta 4        # explore the quality/cost knobs
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/frame"
	"repro/internal/video"
)

func main() {
	var (
		expName  = flag.String("experiment", "all", "experiment to run: fig4|fig5|fig6|table1|headline|map|seeds|all (seeds: the claims table on every seed)")
		frames   = flag.Int("frames", experiment.DefaultFrames, "sequence length at 30 fps")
		sizeName = flag.String("size", "qcif", "frame format: sqcif|qcif|cif")
		seed     = flag.Uint64("seed", experiment.DefaultSeed, "texture seed (not 0)")
		qpsArg   = flag.String("qps", "", "comma-separated Qp list (default 30,28,...,16)")
		alpha    = flag.Int("alpha", core.DefaultParams.Alpha, "ACBM α parameter")
		beta     = flag.Int("beta", core.DefaultParams.Beta, "ACBM β parameter")
		gammaNum = flag.Int("gamma-num", core.DefaultParams.GammaNum, "ACBM γ numerator")
		gammaDen = flag.Int("gamma-den", core.DefaultParams.GammaDen, "ACBM γ denominator")
		csvPath  = flag.String("csv", "", "fig4: also write the raw (Intra_SAD, SAD_deviation, error) scatter points to this CSV file")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file (go tool pprof)")
		memProf  = flag.String("memprofile", "", "write a heap profile (after the experiments) to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		// fatal() exits through os.Exit, so the flush must run on the
		// error path too — otherwise the profile is left truncated.
		flushProfiles = append(flushProfiles, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
		defer runFlushProfiles()
	}
	if *memProf != "" {
		path := *memProf
		flushProfiles = append(flushProfiles, func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "acbmbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the pools so the profile shows live state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "acbmbench: memprofile:", err)
			}
		})
		defer runFlushProfiles()
	}

	if *seed == 0 {
		fatal(fmt.Errorf("-seed 0 is not a seed (the experiments read it as %d)", experiment.DefaultSeed))
	}
	size, err := frame.SizeByName(*sizeName)
	if err != nil {
		fatal(err)
	}
	qps, err := parseQps(*qpsArg)
	if err != nil {
		fatal(err)
	}
	params := core.Params{Alpha: *alpha, Beta: *beta, GammaNum: *gammaNum, GammaDen: *gammaDen}
	if err := params.Validate(); err != nil {
		fatal(err)
	}

	ran := false
	run := func(name string, f func() error) {
		ran = true
		fmt.Printf("=== %s ===\n", name)
		if err := f(); err != nil {
			fatal(err)
		}
		fmt.Println()
	}

	want := func(name string) bool { return *expName == "all" || *expName == name }
	if want("fig4") {
		run("Figure 4: MV-error study", func() error {
			res, err := experiment.RunMVStudy(experiment.MVStudyConfig{Size: size, Seed: *seed})
			if err != nil {
				return err
			}
			fmt.Print(experiment.FormatMVStudy(res))
			fmt.Println()
			fmt.Print(experiment.FormatMVStudyPanels(res, 56, 10))
			if *csvPath == "" {
				return nil
			}
			return writeScatterCSV(*csvPath, res)
		})
	}
	if want("map") {
		run("ACBM decision maps (frame 50, Qp 16)", func() error {
			for _, prof := range video.Profiles {
				dm, err := experiment.RunDecisionMap(prof, size, 50, params, *seed)
				if err != nil {
					return err
				}
				fmt.Printf("%s ('.'=easy, 'g'=good-match, 'C'=critical/FSBM):\n%s\n", prof, dm)
			}
			return nil
		})
	}
	var t1 *experiment.Table1Result
	if want("table1") || want("headline") {
		run("Table 1: ACBM complexity", func() error {
			t1, err = experiment.RunTable1(experiment.Table1Config{
				Size: size, Frames: *frames, Qps: qps, Params: params, Seed: *seed,
			})
			if err != nil {
				return err
			}
			fmt.Print(experiment.FormatTable1(t1))
			return nil
		})
	}
	// A slice, not a map: Fig. 5 prints before Fig. 6.
	for _, fig := range []struct {
		name string
		dec  int
	}{{"fig5", 1}, {"fig6", 3}} {
		if !want(fig.name) && !want("headline") {
			continue
		}
		dec := fig.dec
		run(fmt.Sprintf("Figure %s: RD curves, %v@%dfps", fig.name[3:], size, 30/dec), func() error {
			for _, prof := range video.Profiles {
				cfg := experiment.RDConfig{
					Profile: prof, Size: size, Frames: *frames,
					Decimation: dec, Qps: qps, Params: params, Seed: *seed,
				}
				curves, err := experiment.RDSweep(cfg, nil)
				if err != nil {
					return err
				}
				fmt.Print(experiment.FormatRDCurves(experiment.ProfileTitle(prof, size, dec), curves))
				fmt.Println()
				if want("headline") {
					if h, err := experiment.ComputeHeadline(cfg, curves, t1); err == nil {
						fmt.Println("headline:", h)
					} else {
						fmt.Println("headline: n/a:", err)
					}
					fmt.Println()
				}
			}
			return nil
		})
	}
	if want("seeds") {
		run("Claims table on every seed", func() error {
			tb := experiment.Testbed{Qps: qps, Params: params}
			flag.Visit(func(f *flag.Flag) {
				switch f.Name {
				case "size":
					tb.Size = size
				case "frames":
					tb.Frames = *frames
				}
			})
			fmt.Printf("%d rows, seeds %v, testbed %+v (zero fields: each row's own)\n",
				len(experiment.Claims), experiment.Seeds, tb)
			if n := experiment.VerifySeeds(os.Stdout, experiment.Claims, experiment.Seeds, tb); n > 0 {
				return fmt.Errorf("%d (row, seed) verdicts FAIL", n)
			}
			return nil
		})
	}
	if !ran {
		fatal(fmt.Errorf("unknown experiment %q", *expName))
	}
}

func parseQps(arg string) ([]int, error) {
	if arg == "" {
		return nil, nil // experiment defaults
	}
	var qps []int
	for _, part := range strings.Split(arg, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad Qp %q: %w", part, err)
		}
		if v < 1 || v > 31 {
			return nil, fmt.Errorf("Qp %d out of range 1..31", v)
		}
		qps = append(qps, v)
	}
	return qps, nil
}

// writeScatterCSV dumps the Fig. 4 study's raw scatter points for
// external plotting, one row per (profile, global MV, macroblock) sample.
func writeScatterCSV(path string, res *experiment.MVStudyResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// bufio.Writer keeps the first write error and Flush returns it.
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "profile,intra_sad,sad_deviation,sad_min,error")
	for _, s := range res.Samples {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n",
			strings.ReplaceAll(s.Profile.String(), " ", ""), s.IntraSAD, s.Deviation, s.SADMin, s.Err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d scatter points to %s\n", len(res.Samples), path)
	return nil
}

// flushProfiles finalises any -cpuprofile/-memprofile outputs. It runs
// both on normal return (deferred in main) and from fatal, since os.Exit
// skips defers; runFlushProfiles makes the second invocation a no-op.
var flushProfiles []func()

func runFlushProfiles() {
	fs := flushProfiles
	flushProfiles = nil
	for _, f := range fs {
		f()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "acbmbench:", err)
	runFlushProfiles()
	os.Exit(1)
}
