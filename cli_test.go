package repro

// End-to-end tests of the command-line tools: each binary is built once
// per test process and driven through its primary flows against a temp
// directory. The daemons' rows are in daemon_test.go.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/experiment"
)

// toolDir holds the binaries buildTool compiles: one build per tool per
// test process, removed when the tests end.
var (
	toolDir string
	toolMu  sync.Mutex
	tools   = map[string]string{}
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "repro-tools-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	toolDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// buildTool returns the path of cmd/name compiled from this checkout,
// building it on the first call in the test process.
func buildTool(t *testing.T, name string) string {
	t.Helper()
	toolMu.Lock()
	defer toolMu.Unlock()
	if bin, ok := tools[name]; ok {
		return bin
	}
	bin := filepath.Join(toolDir, name)
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	tools[name] = bin
	return bin
}

// runTool execs bin, requires exit status 0 and returns its output,
// which it logs on failure.
func runTool(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLIPipelineSeqgenVcodec(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	seqgen := buildTool(t, "seqgen")
	vcodec := buildTool(t, "vcodec")
	dir := t.TempDir()
	y4m := filepath.Join(dir, "clip.y4m")
	acbm := filepath.Join(dir, "clip.acbm")
	dec := filepath.Join(dir, "dec.y4m")

	out := runTool(t, seqgen, "-profile", "foreman", "-frames", "8", "-size", "sqcif", "-o", y4m)
	if !strings.Contains(out, "wrote 8 frames") {
		t.Fatalf("seqgen output: %s", out)
	}
	out = runTool(t, vcodec, "encode", "-i", y4m, "-o", acbm, "-qp", "14", "-me", "acbm", "-entropy", "arith")
	if !strings.Contains(out, "encoded 8 frames") || !strings.Contains(out, "ACBM/arith") {
		t.Fatalf("vcodec encode output: %s", out)
	}
	out = runTool(t, vcodec, "info", "-i", acbm)
	if !strings.Contains(out, "8 frames") || !strings.Contains(out, "arith") {
		t.Fatalf("vcodec info output: %s", out)
	}
	out = runTool(t, vcodec, "decode", "-i", acbm, "-o", dec)
	if !strings.Contains(out, "decoded 8 frames") {
		t.Fatalf("vcodec decode output: %s", out)
	}
	// The decoded file must be a valid Y4M of the right size.
	fi, err := os.Stat(dec)
	if err != nil {
		t.Fatal(err)
	}
	wantMin := int64(8 * (128*96 + 2*64*48)) // raw 4:2:0 payload
	if fi.Size() < wantMin {
		t.Fatalf("decoded y4m only %d bytes, want > %d", fi.Size(), wantMin)
	}
}

func TestCLISeqgenSingleFramePGM(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	seqgen := buildTool(t, "seqgen")
	pgm := filepath.Join(t.TempDir(), "f.pgm")
	runTool(t, seqgen, "-profile", "missamerica", "-frame", "3", "-size", "sqcif", "-o", pgm)
	data, err := os.ReadFile(pgm)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "P5\n128 96\n255\n") {
		t.Fatalf("not a PGM header: %q", data[:20])
	}
}

func TestCLIAcbmbenchFig4CSV(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	acbmbench := buildTool(t, "acbmbench")
	csv := filepath.Join(t.TempDir(), "fig4.csv")
	out := runTool(t, acbmbench, "-experiment", "fig4", "-size", "sqcif", "-csv", csv)
	if !strings.Contains(out, "Figure 4 study") {
		t.Fatalf("acbmbench fig4 output: %s", out)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "profile,intra_sad,sad_deviation,sad_min,error" {
		t.Fatalf("csv header: %q", lines[0])
	}
	if len(lines) < 100 {
		t.Fatalf("csv has only %d rows", len(lines))
	}
}

func TestCLIAcbmbenchMiniExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	acbmbench := buildTool(t, "acbmbench")
	out := runTool(t, acbmbench, "-experiment", "table1", "-size", "sqcif", "-frames", "8", "-qps", "30,16")
	for _, want := range []string{"Table 1", "Foreman", "reduction"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 output missing %q:\n%s", want, out)
		}
	}
	out = runTool(t, acbmbench, "-experiment", "map", "-size", "sqcif")
	if !strings.Contains(out, "critical/FSBM") {
		t.Fatalf("map output:\n%s", out)
	}
	out = runTool(t, acbmbench, "-experiment", "headline", "-size", "sqcif", "-frames", "8", "-qps", "30,16")
	fig5, fig6 := strings.Index(out, "=== Figure 5: RD curves, SQCIF@30fps"), strings.Index(out, "=== Figure 6: RD curves, SQCIF@10fps")
	if fig5 < 0 || fig6 < fig5 || !strings.Contains(out, "Foreman sequence, SQCIF@10fps") {
		t.Fatalf("headline: want Figure 5 then Figure 6, titled SQCIF:\n%s", out)
	}

	// The claims table on every seed, at a testbed none of its pins hold
	// on: one verdict per (row, seed), and a failing exit exactly when a
	// verdict fails.
	raw, err := exec.Command(acbmbench, "-experiment", "seeds", "-size", "sqcif", "-frames", "8", "-qps", "30,16").CombinedOutput()
	out = string(raw)
	want := 0
	for _, c := range experiment.Claims {
		if c.Pinned {
			want++
		} else {
			want += len(experiment.Seeds)
		}
	}
	verdicts, failed := 0, strings.Contains(out, "\nFAIL ")
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "PASS ") || strings.HasPrefix(line, "FAIL ") {
			verdicts++
		}
	}
	if verdicts != want || (err != nil) != failed {
		t.Fatalf("seeds: %d verdicts (want %d), exit %v, FAIL lines %v:\n%s", verdicts, want, err, failed, out)
	}
}

func TestCLIRejectsBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	acbmbench := buildTool(t, "acbmbench")
	for _, name := range []string{"nope", "pareto", "loss", "hw", "dispatch"} {
		if out, err := exec.Command(acbmbench, "-experiment", name).CombinedOutput(); err == nil || !strings.Contains(string(out), "unknown experiment") {
			t.Fatalf("unknown experiment %q accepted:\n%s", name, out)
		}
	}
	if out, err := exec.Command(acbmbench, "-experiment", "table1", "-seed", "0").CombinedOutput(); err == nil || !strings.Contains(string(out), "-seed 0") {
		t.Fatalf("-seed 0 accepted:\n%s", out)
	}
	if out, err := exec.Command(acbmbench, "-qps", "99").CombinedOutput(); err == nil {
		t.Fatalf("illegal Qp accepted:\n%s", out)
	}
	vcodec := buildTool(t, "vcodec")
	if out, err := exec.Command(vcodec, "encode").CombinedOutput(); err == nil {
		t.Fatalf("missing -i/-o accepted:\n%s", out)
	}
	// Flag validation must be the failure, not the (nonexistent) input
	// file — assert on the specific message.
	rejects := func(wantMsg string, args ...string) {
		t.Helper()
		out, err := exec.Command(vcodec, args...).CombinedOutput()
		if err == nil {
			t.Fatalf("%v accepted:\n%s", args, out)
		}
		if !strings.Contains(string(out), wantMsg) {
			t.Fatalf("%v failed without %q:\n%s", args, wantMsg, out)
		}
	}
	rejects("-kbps must be positive", "encode", "-i", "x.y4m", "-o", "x.acbm", "-kbps", "-5")
	rejects("-budget must be positive", "encode", "-i", "x.y4m", "-o", "x.acbm", "-budget", "-1")
	rejects("-kbps must be positive", "encode", "-i", "x.y4m", "-o", "x.acbm", "-kbps", "NaN")
	rejects("-budget must be positive", "encode", "-i", "x.y4m", "-o", "x.acbm", "-budget", "NaN")
	rejects("-budget must be positive", "encode", "-i", "x.y4m", "-o", "x.acbm", "-budget", "Inf")
	rejects("-budget requires -me acbm", "encode", "-i", "x.y4m", "-o", "x.acbm", "-budget", "150", "-me", "fsbm")
}

// TestCLIRateControlComposesWithParallelism drives the refactored rate
// path end to end: -kbps together with -workers/-pipeline (historically
// silently serialised) must encode, report the target, and produce a file
// byte-identical to the single-threaded rate-controlled encode.
func TestCLIRateControlComposesWithParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	seqgen := buildTool(t, "seqgen")
	vcodec := buildTool(t, "vcodec")
	dir := t.TempDir()
	y4m := filepath.Join(dir, "clip.y4m")
	serial := filepath.Join(dir, "serial.acbm")
	par := filepath.Join(dir, "par.acbm")

	runTool(t, seqgen, "-profile", "foreman", "-frames", "8", "-size", "sqcif", "-o", y4m)
	runTool(t, vcodec, "encode", "-i", y4m, "-o", serial, "-qp", "16", "-kbps", "60", "-workers", "1")
	out := runTool(t, vcodec, "encode", "-i", y4m, "-o", par, "-qp", "16", "-kbps", "60", "-workers", "4", "-pipeline")
	if !strings.Contains(out, "rate control: target 60.0 kbit/s") {
		t.Fatalf("vcodec encode output missing rate line: %s", out)
	}
	a, err := os.ReadFile(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(par)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("rate-controlled parallel encode differs from serial (%d vs %d bytes)", len(b), len(a))
	}
	dec := filepath.Join(dir, "dec.y4m")
	runTool(t, vcodec, "decode", "-i", par, "-o", dec)
}

// TestCLIPacketizedLossConcealment drives the -packets transport end to
// end: encode, drop a P-frame record from the file (a lossy channel),
// and check decode conceals the hole instead of erroring while info
// reports the drop.
func TestCLIPacketizedLossConcealment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	seqgen := buildTool(t, "seqgen")
	vcodec := buildTool(t, "vcodec")
	dir := t.TempDir()
	y4m := filepath.Join(dir, "clip.y4m")
	pkt := filepath.Join(dir, "clip.pkt")
	lossy := filepath.Join(dir, "lossy.pkt")
	dec := filepath.Join(dir, "dec.y4m")

	runTool(t, seqgen, "-profile", "carphone", "-frames", "9", "-size", "sqcif", "-o", y4m)
	out := runTool(t, vcodec, "encode", "-i", y4m, "-o", pkt, "-qp", "14", "-gop", "4", "-packets", "-workers", "2", "-pipeline")
	if !strings.Contains(out, "(packets)") {
		t.Fatalf("vcodec encode output: %s", out)
	}

	// Rewrite the file without frame packet 2 (record index 2), duplicate
	// record 4 (a relay hiccup) and splice in a record with an absurd
	// index (a corrupted index varint) — decode must conceal the drop and
	// discard the untrustworthy records, never error or balloon output.
	data, err := os.ReadFile(pkt)
	if err != nil {
		t.Fatal(err)
	}
	pr := codec.NewPacketReader(bytes.NewReader(data))
	var buf bytes.Buffer
	pw := codec.NewPacketWriter(&buf)
	for {
		idx, payload, err := pr.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if idx == 2 {
			continue // the channel ate this one
		}
		if err := pw.WritePacket(idx, payload); err != nil {
			t.Fatal(err)
		}
		if idx == 4 {
			if err := pw.WritePacket(idx, payload); err != nil { // duplicate
				t.Fatal(err)
			}
			if err := pw.WritePacket(1<<30, payload); err != nil { // corrupt index
				t.Fatal(err)
			}
		}
	}
	if err := os.WriteFile(lossy, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	out = runTool(t, vcodec, "info", "-i", lossy, "-packets")
	if !strings.Contains(out, "8 frame packets (1 dropped, 2 untrustworthy records ignored)") {
		t.Fatalf("vcodec info output: %s", out)
	}
	out = runTool(t, vcodec, "decode", "-i", lossy, "-o", dec, "-packets")
	if !strings.Contains(out, "decoded 9 frames") || !strings.Contains(out, "1 concealed") {
		t.Fatalf("vcodec decode output: %s", out)
	}
}
