package experiment

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"strings"

	"repro/internal/dct"
	"repro/internal/frame"
	"repro/internal/metrics"
)

// DispatchReport renders the SAD kernel dispatch state (detected CPU
// features, registered tiers, the active tier) and runs a one-shot
// sanity probe: every registered tier computes SAD, SADCapped, IntraSAD
// (the fused 16×16 kernel over a grid of anchors, and an 8×8 block), the
// half-pel phases and ring, a SADBest window scan, the residual-energy SSE,
// the zero-block gate's six energies per macroblock, the prediction fetch
// (both block shapes, all four phases, destination guard band included) and
// the residual row pass (every float64 bit pattern) on fixed blocks and
// must agree with the scalar reference bit-for-bit. It is the cheap
// CI-time version of the full differential suite in internal/metrics —
// catching a machine whose dispatch picked a broken tier (or silently
// fell back to scalar) before any benchmark numbers get trusted. The
// returned error is non-nil when the dispatch state is inconsistent or a
// probe mismatches.
func DispatchReport() (string, error) {
	var b strings.Builder
	tiers := metrics.KernelISAs()
	active := metrics.ActiveKernelISA()
	fmt.Fprintf(&b, "cpu features: %v\n", metrics.DetectedCPUFeatures())
	fmt.Fprintf(&b, "kernel tiers: %v (fallback order, best last)\n", tiers)
	fmt.Fprintf(&b, "active tier:  %s\n", active)
	if env := os.Getenv(metrics.KernelEnvVar); env != "" {
		fmt.Fprintf(&b, "env override: %s=%s\n", metrics.KernelEnvVar, env)
	}

	var errs []string
	if note := metrics.KernelInitNote(); note != "" {
		fmt.Fprintf(&b, "init note:    %s\n", note)
		errs = append(errs, fmt.Sprintf("kernel init degraded: %s", note))
	}
	if len(tiers) < 2 || tiers[0] != "scalar" || tiers[1] != "swar" {
		errs = append(errs, fmt.Sprintf("tier list %v does not start with scalar, swar", tiers))
	}
	has := func(list []string, s string) bool {
		for _, v := range list {
			if v == s {
				return true
			}
		}
		return false
	}
	for _, feat := range metrics.DetectedCPUFeatures() {
		if (feat == "sse2" || feat == "avx2") && !has(tiers, feat) {
			errs = append(errs, fmt.Sprintf("CPU reports %s but no %s tier registered", feat, feat))
		}
	}
	if !has(tiers, active) {
		errs = append(errs, fmt.Sprintf("active tier %q not in registered tiers %v", active, tiers))
	}
	if os.Getenv(metrics.KernelEnvVar) == "" && active != tiers[len(tiers)-1] {
		errs = append(errs, fmt.Sprintf("active tier %q is not the best registered tier %q and no %s override is set",
			active, tiers[len(tiers)-1], metrics.KernelEnvVar))
	}

	if probeErrs := probeKernelTiers(&b); len(probeErrs) > 0 {
		errs = append(errs, probeErrs...)
	}
	if len(errs) > 0 {
		return b.String(), fmt.Errorf("dispatch sanity: %s", strings.Join(errs, "; "))
	}
	return b.String(), nil
}

// predictProbe fetches an n×n prediction at each of the four half-pel
// phases of ref into one strided destination and hashes the whole of it,
// so a tier that computes a wrong sample or writes a byte outside a
// window changes the value.
func predictProbe(ref *frame.Plane, n int) int {
	dst := &frame.Plane{W: 40, H: 40, Stride: 43, Pix: make([]uint8, 43*40)}
	for ph := 0; ph < 4; ph++ {
		metrics.PredictBlock(dst, (ph&1)*(dst.W-n), (ph>>1)*(dst.H-n), ref, 2*9+ph&1, 2*7+ph>>1, n, n)
	}
	h := fnv.New32a()
	h.Write(dst.Pix)
	return int(h.Sum32())
}

// hashInts folds a probe's values into one int, so a probe covering many
// calls still compares as one value.
func hashInts(vs ...int) int {
	h := fnv.New32a()
	for _, v := range vs {
		fmt.Fprintf(h, "%d,", v)
	}
	return int(h.Sum32())
}

// probeKernelTiers runs the fixed probe block through every tier and
// appends one ok/mismatch line per tier.
func probeKernelTiers(b *strings.Builder) []string {
	rng := rand.New(rand.NewSource(42))
	mk := func() *frame.Plane {
		p := &frame.Plane{W: 48, H: 32, Stride: 53, Pix: make([]uint8, 53*32)}
		rng.Read(p.Pix)
		return p
	}
	cur, ref := mk(), mk()
	frameOf := func(stride int) *frame.Frame {
		f := &frame.Frame{}
		for i, pp := range []**frame.Plane{&f.Y, &f.Cb, &f.Cr} {
			w, h, s := 48, 32, stride
			if i > 0 {
				w, h, s = 24, 16, stride/2
			}
			*pp = &frame.Plane{W: w, H: h, Stride: s, Pix: make([]uint8, s*h)}
			rng.Read((*pp).Pix)
		}
		return f
	}
	srcF, recF := frameOf(48), frameOf(62)
	// A ±8 window around (9, 7) in raster order; the plane's top edge
	// clips its first row away, so the in-kernel rectangle test runs too.
	var window []metrics.Offset
	for dy := -8; dy <= 8; dy++ {
		for dx := -8; dx <= 8; dx++ {
			window = append(window, metrics.Offset{DX: int16(dx), DY: int16(dy)})
		}
	}
	clip := metrics.Rect{MinX: -8, MinY: -7, MaxX: 8, MaxY: 8}

	type probe struct {
		name string
		fn   func() int
	}
	probes := []probe{
		{"sad16x16", func() int { return metrics.SAD(cur, 8, 8, ref, 9, 7, 16, 16) }},
		{"sad12x8", func() int { return metrics.SAD(cur, 3, 5, ref, 6, 2, 12, 8) }},
		{"sadCapped", func() int { return metrics.SADCapped(cur, 8, 8, ref, 9, 7, 16, 16, 700) }},
		{"intraSAD16", func() int {
			// The fused mean + Σ|p−µ| kernel at every 16×16 anchor of a
			// grid that reaches all four plane corners.
			var sums []int
			for y := 0; y <= cur.H-16; y += 4 {
				for x := 0; x <= cur.W-16; x += 4 {
					sums = append(sums, metrics.IntraSAD(cur, x, y, 16, 16))
				}
			}
			return hashInts(sums...)
		}},
		{"intraSAD8x8", func() int { return metrics.IntraSAD(cur, 3, 5, 8, 8) }},
		{"halfPelH", func() int { return metrics.SADHalfPelPlane(cur, 8, 8, ref, 19, 14, 16, 16) }},
		{"halfPelV", func() int { return metrics.SADHalfPelPlane(cur, 8, 8, ref, 18, 15, 16, 16) }},
		{"halfPelD", func() int { return metrics.SADHalfPelPlane(cur, 8, 8, ref, 19, 15, 16, 16) }},
		{"ring", func() int {
			out := [9]int{4: -1}
			metrics.SADHalfPelRing(cur, 8, 8, ref, 9, 7, 16, 16, &out)
			sum := 0
			for _, v := range out {
				sum += v
			}
			return sum
		}},
		{"sadBest", func() int {
			idx, sad := metrics.SADBest(cur, 8, 8, ref, 9, 7, 16, 16, window, clip, 1<<30)
			return idx<<20 | sad
		}},
		{"sse8x8", func() int { return int(metrics.SSE(cur, 8, 8, ref, 9, 7, 8, 8)) }},
		{"gateMB", func() int {
			// The zero-block gate's six energies, every macroblock of two
			// 48×32 frames whose planes have different strides.
			var sums []int
			for mby := 0; mby < 2; mby++ {
				for mbx := 0; mbx < 3; mbx++ {
					e := metrics.MacroblockSSE(srcF, recF, mbx, mby)
					sums = append(sums, e[:]...)
				}
			}
			return hashInts(sums...)
		}},
		{"predict16", func() int { return predictProbe(ref, 16) }},
		{"predict8", func() int { return predictProbe(ref, 8) }},
		{"residualRows", func() int {
			var rp dct.RowPass
			metrics.ResidualRows(&rp, cur, 8, 8, ref, 9, 7)
			h := fnv.New32a()
			put := func(vs []float64) {
				for _, v := range vs {
					fmt.Fprintf(h, "%016x", math.Float64bits(v))
				}
			}
			put(rp.Energy[:])
			for y := range rp.Tmp {
				put(rp.Tmp[y][:])
			}
			return int(h.Sum32())
		}},
	}

	want := make([]int, len(probes))
	restore, err := metrics.SetKernelISA("scalar")
	if err != nil {
		return []string{err.Error()}
	}
	for i, p := range probes {
		want[i] = p.fn()
	}
	restore()

	var errs []string
	for _, isa := range metrics.KernelISAs() {
		restore, err := metrics.SetKernelISA(isa)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		bad := 0
		for i, p := range probes {
			if got := p.fn(); got != want[i] {
				errs = append(errs, fmt.Sprintf("%s: probe %s = %d, scalar reference %d", isa, p.name, got, want[i]))
				bad++
			}
		}
		restore()
		if bad == 0 {
			fmt.Fprintf(b, "probe %-6s ok (%d kernels bit-identical to scalar)\n", isa, len(probes))
		}
	}
	return errs
}
