package metrics

import (
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/frame"
)

// withEachISA runs fn as a subtest once per kernel tier available on
// this host, with that tier active for the duration. On amd64 this
// covers scalar, swar, sse2 and (hardware permitting) avx2 — including
// the fallback path a machine without AVX2 would take, by pinning the
// lower tiers explicitly.
func withEachISA(t *testing.T, fn func(t *testing.T, isa string)) {
	t.Helper()
	for _, isa := range KernelISAs() {
		restore, err := SetKernelISA(isa)
		if err != nil {
			t.Fatalf("SetKernelISA(%q): %v", isa, err)
		}
		t.Run(isa, func(t *testing.T) { fn(t, isa) })
		restore()
	}
}

// TestKernelISAFallbackOrder pins the dispatch contract: scalar first,
// SWAR second, architecture tiers after, and the automatic pick is the
// last entry (unless the env override redirected it).
func TestKernelISAFallbackOrder(t *testing.T) {
	isas := KernelISAs()
	if len(isas) < 2 || isas[0] != "scalar" || isas[1] != "swar" {
		t.Fatalf("KernelISAs() = %v, want scalar,swar prefix", isas)
	}
	if os.Getenv(KernelEnvVar) == "" && KernelInitNote() == "" {
		if got, want := ActiveKernelISA(), isas[len(isas)-1]; got != want {
			t.Errorf("active ISA %q, want automatic pick %q", got, want)
		}
	}
}

// TestKernelDispatchSanity pins the dispatch state against the host: the
// selected tier must be one the detected CPU features actually support,
// every advertised SIMD feature must have produced its tier, and the
// start-up pick must not have degraded (an override naming a tier this
// host lacks). Run with -v it logs what this host dispatched to, so a run
// whose numbers look off can be explained by its ISA; every tier's
// bit-identity with scalar is the differential tests' (KernelTiers*).
func TestKernelDispatchSanity(t *testing.T) {
	feats := DetectedCPUFeatures()
	isas := KernelISAs()
	t.Logf("cpu features: %v", feats)
	t.Logf("kernel tiers: %v (fallback order, best last)", isas)
	t.Logf("active tier:  %s", ActiveKernelISA())
	if env := os.Getenv(KernelEnvVar); env != "" {
		t.Logf("env override: %s=%s", KernelEnvVar, env)
	}
	if note := KernelInitNote(); note != "" {
		t.Errorf("kernel init degraded: %s", note)
	}
	have := func(list []string, s string) bool {
		for _, v := range list {
			if v == s {
				return true
			}
		}
		return false
	}
	for _, tier := range isas {
		switch tier {
		case "scalar", "swar":
		default:
			if !have(feats, tier) && !(tier == "sse2" && len(feats) == 0) {
				t.Errorf("tier %q registered but not in detected features %v", tier, feats)
			}
		}
	}
	for _, feat := range []string{"sse2", "avx2"} {
		if have(feats, feat) && !have(isas, feat) {
			t.Errorf("CPU advertises %s but no %s tier registered (isas %v)", feat, feat, isas)
		}
	}
	if !have(isas, ActiveKernelISA()) {
		t.Errorf("active ISA %q not among registered tiers %v", ActiveKernelISA(), isas)
	}
}

func TestSetKernelISAUnknown(t *testing.T) {
	_, err := SetKernelISA("neon")
	if err == nil {
		t.Fatal("SetKernelISA(neon) succeeded; want error")
	}
	ue, ok := err.(*UnknownISAError)
	if !ok {
		t.Fatalf("error type %T, want *UnknownISAError", err)
	}
	if ue.Name != "neon" || !strings.Contains(err.Error(), "scalar") {
		t.Errorf("error %q should name the ISA and list the available tiers", err)
	}
	if got := ActiveKernelISA(); got == "neon" {
		t.Error("failed SetKernelISA changed the active tier")
	}
}

// TestKernelTiersMatchScalar is the central differential test: every
// registered tier must return bit-identical values to the scalar
// reference (and therefore to the SWAR tier) for the table's SSE,
// IntraSAD and ring, and the single-probe SAD family, which runs SWAR
// whatever tier is active, must too — checked once, not per tier —
// across widths that exercise 16-byte chunks, 8-byte tails and the
// scalar trailing columns, heights including the h=1 rows the capped
// mixed-width path issues, unaligned strides, and caps that terminate
// at every possible row.
func TestKernelTiersMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cur := paddedPlane(rng, 72, 40, 5)
	ref := paddedPlane(rng, 72, 40, 11)
	eachShape := func(fn func(cx, cy, rx, ry, w, h int)) {
		for _, w := range []int{4, 8, 12, 16, 20, 24, 32, 48} {
			for _, h := range []int{1, 2, 4, 8, 16} {
				for _, off := range [][4]int{{0, 0, 1, 1}, {3, 2, 17, 9}, {21, 13, 5, 23}, {48, 24, 24, 24}} {
					cx, cy, rx, ry := off[0], off[1], off[2], off[3]
					if cx+w > cur.W || cy+h > cur.H || rx+w+1 > ref.W || ry+h+1 > ref.H {
						continue
					}
					fn(cx, cy, rx, ry, w, h)
				}
			}
		}
	}
	eachShape(func(cx, cy, rx, ry, w, h int) {
		if got, want := SAD(cur, cx, cy, ref, rx, ry, w, h), sadScalar(cur, cx, cy, ref, rx, ry, w, h); got != want {
			t.Fatalf("SAD w=%d h=%d: got %d want %d", w, h, got, want)
		}
		// Caps spanning "exit at first row" to "never exit", pinning both
		// the exit decision and the exact cumulative value returned at the
		// exit row.
		full := sadScalar(cur, cx, cy, ref, rx, ry, w, h)
		for _, cap := range []int{0, full / 4, full / 2, full - 1, full, 1 << 30} {
			if got, want := SADCapped(cur, cx, cy, ref, rx, ry, w, h, cap), sadCappedScalar(cur, cx, cy, ref, rx, ry, w, h, cap); got != want {
				t.Fatalf("SADCapped w=%d h=%d cap=%d: got %d want %d", w, h, cap, got, want)
			}
		}
		// All three half-pel phases, uncapped and capped — H.263 rounding
		// ((a+b+1)>>1, (a+b+c+d+2)>>2) must survive the SWAR arithmetic
		// exactly. The uncapped entry runs the capped kernels at cap =
		// math.MaxInt up to 256 samples and the scalar route past them.
		for _, d := range [][2]int{{1, 0}, {0, 1}, {1, 1}} {
			hx, hy := 2*rx+d[0], 2*ry+d[1]
			if got, want := SADHalfPelPlane(cur, cx, cy, ref, hx, hy, w, h), sadHalfPelPlaneScalar(cur, cx, cy, ref, hx, hy, w, h); got != want {
				t.Fatalf("SADHalfPelPlane w=%d h=%d phase=%v: got %d want %d", w, h, d, got, want)
			}
			for _, cap := range []int{0, full / 2, 1 << 30} {
				if got, want := SADHalfPelPlaneCapped(cur, cx, cy, ref, hx, hy, w, h, cap), sadHalfPelPlaneCappedScalar(cur, cx, cy, ref, hx, hy, w, h, cap); got != want {
					t.Fatalf("SADHalfPelPlaneCapped w=%d h=%d phase=%v cap=%d: got %d want %d", w, h, d, cap, got, want)
				}
			}
		}
	})
	withEachISA(t, func(t *testing.T, isa string) {
		eachShape(func(cx, cy, rx, ry, w, h int) {
			if got, want := SSE(cur, cx, cy, ref, rx, ry, w, h), sseScalar(cur, cx, cy, ref, rx, ry, w, h); got != want {
				t.Fatalf("SSE w=%d h=%d: got %d want %d", w, h, got, want)
			}
			if got, want := Mean(cur, cx, cy, w, h), (planeSumScalar(cur, cx, cy, w, h)+w*h/2)/(w*h); got != want {
				t.Fatalf("Mean w=%d h=%d: got %d want %d", w, h, got, want)
			}
			if got, want := IntraSAD(cur, cx, cy, w, h), intraSADScalar(cur, cx, cy, w, h); got != want {
				t.Fatalf("IntraSAD w=%d h=%d: got %d want %d", w, h, got, want)
			}
			// The ring wherever it is legal: the AVX2 tier's 16-wide
			// kernel at every height it accepts.
			if w%8 == 0 && w*h <= 256 && rx >= 1 && ry >= 1 && rx+w <= ref.W-1 && ry+h <= ref.H-1 {
				ring := [9]int{4: -1}
				SADHalfPelRing(cur, cx, cy, ref, rx, ry, w, h, &ring)
				want := sadHalfPelRingScalar(cur, cx, cy, ref, rx, ry, w, h)
				want[4] = -1
				if ring != want {
					t.Fatalf("SADHalfPelRing w=%d h=%d at (%d,%d): got %v want %v", w, h, rx, ry, ring, want)
				}
			}
		})
	})
}

// TestRingAcrossISAs checks the fused ring kernel of every tier against
// eight independent scalar probes, and that the centre slot is left
// untouched: on a tight plane where the whole ring is in-plane, and on a
// plane with the one-sample replicated apron the ring needs at anchors on
// every edge and corner, where the slots whose probes leave the plane —
// legal or not, every slot is checked — must read the apron as the scalar
// reference's edge replication does.
func TestRingAcrossISAs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cur := paddedPlane(rng, 64, 40, 7)
	ref := paddedPlane(rng, 64, 40, 3)
	edge := frame.NewPlanePadded(64, 40, 1)
	rng.Read(edge.Pix)
	edge.ReplicateApron()
	check := func(t *testing.T, ref *frame.Plane, cx, cy, rx, ry, w, h int) {
		t.Helper()
		ring := [9]int{4: -12345}
		SADHalfPelRing(cur, cx, cy, ref, rx, ry, w, h, &ring)
		if ring[4] != -12345 {
			t.Fatalf("ring centre slot overwritten: %d", ring[4])
		}
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				want := sadHalfPelPlaneScalar(cur, cx, cy, ref, 2*rx+dx, 2*ry+dy, w, h)
				if got := ring[(dy+1)*3+dx+1]; got != want {
					t.Fatalf("ring w=%d h=%d apron=%d (%d,%d) slot(%d,%d): got %d want %d",
						w, h, ref.Apron(), rx, ry, dx, dy, got, want)
				}
			}
		}
	}
	withEachISA(t, func(t *testing.T, isa string) {
		for _, sz := range [][2]int{{8, 8}, {16, 16}, {16, 8}, {8, 16}, {24, 8}} {
			w, h := sz[0], sz[1]
			for _, pos := range [][4]int{{1, 1, 1, 1}, {5, 9, 11, 3}, {17, 3, 2, 19}} {
				cx, cy, rx, ry := pos[0], pos[1], pos[2], pos[3]
				if cx+w > cur.W || cy+h > cur.H || rx+w > ref.W-1 || ry+h > ref.H-1 {
					continue
				}
				check(t, ref, cx, cy, rx, ry, w, h)
			}
			right, bottom := edge.W-w, edge.H-h
			for _, a := range [][2]int{
				{0, 0}, {0, 11}, {0, bottom}, {13, 0}, {right, 0},
				{right, 7}, {right, bottom}, {21, bottom},
			} {
				check(t, edge, 3, 2, a[0], a[1], w, h)
			}
		}
	})
}

// TestKernelTiersIntraSADFused pins every tier's IntraSAD — which derives
// µ itself, the AVX2 16×16 kernel from the one load of the block it also
// sums |p−µ| over — to the two-step definition: Mean, then Σ|p−µ| at that
// µ by the scalar loop. The contents put Σp on and beside the rounding
// edge of µ: flat blocks, one sample off a flat block in either direction
// (Σ = 256µ ± 1), Σ = 256µ + 127/128/129 (the tie rounds up), the
// extremes, and random texture.
func TestKernelTiersIntraSADFused(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p := paddedPlane(rng, 40, 36, 9)
	set := func(fn func(x, y int) int) {
		for y := 0; y < 16; y++ {
			for x := 0; x < 16; x++ {
				p.Set(5+x, 3+y, uint8(fn(x, y)))
			}
		}
	}
	type pattern struct {
		name string
		fn   func(x, y int) int
	}
	var patterns []pattern
	for _, v := range []int{0, 1, 127, 128, 254, 255} {
		v := v
		patterns = append(patterns, pattern{"flat", func(x, y int) int { return v }})
	}
	for _, v := range []int{1, 100, 254} {
		for _, d := range []int{-1, 1} {
			v, d := v, d
			patterns = append(patterns, pattern{"nudged", func(x, y int) int {
				if x == 7 && y == 9 {
					return v + d
				}
				return v
			}})
		}
	}
	// Σ = 256·60 + 128 exactly — the tie, which rounds µ up to 61 — and one
	// either side of it, carried by a single outlier so that Σ|p−µ| differs
	// between µ = 60 and 61 (spread evenly, the two would tie and hide a
	// rounding slip).
	for _, outlier := range []int{187, 188, 189} {
		outlier := outlier
		patterns = append(patterns, pattern{"tie", func(x, y int) int {
			if x == 11 && y == 4 {
				return outlier
			}
			return 60
		}})
	}
	patterns = append(patterns,
		pattern{"checker", func(x, y int) int { return 255 * ((x + y) & 1) }},
		pattern{"ramp", func(x, y int) int { return 16*x + y }})
	for i := 0; i < 20; i++ {
		patterns = append(patterns, pattern{"random", func(x, y int) int { return rng.Intn(256) }})
	}
	withEachISA(t, func(t *testing.T, isa string) {
		for _, pt := range patterns {
			set(pt.fn)
			for _, at := range [][2]int{{5, 3}, {0, 0}, {24, 20}, {13, 7}} {
				x, y := at[0], at[1]
				want := intraSADMuScalar(p, x, y, 16, 16, (planeSumScalar(p, x, y, 16, 16)+128)/256)
				if got := IntraSAD(p, x, y, 16, 16); got != want {
					t.Fatalf("%s at (%d,%d): IntraSAD %d, Mean + Σ|p−µ| %d", pt.name, x, y, got, want)
				}
				if got := intraSADMuScalar(p, x, y, 16, 16, Mean(p, x, y, 16, 16)); got != want {
					t.Fatalf("%s at (%d,%d): Mean disagrees with (Σ+128)/256", pt.name, x, y)
				}
			}
		}
	})
}

// TestSADCappedEarlyExitRowValues pins the early-termination value
// itself: with a constant-difference block, the cap is crossed at a
// known row and SADCapped must return exactly that row's cumulative sum.
// SADCapped runs SWAR whatever tier is active, so the subtests pin each
// tier in turn and check that pinning one (VCODEC_SAD_KERNEL,
// SetKernelISA) leaves the single-probe values alone.
func TestSADCappedEarlyExitRowValues(t *testing.T) {
	w, h := 16, 16
	cur := &frame.Plane{W: w, H: h, Stride: w, Pix: make([]uint8, w*h)}
	ref := &frame.Plane{W: w, H: h, Stride: w, Pix: make([]uint8, w*h)}
	for i := range cur.Pix {
		cur.Pix[i] = 10
	}
	rowSum := w * 10
	withEachISA(t, func(t *testing.T, isa string) {
		for rows := 1; rows <= h; rows++ {
			cap := rows*rowSum - 1 // crossed exactly at row `rows`
			want := rows * rowSum
			if got := SADCapped(cur, 0, 0, ref, 0, 0, w, h, cap); got != want {
				t.Fatalf("cap=%d: got %d, want cumulative row value %d", cap, got, want)
			}
		}
		if got := SADCapped(cur, 0, 0, ref, 0, 0, w, h, h*rowSum); got != h*rowSum {
			t.Fatalf("cap==total must return exact total: got %d", got)
		}
	})
}

// FuzzKernelTiersSAD drives arbitrary pixels and geometry through SAD and
// SADCapped (once: they run SWAR on every tier) and through every
// registered tier's IntraSAD, and cross-checks the scalar references.
func FuzzKernelTiersSAD(f *testing.F) {
	f.Add([]byte("seedseedseedseedseedseedseedseed"), uint8(16), uint8(8), uint8(1), uint8(2), uint8(0), uint8(0), uint8(3), uint16(500))
	f.Add(make([]byte, 64), uint8(4), uint8(4), uint8(0), uint8(0), uint8(1), uint8(1), uint8(0), uint16(0))
	f.Fuzz(func(t *testing.T, pix []byte, wSel, hSel, cxSel, cySel, rxSel, rySel, pad8 uint8, cap16 uint16) {
		widths := []int{4, 8, 12, 16, 20, 24, 32}
		w := widths[int(wSel)%len(widths)]
		h := 1 + int(hSel)%16
		pad := int(pad8) % 9
		pw, ph := w+8, h+8
		need := (pw + pad) * ph
		buf := make([]uint8, 2*need)
		for i := range buf {
			if len(pix) > 0 {
				buf[i] = pix[i%len(pix)]
			}
		}
		cur := &frame.Plane{W: pw, H: ph, Stride: pw + pad, Pix: buf[:need]}
		ref := &frame.Plane{W: pw, H: ph, Stride: pw + pad, Pix: buf[need:]}
		cx, cy := int(cxSel)%(pw-w+1), int(cySel)%(ph-h+1)
		rx, ry := int(rxSel)%(pw-w+1), int(rySel)%(ph-h+1)
		cap := int(cap16)
		if got, want := SAD(cur, cx, cy, ref, rx, ry, w, h), sadScalar(cur, cx, cy, ref, rx, ry, w, h); got != want {
			t.Errorf("SAD w=%d h=%d: got %d want %d", w, h, got, want)
		}
		if got, want := SADCapped(cur, cx, cy, ref, rx, ry, w, h, cap), sadCappedScalar(cur, cx, cy, ref, rx, ry, w, h, cap); got != want {
			t.Errorf("SADCapped w=%d h=%d cap=%d: got %d want %d", w, h, cap, got, want)
		}
		wantIntra := intraSADScalar(cur, cx, cy, w, h)
		for _, isa := range KernelISAs() {
			restore, err := SetKernelISA(isa)
			if err != nil {
				t.Fatal(err)
			}
			if got := IntraSAD(cur, cx, cy, w, h); got != wantIntra {
				t.Errorf("%s IntraSAD w=%d h=%d: got %d want %d", isa, w, h, got, wantIntra)
			}
			restore()
		}
	})
}

// FuzzKernelTiersHalfPel does the same for the fused half-pel kernels:
// all three phases, capped and uncapped (once), and every tier's ring
// when legal.
func FuzzKernelTiersHalfPel(f *testing.F) {
	f.Add([]byte("halfpelhalfpelhalfpelhalfpel"), uint8(16), uint8(8), uint8(1), uint8(1), uint8(2), uint8(2), uint16(300))
	f.Add(make([]byte, 96), uint8(8), uint8(8), uint8(0), uint8(0), uint8(1), uint8(1), uint16(0))
	f.Fuzz(func(t *testing.T, pix []byte, wSel, hSel, cxSel, cySel, rxSel, rySel uint8, cap16 uint16) {
		widths := []int{8, 16, 24}
		w := widths[int(wSel)%len(widths)]
		h := 1 + int(hSel)%16
		pw, ph := w+10, h+10
		need := pw * ph
		buf := make([]uint8, 2*need)
		for i := range buf {
			if len(pix) > 0 {
				buf[i] = pix[i%len(pix)]
			}
		}
		cur := &frame.Plane{W: pw, H: ph, Stride: pw, Pix: buf[:need]}
		ref := &frame.Plane{W: pw, H: ph, Stride: pw, Pix: buf[need:]}
		cx, cy := int(cxSel)%(pw-w+1), int(cySel)%(ph-h+1)
		rx, ry := 1+int(rxSel)%(pw-w-1), 1+int(rySel)%(ph-h-1)
		cap := int(cap16)
		for _, d := range [][2]int{{1, 0}, {0, 1}, {1, 1}} {
			hx, hy := 2*rx+d[0], 2*ry+d[1]
			if got, want := SADHalfPelPlane(cur, cx, cy, ref, hx, hy, w, h), sadHalfPelPlaneScalar(cur, cx, cy, ref, hx, hy, w, h); got != want {
				t.Errorf("hp phase=%v w=%d h=%d: got %d want %d", d, w, h, got, want)
			}
			if got, want := SADHalfPelPlaneCapped(cur, cx, cy, ref, hx, hy, w, h, cap), sadHalfPelPlaneCappedScalar(cur, cx, cy, ref, hx, hy, w, h, cap); got != want {
				t.Errorf("hpCapped phase=%v w=%d h=%d cap=%d: got %d want %d", d, w, h, cap, got, want)
			}
		}
		for _, isa := range KernelISAs() {
			restore, err := SetKernelISA(isa)
			if err != nil {
				t.Fatal(err)
			}
			if w%8 == 0 && w*h <= 256 && rx+w <= ref.W-1 && ry+h <= ref.H-1 {
				var ring [9]int
				SADHalfPelRing(cur, cx, cy, ref, rx, ry, w, h, &ring)
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						if dx == 0 && dy == 0 {
							continue
						}
						want := sadHalfPelPlaneScalar(cur, cx, cy, ref, 2*rx+dx, 2*ry+dy, w, h)
						if got := ring[(dy+1)*3+dx+1]; got != want {
							t.Errorf("%s ring (%d,%d): got %d want %d", isa, dx, dy, got, want)
						}
					}
				}
			}
			restore()
		}
	})
}
