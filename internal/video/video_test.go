package video

import (
	"math"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/frame"
	"repro/internal/leakcheck"
	"repro/internal/metrics"
	"repro/internal/mvfield"
)

func TestNoiseDeterministic(t *testing.T) {
	n := Noise{Seed: 42, Scale: 8, Octaves: 3}
	m := Noise{Seed: 42, Scale: 8, Octaves: 3}
	for _, pos := range [][2]float64{{0, 0}, {1.5, 2.25}, {-3.7, 100.1}} {
		if n.At(pos[0], pos[1]) != m.At(pos[0], pos[1]) {
			t.Fatalf("noise not deterministic at %v", pos)
		}
	}
	diff := Noise{Seed: 43, Scale: 8, Octaves: 3}
	same := true
	for x := 0.0; x < 10; x++ {
		if n.At(x, 0) != diff.At(x, 0) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical noise")
	}
}

func TestNoiseRangeAndContinuity(t *testing.T) {
	n := Noise{Seed: 7, Scale: 10, Octaves: 4}
	prev := n.At(0, 3.3)
	for i := 1; i <= 400; i++ {
		x := float64(i) * 0.1
		v := n.At(x, 3.3)
		if v < 0 || v >= 1 {
			t.Fatalf("noise out of range at %v: %v", x, v)
		}
		if math.Abs(v-prev) > 0.25 {
			t.Fatalf("noise discontinuity at %v: %v -> %v", x, prev, v)
		}
		prev = v
	}
}

func TestGenerateDeterministicAndSized(t *testing.T) {
	a := Generate(Carphone, frame.SQCIF, 3, 1)
	b := Generate(Carphone, frame.SQCIF, 3, 1)
	if len(a) != 3 {
		t.Fatalf("got %d frames", len(a))
	}
	for i := range a {
		if a[i].Size() != frame.SQCIF {
			t.Fatalf("frame %d size %v", i, a[i].Size())
		}
		if !a[i].Equal(b[i]) {
			t.Fatalf("frame %d not deterministic", i)
		}
	}
	c := Generate(Carphone, frame.SQCIF, 1, 2)
	if a[0].Equal(c[0]) {
		t.Fatal("different seeds produced identical frames")
	}
}

func TestProfilesProduceMotion(t *testing.T) {
	// Consecutive frames must differ (there is motion) but not be noise
	// (majority of samples stay close).
	for _, p := range Profiles {
		fr := Generate(p, frame.SQCIF, 2, 3)
		mse, err := frame.MSE(fr[0].Y, fr[1].Y)
		if err != nil {
			t.Fatal(err)
		}
		if mse == 0 {
			t.Errorf("%v: consecutive frames identical", p)
		}
		if mse > 3000 {
			t.Errorf("%v: consecutive frames unrelated (MSE %.0f)", p, mse)
		}
	}
}

func TestTextureOrderingAcrossProfiles(t *testing.T) {
	// Foreman must be the most textured profile and Miss America the
	// least — this drives the Intra_SAD separation behind Table 1.
	meanIntraSAD := func(p Profile) float64 {
		f := Generate(p, frame.QCIF, 1, 5)[0].Y
		total, n := 0, 0
		for by := 0; by+16 <= f.H; by += 16 {
			for bx := 0; bx+16 <= f.W; bx += 16 {
				total += metrics.IntraSAD(f, bx, by, 16, 16)
				n++
			}
		}
		return float64(total) / float64(n)
	}
	miss := meanIntraSAD(MissAmerica)
	car := meanIntraSAD(Carphone)
	fore := meanIntraSAD(Foreman)
	if !(miss < car && car < fore) {
		t.Fatalf("texture ordering violated: miss=%.0f car=%.0f foreman=%.0f", miss, car, fore)
	}
	if fore < 2*miss {
		t.Fatalf("texture contrast too small: miss=%.0f foreman=%.0f", miss, fore)
	}
}

func TestMotionMagnitudeOrdering(t *testing.T) {
	// Frame-to-frame change should be smallest for Miss America and
	// largest for Foreman during its abrupt pan.
	change := func(p Profile, t0 int) float64 {
		sc := p.Scene(9)
		a := sc.Render(frame.SQCIF, t0)
		b := sc.Render(frame.SQCIF, t0+1)
		mse, _ := frame.MSE(a.Y, b.Y)
		return mse
	}
	miss := change(MissAmerica, 10)
	forePan := change(Foreman, 50) // inside the abrupt pan
	if miss >= forePan {
		t.Fatalf("motion ordering violated: miss=%.1f foreman-pan=%.1f", miss, forePan)
	}
}

func TestDecimate(t *testing.T) {
	fr := Generate(MissAmerica, frame.SQCIF, 10, 1)
	d3 := Decimate(fr, 3)
	if len(d3) != 4 { // frames 0,3,6,9
		t.Fatalf("Decimate(10,3) = %d frames, want 4", len(d3))
	}
	if !d3[1].Equal(fr[3]) {
		t.Fatal("Decimate did not keep every 3rd frame")
	}
	d1 := Decimate(fr, 1)
	if len(d1) != 10 {
		t.Fatal("factor 1 must keep all frames")
	}
	d1[0] = nil // must be a copy of the slice header
	if fr[0] == nil {
		t.Fatal("Decimate aliases the input slice")
	}
}

func TestStringNames(t *testing.T) {
	names := map[Profile]string{
		MissAmerica: "Miss America",
		Carphone:    "Carphone",
		Foreman:     "Foreman",
		TableTennis: "Table",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
	if Profile(99).String() == "" {
		t.Error("unknown profile must still format")
	}
}

func TestGlobalMotionSequenceExactness(t *testing.T) {
	ref := ReferenceFrame(Foreman, frame.SQCIF, 11)
	mvs := DefaultGlobalMVs
	seq, err := GlobalMotionSequence(ref, mvs)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(mvs)+1 {
		t.Fatalf("got %d frames, want %d", len(seq), len(mvs)+1)
	}
	// Interior blocks of frame i+1 must match frame i displaced by mv
	// exactly (SAD 0).
	for i, mv := range mvs {
		dx, dy := mv.FullPel()
		cur, prev := seq[i+1], seq[i]
		bx, by := 48, 40 // interior block far from borders
		if got := metrics.SAD(cur, bx, by, prev, bx-dx, by-dy, 16, 16); got != 0 {
			t.Fatalf("step %d: interior SAD = %d, want 0", i, got)
		}
	}
}

func TestGlobalMotionSequenceRejectsHalfPel(t *testing.T) {
	ref := frame.NewPlane(32, 32)
	_, err := GlobalMotionSequence(ref, []mvfield.MV{{X: 1, Y: 0}})
	if err == nil {
		t.Fatal("half-pel global MV accepted")
	}
	var bad *BadMVError
	if !asBadMV(err, &bad) {
		t.Fatalf("error type %T, want *BadMVError", err)
	}
}

func asBadMV(err error, target **BadMVError) bool {
	b, ok := err.(*BadMVError)
	if ok {
		*target = b
	}
	return ok
}

func TestCameraZoomChangesScale(t *testing.T) {
	// With 2x zoom, the world window halves: a feature at world (10,0)
	// appears 20px right of centre instead of 10.
	cam := Camera{Zoom: func(int) float64 { return 2 }}
	wx := cam.view(frame.SQCIF, 0).x(84) // 20px right of centre
	if math.Abs(wx-10) > 1e-9 {
		t.Fatalf("world x = %v, want 10", wx)
	}
}

func TestSpriteSoftEdge(t *testing.T) {
	// A flat 200 disc of radius 10 over a flat 0 background, panned so
	// row 48 is world y 0 and column c is world x c−63.2: column 73 sits
	// at normalised distance 0.98, inside the soft edge.
	sc := &Scene{
		Layers: []Layer{
			&Background{},
			&Sprite{
				CX: func(int) float64 { return 0 }, CY: func(int) float64 { return 0 },
				RX: 10, RY: 10,
				Tex: Noise{Seed: 1, Scale: 8, Octaves: 1}, Base: 200, Amp: 0,
			},
		},
		Camera: Camera{PanX: func(int) float64 { return 0.3 }, PanY: func(int) float64 { return -0.5 }},
	}
	row := sc.Render(frame.SQCIF, 0).Y.Row(48)
	if row[64] != 200 {
		t.Fatalf("centre luma %d, want 200 (fully covered)", row[64])
	}
	if row[84] != 0 {
		t.Fatalf("far outside luma %d, want 0 (empty)", row[84])
	}
	if row[73] <= 0 || row[73] >= 200 {
		t.Fatalf("edge luma %d, want a blend strictly between 0 and 200", row[73])
	}
}

func TestSensorNoiseChangesPerFrame(t *testing.T) {
	sc := WithSensorNoise(MissAmerica.Scene(1), 2.0, 7)
	a := sc.Render(frame.SQCIF, 0)
	b := sc.Render(frame.SQCIF, 0) // same frame index: identical
	if !a.Equal(b) {
		t.Fatal("sensor noise not deterministic per frame index")
	}
	// Between frames the noise decorrelates: even a static scene differs.
	static := &Scene{Layers: []Layer{&Background{Tex: Noise{Seed: 1, Scale: 20, Octaves: 2}, Base: 128, Amp: 10}}}
	static = WithSensorNoise(static, 2.0, 7)
	f0 := static.Render(frame.SQCIF, 0)
	f1 := static.Render(frame.SQCIF, 1)
	mse, _ := frame.MSE(f0.Y, f1.Y)
	if mse == 0 {
		t.Fatal("sensor noise identical across frames")
	}
	if mse > 20 {
		t.Fatalf("sensor noise too strong: MSE %.1f", mse)
	}
}

func TestSensorNoiseRaisesSADFloor(t *testing.T) {
	clean := MissAmerica.Scene(3)
	noisy := WithSensorNoise(MissAmerica.Scene(3), 2.0, 3)
	sadAt := func(sc *Scene) int {
		a := sc.Render(frame.SQCIF, 10)
		b := sc.Render(frame.SQCIF, 11)
		return metrics.SAD(b.Y, 48, 40, a.Y, 48, 40, 16, 16)
	}
	if sadAt(noisy) <= sadAt(clean) {
		t.Fatal("sensor noise did not raise the matching error floor")
	}
}

// BenchmarkGenerate reports the wall time per QCIF frame of Generate for
// each profile; its frames are split across GOMAXPROCS goroutines, so run
// it with -cpu 1,2 to see the serial cost and the parallel one.
func BenchmarkGenerate(b *testing.B) {
	const n = 16
	for _, p := range Profiles {
		b.Run(strings.ReplaceAll(p.String(), " ", ""), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Generate(p, frame.QCIF, n, 2005)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N*n), "ms/frame")
		})
	}
}

func TestRenderConcurrent(t *testing.T) {
	// Render only reads its Scene, and Generate splits frames across
	// goroutines: every frame must equal the serial render, at any
	// GOMAXPROCS, and no goroutine may outlive Generate.
	defer leakcheck.Snapshot(t)()
	const n = 12
	for _, p := range Profiles {
		sc := WithSensorNoise(p.Scene(2005), 2.0, 2005)
		plain := p.Scene(2005)
		want, noisy := make([]*frame.Frame, n), make([]*frame.Frame, n)
		for i := range n {
			want[i], noisy[i] = plain.Render(frame.SQCIF, i), sc.Render(frame.SQCIF, i)
		}
		got := make([]*frame.Frame, n)
		var wg sync.WaitGroup
		for g := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := g; i < n; i += 4 {
					got[i] = sc.Render(frame.SQCIF, i)
				}
			}()
		}
		wg.Wait()
		for i := range n {
			if !got[i].Equal(noisy[i]) {
				t.Errorf("%v frame %d: concurrent Render differs from the serial one", p, i)
			}
		}
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			fr := Generate(p, frame.SQCIF, n, 2005)
			runtime.GOMAXPROCS(prev)
			for i := range n {
				if !fr[i].Equal(want[i]) {
					t.Errorf("%v frame %d: Generate at GOMAXPROCS %d differs from the serial render", p, i, procs)
				}
			}
		}
	}
}

func TestNoiseRowMatchesAt(t *testing.T) {
	// The row sampler must return At's exact value whatever columns it
	// skips: the same cell again, the next cell (corner shift), a jump of
	// several cells, a new row, negative coordinates, and octaves whose
	// spacing clamps at one pixel.
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []Noise{
		{Seed: 3, Scale: 4, Octaves: 3},
		{Seed: 9, Scale: 0.5, Octaves: 1},
		{Seed: 11, Scale: 13.7, Octaves: 5},
		{Seed: 12, Scale: 6},
	} {
		xs := make([]float64, 300)
		for i := range xs {
			xs[i] = -40 + float64(i)*(0.3+0.2*float64(i%3)) + rng.Float64()*0.1
		}
		var r noiseRow
		r.place(&n, xs)
		for range 20 {
			y := rng.Float64()*200 - 100
			r.row(y)
			for col := 0; col < len(xs); col += 1 + rng.IntN(4) {
				if got, want := r.sample(col), n.At(xs[col], y); got != want {
					t.Fatalf("%+v at (%v, %v): row sampler %v, At %v", n, xs[col], y, got, want)
				}
			}
		}
	}
}
