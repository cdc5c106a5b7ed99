package video

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/frame"
)

// Profile selects one of the four synthetic stand-ins for the paper's test
// sequences. Each profile matches its namesake's texture level and motion
// character, the two properties that drive ACBM's behaviour.
type Profile int

const (
	// MissAmerica: head-and-shoulders talking head on a smooth dark
	// background; very low texture, very slow coherent motion. The
	// cheapest sequence in the paper's Table 1.
	MissAmerica Profile = iota
	// Carphone: talking head inside a car; moderate texture, moderate
	// head motion, fast scenery streaming past the side window.
	Carphone
	// Foreman: highly textured close-up with camera shake and an abrupt
	// pan in the final third. The most expensive sequence in Table 1.
	Foreman
	// TableTennis: camera zoom-out over a textured scene with a small
	// fast-moving ball and an oscillating paddle.
	TableTennis
)

// Profiles lists all profiles in the paper's column order.
var Profiles = []Profile{Carphone, Foreman, MissAmerica, TableTennis}

// String returns the sequence name as used in the paper's tables.
func (p Profile) String() string {
	switch p {
	case MissAmerica:
		return "Miss America"
	case Carphone:
		return "Carphone"
	case Foreman:
		return "Foreman"
	case TableTennis:
		return "Table"
	}
	return fmt.Sprintf("Profile(%d)", int(p))
}

// Scene builds the profile's scene graph. The seed decorrelates textures
// between runs while keeping each run fully deterministic.
func (p Profile) Scene(seed uint64) *Scene {
	switch p {
	case MissAmerica:
		return missAmericaScene(seed)
	case Carphone:
		return carphoneScene(seed)
	case Foreman:
		return foremanScene(seed)
	case TableTennis:
		return tableScene(seed)
	}
	panic(fmt.Sprintf("video: unknown profile %d", int(p)))
}

// Generate renders n frames of the profile at the given size and base rate
// of 30 frames per second. Frames are rendered on up to GOMAXPROCS
// goroutines, the caller's included, all joined before it returns; each
// frame depends only on its index, so the output does not depend on how
// they are split.
func Generate(p Profile, size frame.Size, n int, seed uint64) []*frame.Frame {
	sc := p.Scene(seed)
	frames := make([]*frame.Frame, n)
	var next atomic.Int64
	render := func() {
		r := newRaster(sc, size)
		for t := int(next.Add(1) - 1); t < n; t = int(next.Add(1) - 1) {
			frames[t] = r.render(t)
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			render()
		}()
	}
	render()
	wg.Wait()
	return frames
}

// Decimate keeps every factor-th frame, converting a 30 fps sequence to
// 15 fps (factor 2) or 10 fps (factor 3) as in the paper's evaluation.
func Decimate(frames []*frame.Frame, factor int) []*frame.Frame {
	if factor <= 1 {
		out := make([]*frame.Frame, len(frames))
		copy(out, frames)
		return out
	}
	var out []*frame.Frame
	for i := 0; i < len(frames); i += factor {
		out = append(out, frames[i])
	}
	return out
}

// sway is amp·sin(freq·t + phase), each product rounded on its own so no
// GOARCH fuses it into a multiply-add: the motion paths, like the
// textures, are the same on every ISA. float64(t)·freq is never −0, so a
// zero phase leaves it unchanged.
func sway(amp, freq, phase float64, t int) float64 {
	return float64(amp * math.Sin(float64(float64(t)*freq)+phase))
}

func missAmericaScene(seed uint64) *Scene {
	// Static camera, smooth background, gently swaying head and shoulders.
	head := &Sprite{
		CX: func(t int) float64 { return sway(2.5, 0.08, 0, t) },
		CY: func(t int) float64 { return -18 + sway(1.2, 0.05, 1, t) },
		RX: 26, RY: 34,
		Tex:  Noise{Seed: seed ^ 0xA1, Scale: 26, Octaves: 2},
		Base: 155, Amp: 12, Cb: -6, Cr: 14,
		TexLocked: true,
	}
	shoulders := &Sprite{
		CX: func(t int) float64 { return sway(1.5, 0.08, 0, t) },
		CY: func(t int) float64 { return 62 },
		RX: 70, RY: 40,
		Tex:  Noise{Seed: seed ^ 0xA2, Scale: 42, Octaves: 2},
		Base: 95, Amp: 7, Cb: 10, Cr: -4,
		TexLocked: true,
	}
	return &Scene{
		Layers: []Layer{
			&Background{Tex: Noise{Seed: seed ^ 0xA0, Scale: 56, Octaves: 2}, Base: 60, Amp: 4, Cb: 2, Cr: -2},
			&Gradient{Top: 70, Bottom: 45, SpanY: 160, Strength: 0.35},
			shoulders,
			head,
		},
	}
}

func carphoneScene(seed uint64) *Scene {
	// Car interior: moderate texture, a side window with fast-streaming
	// scenery, and a livelier talking head than Miss America.
	window := &Window{
		X0: 40, Y0: -66, X1: 86, Y1: -10,
		Tex:  Noise{Seed: seed ^ 0xB1, Scale: 10, Octaves: 3},
		Base: 150, Amp: 60, Cb: -12, Cr: -6,
		ScrollX: func(t int) float64 { return 4.0 * float64(t) },
	}
	head := &Sprite{
		CX: func(t int) float64 { return -20 + sway(3.5, 0.17, 0, t) + sway(1.5, 0.31, 0, t) },
		CY: func(t int) float64 { return -8 + sway(2.0, 0.11, 0.7, t) },
		RX: 24, RY: 31,
		Tex:  Noise{Seed: seed ^ 0xB2, Scale: 12, Octaves: 3},
		Base: 160, Amp: 34, Cb: -8, Cr: 16,
		TexLocked: true,
	}
	body := &Sprite{
		CX: func(t int) float64 { return -18 + sway(2.5, 0.17, 0, t) },
		CY: func(t int) float64 { return 58 },
		RX: 55, RY: 38,
		Tex:  Noise{Seed: seed ^ 0xB3, Scale: 16, Octaves: 2},
		Base: 80, Amp: 26, Cb: 6, Cr: -6,
		TexLocked: true,
	}
	return &Scene{
		Layers: []Layer{
			&Background{Tex: Noise{Seed: seed ^ 0xB0, Scale: 20, Octaves: 3}, Base: 100, Amp: 28, Cb: 4, Cr: 2},
			window,
			body,
			head,
		},
	}
}

func foremanScene(seed uint64) *Scene {
	// High-frequency texture everywhere, hand-held camera shake, and an
	// abrupt pan starting at frame 40 (the construction-site sweep). The
	// pan speed keeps the 10 fps frame-to-frame displacement within the
	// p=15 search range (3.5 px/frame = 10.5 px between decimated frames).
	panX := func(t int) float64 {
		base := sway(3.0, 0.23, 0, t) + sway(1.8, 0.57, 2, t)
		if t > 40 {
			base += float64(3.5 * float64(t-40))
		}
		return base
	}
	panY := func(t int) float64 {
		return sway(2.2, 0.31, 1, t) + sway(1.2, 0.71, 0, t)
	}
	face := &Sprite{
		CX: func(t int) float64 { return sway(4.0, 0.13, 0, t) },
		CY: func(t int) float64 { return -5 + sway(3.0, 0.19, 0.5, t) },
		RX: 34, RY: 44,
		Tex:  Noise{Seed: seed ^ 0xC1, Scale: 4, Octaves: 3},
		Base: 140, Amp: 80, Cb: -10, Cr: 18,
		TexLocked: true,
	}
	return &Scene{
		Layers: []Layer{
			&Background{Tex: Noise{Seed: seed ^ 0xC0, Scale: 4, Octaves: 3}, Base: 110, Amp: 95, Cb: -4, Cr: 6},
			face,
		},
		Camera: Camera{PanX: panX, PanY: panY},
	}
}

func tableScene(seed uint64) *Scene {
	// Slow zoom-out with a mild pan; a small fast ball bounces across the
	// table while a paddle oscillates.
	ball := &Sprite{
		CX: func(t int) float64 {
			// Triangle-wave horizontal bounce, ~9 px/frame.
			period := 36.0
			ph := math.Mod(float64(t), period) / period
			if ph < 0.5 {
				return -80 + float64(320*ph)
			}
			return 80 - float64(320*(ph-0.5))
		},
		CY: func(t int) float64 {
			return 10 - float64(42*math.Abs(math.Sin(float64(t)*0.26)))
		},
		RX: 5, RY: 5,
		Tex:  Noise{Seed: seed ^ 0xD1, Scale: 4, Octaves: 1},
		Base: 230, Amp: 10, Cb: -4, Cr: 4,
		TexLocked: true,
	}
	paddle := &Sprite{
		CX: func(t int) float64 { return 60 + sway(6.0, 0.26, 0, t) },
		CY: func(t int) float64 { return 28 + sway(10.0, 0.26, 1.3, t) },
		RX: 9, RY: 14,
		Rect: true,
		Tex:  Noise{Seed: seed ^ 0xD2, Scale: 8, Octaves: 2},
		Base: 70, Amp: 20, Cb: 8, Cr: 22,
		TexLocked: true,
	}
	table := &Sprite{
		CX: func(t int) float64 { return 0 },
		CY: func(t int) float64 { return 55 },
		RX: 110, RY: 28,
		Rect: true,
		Tex:  Noise{Seed: seed ^ 0xD3, Scale: 22, Octaves: 2},
		Base: 120, Amp: 16, Cb: -14, Cr: -10,
	}
	return &Scene{
		Layers: []Layer{
			&Background{Tex: Noise{Seed: seed ^ 0xD0, Scale: 14, Octaves: 3}, Base: 95, Amp: 38, Cb: 2, Cr: -2},
			table,
			paddle,
			ball,
		},
		Camera: Camera{
			PanX: func(t int) float64 { return 0.4 * float64(t) },
			Zoom: func(t int) float64 { return 1.0 / (1.0 + float64(0.0012*float64(t))) }, // slow zoom-out
		},
	}
}

// ProfileByName parses the CLI vocabulary shared by cmd/seqgen and
// cmd/vload's -profile flags.
func ProfileByName(name string) (Profile, error) {
	switch strings.ToLower(name) {
	case "carphone":
		return Carphone, nil
	case "foreman":
		return Foreman, nil
	case "missamerica", "miss-america":
		return MissAmerica, nil
	case "table", "tabletennis":
		return TableTennis, nil
	}
	return 0, fmt.Errorf("unknown profile %q (want carphone, foreman, missamerica or table)", name)
}
