package main

import (
	"slices"
	"sync"
	"time"
)

// Host-speed calibration. Least times (quiet.go) remove the host's
// disturbance only when a run holds a quiet moment, and this host also goes
// slow for minutes on end: two sets of runs of one binary, eight minutes
// apart, differed by 20–30 % on every CPU-bound time. So a fixed kernel that
// belongs to the bench, not to the program — some 40 µs of byte differences
// and float multiply-adds over 64 KB, the codec's own kind of work — is
// timed beside every timed operation, and times are reported at nominal
// host speed:
// scaled by nominalCalUs over what the kernel took just then. The kernel's
// least time follows the program's least times through the host's moods (a
// 3-minute trace: least encode times ranged 25 %, their ratio to the least
// kernel time 11 %), and a later change to the program cannot touch it. On
// a quiet host the scale is 1 and every time is what a stopwatch says; the
// unscaled figures stay in the ungated detail. The kernel's working set
// matters: with 1.5 KB instead of 64 KB its least time never moved and the
// scaled figures spread twice as wide, so whatever disturbs this host works
// through the caches.

// nominalCalUs is what the kernel takes on this repository's build host
// (Xeon @ 2.1 GHz) when nothing disturbs it.
const nominalCalUs = 38.0

var cal struct {
	a, b [16384]byte
	f, g [2048]float64
}

func init() {
	for i := range cal.a {
		cal.a[i], cal.b[i] = byte(i*7), byte(i*13)
	}
	for i := range cal.f {
		cal.f[i], cal.g[i] = float64(i), float64(i%7)
	}
}

// calibrate runs the kernel once and returns how long it took, in µs, and
// its result, which the caller keeps so the work cannot be optimised away.
func calibrate() (us float64, sum int) {
	t := time.Now()
	s := 0
	for r := 0; r < 4; r++ {
		for i := range cal.a {
			d := int(cal.a[i]) - int(cal.b[i])
			if d < 0 {
				d = -d
			}
			s += d
		}
		f := 0.0
		for i := range cal.f {
			f += cal.f[i] * cal.g[i]
		}
		s += int(f)
	}
	return float64(time.Since(t).Nanoseconds()) / 1e3, s
}

// hostSpeed collects calibration samples over a stretch of work.
type hostSpeed struct {
	mu   sync.Mutex
	us   []float64
	sink int
}

// sample times the kernel once; a nil collector (set-up, warm-up and traced
// passes scale nothing operation by operation) does nothing.
func (h *hostSpeed) sample() {
	if h == nil {
		return
	}
	us, sum := calibrate()
	h.mu.Lock()
	h.us = append(h.us, us)
	h.sink += sum
	h.mu.Unlock()
}

// watch samples the kernel every period, from a goroutine of its own, until
// the returned stop is called: the host's speed over a stretch of work that
// has no repeated operation to sample beside, such as a set-up.
func (h *hostSpeed) watch(period time.Duration) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				h.sample()
			case <-quit:
				return
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// atLeast scales a least time (or divides a rate built on least times): the
// kernel's own least time is what the host's quietest moment in the stretch
// allowed.
func (h *hostSpeed) atLeast() float64 { return nominalCalUs / slices.Min(h.us) }

// typical scales a time that spans the whole stretch, such as a set-up: the
// kernel's median is the host's speed over the stretch.
func (h *hostSpeed) typical() float64 { return nominalCalUs / median(h.us) }
