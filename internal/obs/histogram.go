package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the bucket count: power-of-two upper bounds from 1µs
// (bucket 0) through 2^(histBuckets-2) µs ≈ 33.6s (bucket
// histBuckets-2), plus the +Inf overflow bucket. Log bucketing keeps
// Observe at one bits.Len64 and one atomic add — cheap enough for every
// frame of every session — while spanning sub-millisecond entropy
// passes and multi-second stalls in one fixed slab.
const histBuckets = 27

// Histogram is a lock-free log-bucketed latency histogram exposed in
// the Prometheus text format. The zero value is NOT ready; use
// NewHistogram. All methods are safe for concurrent use.
type Histogram struct {
	name    string
	help    string
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sumNs   atomic.Int64
}

// NewHistogram builds a histogram exposed under the given metric name
// (conventionally ending in _seconds).
func NewHistogram(name, help string) *Histogram {
	return &Histogram{name: name, help: help}
}

// Observe records one duration. Non-positive observations land in the
// first bucket (they happen: a clock step, or a sub-resolution phase).
func (h *Histogram) Observe(d time.Duration) {
	us := uint64(d / time.Microsecond)
	b := bits.Len64(us) // 0 for 0..1µs, k for (2^(k-1), 2^k] µs
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNs.Load()) }

// bucketBoundSeconds is bucket b's upper bound in seconds.
func bucketBoundSeconds(b int) float64 {
	return float64(uint64(1)<<uint(b)) / 1e6
}

// WriteProm writes the histogram in Prometheus text exposition format
// 0.0.4: HELP/TYPE, cumulative le buckets in seconds, +Inf, _sum and
// _count. Bucket counts are loaded low-to-high, so a concurrent
// Observe can only make the rendered buckets conservatively cumulative
// (a higher bucket may include an observation a lower one missed),
// never decreasing.
func (h *Histogram) WriteProm(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name)
	var cum int64
	for b := 0; b < histBuckets-1; b++ {
		cum += h.buckets[b].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, fmtBound(bucketBoundSeconds(b)), cum)
	}
	cum += h.buckets[histBuckets-1].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", h.name, float64(h.sumNs.Load())/1e9)
	fmt.Fprintf(w, "%s_count %d\n", h.name, cum)
}

// fmtBound renders a bucket bound without exponent notation ambiguity
// ("1e-06" is valid Prometheus, but fixed-point reads better in tests
// and terminals).
func fmtBound(s float64) string {
	return fmt.Sprintf("%g", s)
}
