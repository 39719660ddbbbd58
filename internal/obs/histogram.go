package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram counts observations into fixed buckets chosen at
// construction. Writes are lock-free (one atomic add per bucket plus
// count and sum) and never allocate, so a histogram can sit on a hot
// path; reads take a Snapshot and work on that.
//
// Bucket semantics follow Prometheus: bounds are inclusive upper
// limits, and an observation lands in the first bucket whose bound is
// >= the value. Values above the last bound land in the implicit +Inf
// overflow bucket.
//
// A nil *Histogram discards observations — instrumented code does not
// need to check whether anyone subscribed.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram returns a histogram over the given upper bounds, which
// must be sorted ascending. An empty bounds slice yields a single
// +Inf bucket (count and sum only).
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be sorted ascending")
		}
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
}

// DurationBuckets returns the default bucket bounds for latency
// histograms, in seconds: 100µs to 60s, roughly 2.5x apart. The range
// covers everything from a cached job lookup to a full-scale
// simulation run.
func DurationBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
		1, 2.5, 5, 10, 30, 60,
	}
}

// WideDurationBuckets returns bucket bounds for long-running spans, in
// seconds: 1ms to 600s, roughly 2.5x apart. Campaigns fan whole grids
// across the worker pool, so their wall clock lives well above the
// per-request latency range DurationBuckets covers.
func WideDurationBuckets() []float64 {
	return []float64{
		0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
		0.1, 0.25, 0.5, 1, 2.5, 5,
		10, 30, 60, 150, 300, 600,
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts are small (≈20) and the branch
	// predictor eats sorted probes; a binary search costs more in
	// practice and reads no better.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	h.Observe(d.Seconds())
}

// Snapshot returns a point-in-time copy of the histogram. Buckets are
// read individually, so a snapshot taken under concurrent writers may
// straddle an observation; Count is recomputed as the bucket total, so
// the snapshot is always internally consistent (cumulative buckets are
// monotone and the +Inf bucket equals Count, as the exposition format
// requires). A nil histogram yields an empty snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.buckets)),
	}
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = math.Float64frombits(h.sumBits.Load())
	return s
}

// HistogramSnapshot is an immutable view of a histogram's state.
type HistogramSnapshot struct {
	// Bounds are the inclusive upper bounds; Counts has one extra
	// trailing entry for the +Inf overflow bucket.
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear
// interpolation inside the bucket that holds it, the same estimate
// Prometheus' histogram_quantile computes. Values in the +Inf bucket
// are reported as the last finite bound. Returns 0 on an empty
// snapshot.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Counts) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum+c) >= rank {
			if i >= len(s.Bounds) {
				// Overflow bucket: the honest answer is "at least the
				// last bound".
				if len(s.Bounds) == 0 {
					return 0
				}
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	if len(s.Bounds) == 0 {
		return 0
	}
	return s.Bounds[len(s.Bounds)-1]
}
