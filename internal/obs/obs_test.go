package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the Prometheus bucket convention:
// bounds are inclusive upper limits, values above the last bound land
// in the +Inf overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	cases := []struct {
		v      float64
		bucket int
	}{
		{0, 0}, {0.5, 0}, {1, 0}, // exactly on a bound is inside it
		{1.0001, 1}, {2, 1},
		{2.5, 2}, {5, 2},
		{5.0001, 3}, {100, 3}, // overflow
	}
	for _, tc := range cases {
		h.Observe(tc.v)
	}
	s := h.Snapshot()
	want := []uint64{3, 2, 2, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d: count %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 9 {
		t.Errorf("count %d, want 9", s.Count)
	}
	wantSum := 0.0
	for _, tc := range cases {
		wantSum += tc.v
	}
	if math.Abs(s.Sum-wantSum) > 1e-9 {
		t.Errorf("sum %v, want %v", s.Sum, wantSum)
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unsorted bounds did not panic")
		}
	}()
	NewHistogram([]float64{1, 1})
}

// TestHistogramConcurrentWriters hammers one histogram from many
// goroutines (run under -race in CI) and checks that no observation is
// lost and the snapshot stays internally consistent.
func TestHistogramConcurrentWriters(t *testing.T) {
	h := NewHistogram(DurationBuckets())
	const writers, perWriter = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(float64(w*perWriter+i) * 1e-6)
			}
		}(w)
	}
	// Concurrent snapshots must stay consistent while writes race.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			s := h.Snapshot()
			var cum uint64
			for _, c := range s.Counts {
				cum += c
			}
			if cum != s.Count {
				t.Errorf("snapshot inconsistent: bucket total %d, count %d", cum, s.Count)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	s := h.Snapshot()
	if s.Count != writers*perWriter {
		t.Errorf("count %d, want %d", s.Count, writers*perWriter)
	}
	var wantSum float64
	for i := 0; i < writers*perWriter; i++ {
		wantSum += float64(i) * 1e-6
	}
	if math.Abs(s.Sum-wantSum) > 1e-6 {
		t.Errorf("sum %v, want %v", s.Sum, wantSum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30, 40})
	// 100 uniform observations in (0, 40]: quantiles interpolate.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.4)
	}
	s := h.Snapshot()
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.5, 20, 0.5},
		{0.9, 36, 0.5},
		{0.25, 10, 0.5},
		{1.0, 40, 0.5},
	} {
		if got := s.Quantile(tc.q); math.Abs(got-tc.want) > tc.tol {
			t.Errorf("q%.2f = %v, want %v±%v", tc.q, got, tc.want, tc.tol)
		}
	}
	// Overflow-only data reports the last finite bound.
	o := NewHistogram([]float64{1})
	o.Observe(50)
	if got := o.Snapshot().Quantile(0.5); got != 1 {
		t.Errorf("overflow quantile %v, want 1", got)
	}
	// Empty histogram.
	if got := NewHistogram([]float64{1}).Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty quantile %v, want 0", got)
	}
}

// TestNilSafety pins the enabled-but-unsubscribed contract: every
// instrument method must be a no-op on a nil receiver, and a nil
// registry must hand out nil instruments.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	var h *Histogram
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if s := h.Snapshot(); s.Count != 0 {
		t.Error("nil histogram has observations")
	}
	var r *Registry
	if r.Counter("x", "") != nil {
		t.Error("nil registry returned a counter")
	}
	if r.Histogram("x", "", nil) != nil {
		t.Error("nil registry returned a histogram")
	}
	r.GaugeFunc("x", "", func() float64 { return 1 })
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil registry exposition: %v", err)
	}
}

// TestObserveDoesNotAllocate pins the hot-path property the benchdiff
// gate depends on: counter adds and histogram observations must be
// allocation-free, subscribed or not.
func TestObserveDoesNotAllocate(t *testing.T) {
	h := NewHistogram(DurationBuckets())
	c := new(Counter)
	var nilH *Histogram
	var nilC *Counter
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(0.003)
		c.Inc()
		nilH.Observe(0.003)
		nilC.Inc()
	}); n != 0 {
		t.Errorf("observe allocates %v per op, want 0", n)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("requests_total", "requests", L("code", "200"))
	b := r.Counter("requests_total", "requests", L("code", "200"))
	if a != b {
		t.Error("same series returned distinct counters")
	}
	other := r.Counter("requests_total", "requests", L("code", "400"))
	if a == other {
		t.Error("distinct labels shared one counter")
	}
	h1 := r.Histogram("lat", "", []float64{1, 2})
	h2 := r.Histogram("lat", "", []float64{3, 4}) // existing series keeps its bounds
	if h1 != h2 {
		t.Error("same histogram series returned distinct instances")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.Histogram("requests_total", "", nil, L("code", "200"))
}

// TestPrometheusGolden pins the exact exposition output for a small
// registry: family grouping, TYPE/HELP lines, label rendering,
// cumulative buckets, sum and count.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ossimd_jobs_done_total", "jobs finished successfully")
	c.Add(7)
	r.GaugeFunc("ossimd_queue_depth", "current FIFO occupancy", func() float64 { return 3 })
	h := r.Histogram("ossimd_run_stage_seconds", "per-run stage wall clock",
		[]float64{0.1, 1}, L("stage", "simulate"))
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP ossimd_jobs_done_total jobs finished successfully
# TYPE ossimd_jobs_done_total counter
ossimd_jobs_done_total 7
# HELP ossimd_queue_depth current FIFO occupancy
# TYPE ossimd_queue_depth gauge
ossimd_queue_depth 3
# HELP ossimd_run_stage_seconds per-run stage wall clock
# TYPE ossimd_run_stage_seconds histogram
ossimd_run_stage_seconds_bucket{stage="simulate",le="0.1"} 1
ossimd_run_stage_seconds_bucket{stage="simulate",le="1"} 2
ossimd_run_stage_seconds_bucket{stage="simulate",le="+Inf"} 3
ossimd_run_stage_seconds_sum{stage="simulate"} 2.55
ossimd_run_stage_seconds_count{stage="simulate"} 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPrometheusLabelEscaping pins the escaping rules for label values.
func TestPrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "", L("path", `a"b\c`+"\n"))
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `c_total{path="a\"b\\c\n"} 0`
	if !strings.Contains(b.String(), want) {
		t.Errorf("escaped output %q does not contain %q", b.String(), want)
	}
}
