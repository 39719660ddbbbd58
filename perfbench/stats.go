package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for no samples). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tailLadder lists the percentiles run_ptail_ms may report.
var tailLadder = []float64{0.5, 0.6, 0.75, 0.9, 0.95, 0.99, 0.999}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailQuantile returns the percentile run_ptail_ms reports for n
// samples: the workload's target if at least minBeyond samples lie
// beyond it, else the highest ladder step that has them (the median when
// none does). A fixed target keeps the metric comparable between a
// parent and a change whose sample counts differ.
func tailQuantile(target float64, n int) float64 {
	best := tailLadder[0]
	for _, q := range tailLadder {
		if q <= target && float64(n)*(1-q) >= minBeyond {
			best = q
		}
	}
	return best
}

// memSnap is the Go runtime's allocation and GC state at one instant.
type memSnap struct {
	totalAlloc uint64
	numGC      uint32
	gcCPU      float64 // cumulative GC CPU seconds
	allCPU     float64 // cumulative CPU seconds available to the process
	heapLive   uint64  // heap in use after a forced collection
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// readMem samples allocation and GC counters, then forces a collection
// to measure the live heap. The forced collection is taken after the
// counters so it is not charged to the measured phase.
func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	s := memSnap{totalAlloc: ms.TotalAlloc, numGC: ms.NumGC}
	if cpuSamples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = cpuSamples[0].Value.Float64()
	}
	if cpuSamples[1].Value.Kind() == metrics.KindFloat64 {
		s.allCPU = cpuSamples[1].Value.Float64()
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	s.heapLive = ms.HeapAlloc
	return s
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB, or,
// where /proc is unavailable, the memory the Go runtime obtained from
// the OS.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if fields := strings.Fields(rest); len(fields) > 0 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
