package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's measurements from a `go test -bench` run.
type Result struct {
	// Iterations is the b.N the run settled on.
	Iterations int64 `json:"iterations"`
	// NsPerOp is wall-clock time per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are the -benchmem / ReportAllocs
	// columns; -1 when the run did not report them.
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds custom b.ReportMetric columns ("Mrefs/s").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// parseFile reads a `go test -bench` output file into per-benchmark
// results. Benchmark names are normalized by stripping the -GOMAXPROCS
// suffix so runs from machines with different core counts compare.
func parseFile(path string) (map[string]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]Result)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, r, ok := parseLine(sc.Text())
		if ok {
			out[name] = r
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines found", path)
	}
	return out, nil
}

// parseLine parses one "BenchmarkX-8  100  123 ns/op  4 allocs/op"
// line; ok is false for non-benchmark lines.
func parseLine(line string) (string, Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", Result{}, false
	}
	name := fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", Result{}, false
	}
	r := Result{Iterations: iters, BytesPerOp: -1, AllocsPerOp: -1}
	// The remainder is "value unit" pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = v
		}
	}
	return name, r, true
}

// Comparison is one benchmark's before/after record.
type Comparison struct {
	Name string `json:"name"`
	// Old or New is nil when the benchmark exists on only one side
	// (added or removed); such entries are never regressions.
	Old *Result `json:"old,omitempty"`
	New *Result `json:"new,omitempty"`
	// NsRatio and AllocRatio are new/old (0 when either side is
	// missing; AllocRatio is 0 when old had no allocation column).
	NsRatio    float64 `json:"ns_ratio,omitempty"`
	AllocRatio float64 `json:"alloc_ratio,omitempty"`
	// AllocRegression marks allocs/op growth beyond the threshold.
	AllocRegression bool `json:"alloc_regression,omitempty"`
}

// Report is the JSON document benchdiff emits.
type Report struct {
	// Threshold is the allowed fractional allocs/op growth.
	Threshold float64 `json:"threshold"`
	// NumCPU and GOMAXPROCS record the gate machine's parallelism, for
	// reading the parallel-scheduler numbers in context.
	NumCPU     int          `json:"num_cpu"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Benchmarks []Comparison `json:"benchmarks"`
	// Failed is true when any benchmark regressed.
	Failed bool `json:"failed"`
}

// diff joins the two runs by benchmark name and applies the gate.
func diff(oldRes, newRes map[string]Result, threshold float64) Report {
	names := make(map[string]bool, len(oldRes)+len(newRes))
	for n := range oldRes {
		names[n] = true
	}
	for n := range newRes {
		names[n] = true
	}
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)

	rep := Report{Threshold: threshold}
	for _, n := range ordered {
		c := Comparison{Name: n}
		if o, ok := oldRes[n]; ok {
			o := o
			c.Old = &o
		}
		if nw, ok := newRes[n]; ok {
			nw := nw
			c.New = &nw
		}
		if c.Old != nil && c.New != nil {
			if c.Old.NsPerOp > 0 {
				c.NsRatio = c.New.NsPerOp / c.Old.NsPerOp
			}
			if c.Old.AllocsPerOp >= 0 && c.New.AllocsPerOp >= 0 {
				if c.Old.AllocsPerOp > 0 {
					c.AllocRatio = c.New.AllocsPerOp / c.Old.AllocsPerOp
				}
				// A benchmark that was allocation-free must stay so;
				// otherwise growth is capped at the threshold.
				limit := c.Old.AllocsPerOp * (1 + threshold)
				if c.New.AllocsPerOp > limit {
					c.AllocRegression = true
					rep.Failed = true
				}
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, c)
	}
	return rep
}
