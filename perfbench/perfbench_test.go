package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"oscachesim/internal/core"
	"oscachesim/internal/sim"
	"oscachesim/internal/workload"
)

// tinyRun runs one workload on test-size inputs.
func tinyRun(t *testing.T, name string, traced bool, f faults) *result {
	t.Helper()
	opt := options{
		Workload: name, Seed: 3, Duration: 300 * time.Millisecond, Trace: traced,
		Tiny: true, Root: "..", OutDir: t.TempDir(), Faults: f,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := run(ctx, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// findCheck returns the named check's verdict.
func findCheck(t *testing.T, res *result, name string) verdict {
	t.Helper()
	for _, c := range res.Checks {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("no check %q in %+v", name, res.Checks)
	return verdict{}
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name + "/untraced"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res := tinyRun(t, w.name, traced, faults{})
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%t attempted=%d failed=%d checks=%+v", res.Correct, res.Attempted, res.Failed, res.Checks)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case math.IsNaN(v) || math.IsInf(v, 0):
						t.Errorf("metric %s = %v", m.Name, v)
					case !traced && v <= 0:
						t.Errorf("end-to-end metric %s = %v, want positive", m.Name, v)
					}
				}
				line, err := finalLine(res)
				if err != nil {
					t.Fatal(err)
				}
				var doc map[string]json.RawMessage
				if err := json.Unmarshal([]byte(line), &doc); err != nil || len(doc) != 4 {
					t.Errorf("final line %q: %v, %d keys", line, err, len(doc))
				}
				if traced {
					if _, err := os.Stat(res.TraceFile); err != nil {
						t.Errorf("trace file: %v", err)
					}
				}
			})
		}
	}
}

func TestWrongDigestFailsTheRun(t *testing.T) {
	res := tinyRun(t, "paper-grid", false, faults{Digest: "0000"})
	if res.Correct {
		t.Fatal("a wrong recorded digest passed")
	}
	if c := findCheck(t, res, "fixed-seed counter digest"); c.OK {
		t.Errorf("digest check passed: %+v", c)
	}
}

func TestUnexpectedExecutionFailsTheAudit(t *testing.T) {
	for _, name := range []string{"service-cold", "service-hot"} {
		t.Run(name, func(t *testing.T) {
			res := tinyRun(t, name, false, faults{ExtraExecutions: 1})
			if res.Correct {
				t.Fatal("an execution outside the expected count passed")
			}
			if c := findCheck(t, res, "exactly-once executions"); c.OK {
				t.Errorf("audit passed: %+v", c)
			}
		})
	}
}

func TestRefusedRequestCountsInErrorRate(t *testing.T) {
	res := tinyRun(t, "service-cold", true, faults{BadRequests: 2})
	if res.Failed != 2 {
		t.Fatalf("failed = %d, want 2 (attempted %d)", res.Failed, res.Attempted)
	}
	if got, want := res.Metrics["error_rate"], 2/float64(res.Attempted); got != want {
		t.Errorf("error_rate = %v, want %v", got, want)
	}
	// A refused request simulates nothing, so the audit still holds.
	if !res.Correct {
		t.Errorf("checks: %+v", res.Checks)
	}
}

func TestSameResultDetectsADifference(t *testing.T) {
	o, err := core.Run(context.Background(), core.RunConfig{Workload: workload.Shell, System: core.Base, Scale: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res := &sim.Result{Counters: o.Counters, Refs: o.Refs, CPUTime: append([]uint64(nil), o.CPUTime...)}
	if err := sameResult(o, res); err != nil {
		t.Fatalf("identical results differ: %v", err)
	}
	res.Counters.Prefetches++
	if sameResult(o, res) == nil {
		t.Error("a changed counter went unnoticed")
	}
}

func TestSpecMatchesCommittedFile(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with perfbench --write-spec:\n%s", want)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		target float64
		n      int
		want   float64
	}{
		{0.99, 1000, 0.99},
		{0.99, 999, 0.95},
		{0.999, 100000, 0.999},
		{0.75, 40, 0.75},
		{0.75, 39, 0.6},
		{0.6, 24, 0.5},
		{0.9, 5, 0.5},
	} {
		if got := tailQuantile(tc.target, tc.n); got != tc.want {
			t.Errorf("tailQuantile(%v, %d) = %v, want %v", tc.target, tc.n, got, tc.want)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "a", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "b", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "c", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "d", Start: 60, End: 70},
	}
	self := selfTimes(spans)
	if self[1] != 50 {
		t.Errorf("self time %v, want 50 (children cover 10-50 and 60-70)", self[1])
	}
	if self[3] != 30 {
		t.Errorf("leaf self time %v, want its duration 30", self[3])
	}
}
