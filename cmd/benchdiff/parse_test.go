package main

import "testing"

func TestParseLine(t *testing.T) {
	name, r, ok := parseLine("BenchmarkSimulatorThroughput-8 \t 47626429\t        45.20 ns/op\t        22.12 Mrefs/s\t       0 B/op\t       0 allocs/op")
	if !ok {
		t.Fatal("line not recognized")
	}
	if name != "BenchmarkSimulatorThroughput" {
		t.Errorf("name = %q (GOMAXPROCS suffix should be stripped)", name)
	}
	if r.Iterations != 47626429 || r.NsPerOp != 45.20 || r.BytesPerOp != 0 || r.AllocsPerOp != 0 {
		t.Errorf("parsed %+v", r)
	}
	if r.Metrics["Mrefs/s"] != 22.12 {
		t.Errorf("custom metric = %v", r.Metrics)
	}

	for _, bad := range []string{
		"ok  \toscachesim\t4.792s",
		"pkg: oscachesim",
		"PASS",
		"",
	} {
		if _, _, ok := parseLine(bad); ok {
			t.Errorf("non-benchmark line %q parsed", bad)
		}
	}
}

func TestDiffGate(t *testing.T) {
	oldRes := map[string]Result{
		"BenchmarkA":    {NsPerOp: 100, AllocsPerOp: 100, BytesPerOp: 1000},
		"BenchmarkB":    {NsPerOp: 100, AllocsPerOp: 0, BytesPerOp: 0},
		"BenchmarkGone": {NsPerOp: 1, AllocsPerOp: 1},
	}
	newRes := map[string]Result{
		"BenchmarkA":   {NsPerOp: 90, AllocsPerOp: 109, BytesPerOp: 900}, // +9%: within threshold
		"BenchmarkB":   {NsPerOp: 100, AllocsPerOp: 0, BytesPerOp: 0},
		"BenchmarkNew": {NsPerOp: 1, AllocsPerOp: 1},
	}
	rep := diff(oldRes, newRes, 0.10)
	if rep.Failed {
		t.Fatalf("within-threshold diff failed: %+v", rep)
	}

	newRes["BenchmarkA"] = Result{NsPerOp: 90, AllocsPerOp: 111} // +11%: over
	rep = diff(oldRes, newRes, 0.10)
	if !rep.Failed {
		t.Fatal("11% alloc growth passed a 10% gate")
	}

	// An allocation-free benchmark must stay allocation-free.
	newRes["BenchmarkA"] = oldRes["BenchmarkA"]
	newRes["BenchmarkB"] = Result{NsPerOp: 100, AllocsPerOp: 1}
	rep = diff(oldRes, newRes, 0.10)
	if !rep.Failed {
		t.Fatal("0 -> 1 allocs/op passed the gate")
	}
}
