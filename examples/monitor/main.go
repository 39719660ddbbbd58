// Monitor demonstrates the paper's tracing methodology (Sections
// 2.1-2.2) end to end: the kernel's reference stream is instrumented
// with escape loads (one odd-address read per basic block, since the
// hardware probes could not see instruction fetches that hit the
// primary instruction cache), captured through per-processor trace
// buffers with the halt/drain/restart protocol, reconstructed back
// into a full instruction+data trace, and finally simulated — with the
// result compared against simulating the original stream directly.
//
// Run with:
//
//	go run ./examples/monitor
package main

import (
	"context"
	"fmt"
	"log"
	"reflect"

	"oscachesim/internal/core"
	"oscachesim/internal/kernel"
	"oscachesim/internal/monitor"
	"oscachesim/internal/trace"
	"oscachesim/internal/workload"
)

func main() {
	// 1. Build a workload the way the study's machine ran one.
	built := workload.Build(workload.TRFD4, kernel.OptConfig{}, 6, 1)
	fmt.Printf("workload: %s, %d references across %d processors\n",
		built.Name, built.TotalRefs(), len(built.PerCPU))

	// 2. Instrument every basic block with an escape load.
	table := monitor.NewBlockTable()
	instrumented := make([][]trace.Ref, len(built.PerCPU))
	var stats monitor.InstrumentStats
	for c, refs := range built.PerCPU {
		out, st := monitor.Instrument(refs, table)
		instrumented[c] = out
		stats.Instrs += st.Instrs
		stats.Escapes += st.Escapes
		stats.DataRefs += st.DataRefs
	}
	fmt.Printf("instrumented: %d basic blocks, %d escapes, %.1f%% instruction overhead (paper: ~30%%)\n",
		table.Blocks(), stats.Escapes, 100*stats.Overhead())

	// 3. Capture through the hardware probes (1M-entry buffers in the
	// original; smaller here to show several dump cycles).
	records, probes := monitor.CaptureSession(instrumented, 1<<15)
	fmt.Printf("captured: %d records on cpu0 across %d buffer dumps\n",
		probes[0].TotalCaptured, probes[0].Dumps)

	// 4. Reconstruct the full streams and verify fidelity.
	reconstructed := make([][]trace.Ref, len(records))
	for c := range records {
		full, err := monitor.Reconstruct(records[c], table)
		if err != nil {
			log.Fatal(err)
		}
		if !reflect.DeepEqual(full, built.PerCPU[c]) {
			log.Fatalf("cpu%d: reconstruction diverged from the original stream", c)
		}
		reconstructed[c] = full
	}
	fmt.Println("reconstructed: all processor streams match the originals exactly")

	// 5. Simulate the reconstructed trace and compare against a direct
	// simulation of the same workload, both on the paper's machine.
	cfg := core.RunConfig{System: core.Base}
	fromMonitor, err := core.Replay(context.Background(), cfg, reconstructed)
	if err != nil {
		log.Fatal(err)
	}
	direct, err := core.Replay(context.Background(), cfg, built.PerCPU)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated:   %d cycles from the monitored trace, %d directly — identical: %v\n",
		fromMonitor.Counters.Cycles, direct.Counters.Cycles,
		fromMonitor.Counters == direct.Counters)
}
