package sim

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"oscachesim/internal/kernel"
	"oscachesim/internal/trace"
	"oscachesim/internal/workload"
)

// funcSources wraps each per-CPU stream in a Next-only FuncSource, so
// New has to put the batch adapter in front of it.
func funcSources(per [][]trace.Ref) []trace.Source {
	srcs := make([]trace.Source, len(per))
	for c, refs := range per {
		pos := 0
		srcs[c] = trace.FuncSource(func() (trace.Ref, bool) {
			if pos == len(refs) {
				return trace.Ref{}, false
			}
			pos++
			return refs[pos-1], true
		})
	}
	return srcs
}

// TestWindowSourceKinds runs the same trace over SliceSources (batch
// reads straight from the slice) and over adapter-wrapped FuncSources
// (batches filled one Next at a time) and requires byte-equal
// measurements: the reference window must not depend on how a source
// delivers its batches.
func TestWindowSourceKinds(t *testing.T) {
	for _, tc := range []struct {
		cpus int
		coh  CoherenceKind
	}{
		{4, CoherenceSnoop},
		{64, CoherenceDirectory},
	} {
		t.Run(fmt.Sprintf("%s/cpus=%d", tc.coh, tc.cpus), func(t *testing.T) {
			p := DefaultParams()
			p.NumCPUs = tc.cpus
			p.Coherence = tc.coh
			b := workload.BuildN(workload.TRFD4, kernel.OptConfig{}, 2, 7, tc.cpus)
			run := func(srcs []trace.Source) *Result {
				s, err := New(p, srcs)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			slices := run(b.Sources())
			funcs := run(funcSources(b.PerCPU))
			if slices.Refs != uint64(b.TotalRefs()) {
				t.Fatalf("simulated %d refs, trace has %d", slices.Refs, b.TotalRefs())
			}
			if slices.Counters != funcs.Counters {
				t.Errorf("counters differ between SliceSource and FuncSource runs")
			}
			if !reflect.DeepEqual(slices.CPUTime, funcs.CPUTime) {
				t.Errorf("CPUTime: slices %v, funcs %v", slices.CPUTime, funcs.CPUTime)
			}
			if slices.Refs != funcs.Refs {
				t.Errorf("Refs: slices %d, funcs %d", slices.Refs, funcs.Refs)
			}
		})
	}
}
