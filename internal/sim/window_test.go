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

// oneAtATime is a Source that returns a single reference per Read,
// however large the batch asked for.
type oneAtATime struct{ refs []trace.Ref }

func (s *oneAtATime) Read(dst []trace.Ref) int {
	if len(s.refs) == 0 {
		return 0
	}
	dst[0], s.refs = s.refs[0], s.refs[1:]
	return 1
}

// singleRefSources gives each per-CPU stream a oneAtATime source, so
// every window refill comes back one reference long.
func singleRefSources(per [][]trace.Ref) []trace.Source {
	srcs := make([]trace.Source, len(per))
	for c, refs := range per {
		srcs[c] = &oneAtATime{refs: refs}
	}
	return srcs
}

// TestWindowSourceKinds runs the same trace over SliceSources (full
// batches straight from the slice) and over oneAtATime sources (every
// batch a single reference) and requires byte-equal measurements: the
// reference window must not depend on how a source delivers its
// batches.
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
			singles := run(singleRefSources(b.PerCPU))
			if slices.Refs != uint64(b.TotalRefs()) {
				t.Fatalf("simulated %d refs, trace has %d", slices.Refs, b.TotalRefs())
			}
			if slices.Counters != singles.Counters {
				t.Errorf("counters differ between SliceSource and oneAtATime runs")
			}
			if !reflect.DeepEqual(slices.CPUTime, singles.CPUTime) {
				t.Errorf("CPUTime: slices %v, singles %v", slices.CPUTime, singles.CPUTime)
			}
			if slices.Refs != singles.Refs {
				t.Errorf("Refs: slices %d, singles %d", slices.Refs, singles.Refs)
			}
		})
	}
}
