package workload

import (
	"strings"
	"testing"

	"oscachesim/internal/kernel"
	"oscachesim/internal/scenario"
)

// TestScenarioBaseNamesMatch cross-checks the scenario package's
// duplicated base-profile list against the authoritative one here:
// every workload name must be accepted as a scenario base (the list
// is duplicated because workload imports scenario, not vice versa).
func TestScenarioBaseNamesMatch(t *testing.T) {
	for _, n := range Names() {
		s := &scenario.Spec{Name: "t", Base: string(n), Phases: []scenario.Phase{{Rounds: 1}}}
		if err := s.Validate(); err != nil {
			t.Errorf("workload %q rejected as a scenario base: %v", n, err)
		}
		// And the base must actually resolve to a profile at build time.
		if _, err := BuildSpec(s, kernel.OptConfig{}, 1, 1, 0); err != nil {
			t.Errorf("BuildSpec with base %q: %v", n, err)
		}
	}
	bad := &scenario.Spec{Name: "t", Base: "NotAWorkload", Phases: []scenario.Phase{{Rounds: 1}}}
	if err := bad.Validate(); err == nil {
		t.Error("unknown base accepted")
	}
}

func TestSpecWorkloadName(t *testing.T) {
	spec, err := scenario.Preset("fs-naive")
	if err != nil {
		t.Fatal(err)
	}
	if got := SpecWorkloadName(spec); got != Name("scenario:fs-naive") {
		t.Fatalf("SpecWorkloadName = %q", got)
	}
}

func TestDescriptions(t *testing.T) {
	for _, n := range Names() {
		if Description(n) == "" {
			t.Errorf("workload %q has no description", n)
		}
	}
	if Description(Name("nope")) != "" {
		t.Error("unknown workload has a description")
	}
}

// TestBuildSpecValidates pins the error paths: an invalid spec and an
// out-of-range CPU count must be rejected before any generation.
func TestBuildSpecValidates(t *testing.T) {
	bad := &scenario.Spec{Name: "t", Phases: []scenario.Phase{{Rounds: 0}}}
	if _, err := BuildSpec(bad, kernel.OptConfig{}, 1, 1, 0); err == nil ||
		!strings.Contains(err.Error(), "rounds") {
		t.Fatalf("invalid spec not rejected: %v", err)
	}
	good, _ := scenario.Preset("fs-naive")
	if _, err := BuildSpec(good, kernel.OptConfig{}, 1, 1, MaxCPUs+1); err == nil {
		t.Fatal("CPU count past MaxCPUs accepted")
	}
	if _, err := StreamSpec(bad, kernel.OptConfig{}, 1, 1, StreamOptions{}); err == nil {
		t.Fatal("StreamSpec accepted an invalid spec")
	}
}

func TestBuildSpecDeterministic(t *testing.T) {
	spec, _ := scenario.Preset("os-mix")
	a, err := BuildSpec(spec, kernel.OptConfig{}, 2, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildSpec(spec, kernel.OptConfig{}, 2, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	for c := range a.PerCPU {
		if len(a.PerCPU[c]) != len(b.PerCPU[c]) {
			t.Fatalf("cpu %d: %d refs vs %d", c, len(a.PerCPU[c]), len(b.PerCPU[c]))
		}
		for i := range a.PerCPU[c] {
			if a.PerCPU[c][i] != b.PerCPU[c][i] {
				t.Fatalf("cpu %d ref %d differs across identical builds", c, i)
			}
		}
	}
	a.Release()
	b.Release()
}

// TestStreamSpecMatchesBuildSpec pins the scenario counterpart of the
// streaming tentpole invariant: for every preset (covering the
// false-sharing emitters, sharing traffic, block operations and a
// composed base profile), the streaming producer emits exactly the
// reference sequences the materialized build does — including on a
// wider machine than the paper's.
func TestStreamSpecMatchesBuildSpec(t *testing.T) {
	opts := []kernel.OptConfig{
		{},
		{BlockDMA: true, Privatize: true, Relocate: true, HotSpotPrefetch: true},
	}
	for _, name := range scenario.PresetNames() {
		for _, opt := range opts {
			for _, ncpus := range []int{0, 8} {
				spec, err := scenario.Preset(name)
				if err != nil {
					t.Fatal(err)
				}
				built, err := BuildSpec(spec, opt, 1, 7, ncpus)
				if err != nil {
					t.Fatal(err)
				}
				st, err := streamSpec(spec, opt, 1, 7, StreamOptions{NumCPUs: ncpus}, 512, 2048)
				if err != nil {
					t.Fatal(err)
				}
				got := drainStream(t, st)
				for c := range built.PerCPU {
					want := built.PerCPU[c]
					if len(got[c]) != len(want) {
						t.Fatalf("%s/%d cpus, cpu %d: streamed %d refs, built %d",
							name, ncpus, c, len(got[c]), len(want))
					}
					for i := range want {
						if got[c][i] != want[i] {
							t.Fatalf("%s/%d cpus, cpu %d ref %d: streamed %+v, built %+v",
								name, ncpus, c, i, got[c][i], want[i])
						}
					}
				}
				built.Release()
			}
		}
	}
}
