package core

import (
	"context"
	"strings"
	"testing"

	"oscachesim/internal/scenario"
	"oscachesim/internal/workload"
)

func preset(t *testing.T, name string) *scenario.Spec {
	t.Helper()
	s, err := scenario.Preset(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestScenarioCanonicalKey pins the cache-identity contract of
// scenario runs: the spec's content hash joins the key, the Workload
// label does not (Run overwrites it), and distinct specs key
// distinctly.
func TestScenarioCanonicalKey(t *testing.T) {
	a := RunConfig{Scenario: preset(t, "sharing"), System: Base, Seed: 1}
	b := RunConfig{Scenario: preset(t, "sharing"), System: Base, Seed: 1}
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Fatal("separately constructed equal specs key differently")
	}
	// Pre- vs post-normalization: Run sets Workload to the scenario
	// label; both shapes must address the same cached result.
	b.Workload = workload.SpecWorkloadName(b.Scenario)
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Fatal("workload-label normalization changed the canonical key")
	}
	// The derived sharing-degree spec is a different run.
	c := RunConfig{Scenario: preset(t, "sharing").WithSharingDegree(2), System: Base, Seed: 1}
	if c.CanonicalKey() == a.CanonicalKey() {
		t.Fatal("sharing-degree derivation did not change the canonical key")
	}
	// A scenario run never collides with a named-workload run, even if
	// a hostile label matches the scenario's.
	d := RunConfig{Workload: workload.SpecWorkloadName(preset(t, "sharing")), System: Base, Seed: 1}
	if d.CanonicalKey() == a.CanonicalKey() {
		t.Fatal("scenario run keys like a named-workload run")
	}
}

func TestRunScenario(t *testing.T) {
	o, err := Run(context.Background(), RunConfig{
		Scenario: preset(t, "fs-naive"), System: Base, Seed: 1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if o.Refs == 0 || o.Counters.Cycles == 0 {
		t.Fatalf("empty outcome: %+v", o)
	}
	if o.Config.Workload != workload.Name("scenario:fs-naive") {
		t.Fatalf("outcome workload label %q", o.Config.Workload)
	}
	if o.Config.Scenario == nil {
		t.Fatal("outcome lost its scenario spec")
	}
}

// TestRunScenarioStreamIdentical pins the strategy-independence of
// scenario runs: Run's streamed pipeline (os-mix is multi-round) must
// reproduce the whole built trace's counters exactly.
func TestRunScenarioStreamIdentical(t *testing.T) {
	base := RunConfig{Scenario: preset(t, "os-mix"), System: BCPref, Seed: 3}
	a := reference(t, base)
	b, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if a.Counters != b.Counters {
		t.Fatal("streamed scenario run diverged from the materialized run")
	}
	if a.Refs != b.Refs {
		t.Fatalf("refs %d vs %d", a.Refs, b.Refs)
	}
}

func TestRunScenarioInvalid(t *testing.T) {
	bad := &scenario.Spec{Name: "t", Phases: []scenario.Phase{{Rounds: -1}}}
	_, err := Run(context.Background(), RunConfig{Scenario: bad, System: Base, Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "rounds") {
		t.Fatalf("invalid scenario not rejected: %v", err)
	}
}
