package experiment

import (
	"context"
	"testing"

	"oscachesim/internal/core"
	"oscachesim/internal/scenario"
)

func scenarioCfg(t *testing.T, name string, sys core.System) core.RunConfig {
	t.Helper()
	spec, err := scenario.Preset(name)
	if err != nil {
		t.Fatal(err)
	}
	return core.RunConfig{Scenario: spec, System: sys, Seed: 1}
}

// TestScenarioDeterminism pins the scenario engine's execution-strategy
// independence: for every preset, the whole built trace simulated
// serially and the parallel scheduler, which streams, must produce
// identical counters. Runs under -race in CI alongside the other
// determinism tiers.
func TestScenarioDeterminism(t *testing.T) {
	ctx := context.Background()
	parallel := NewRunner(Config{Seed: 1, Workers: 4})
	for _, name := range scenario.PresetNames() {
		want := reference(t, scenarioCfg(t, name, core.Base))
		got, err := parallel.OutcomeConfig(ctx, scenarioCfg(t, name, core.Base))
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		if got.Counters != want.Counters {
			t.Errorf("%s: parallel counters differ from serial", name)
		}
		if got.Refs != want.Refs {
			t.Errorf("%s: ref totals differ across strategies", name)
		}
	}
}

// TestScenarioCacheDedup proves the scenario hash carries the run's
// cache identity end to end: two separately constructed equal specs
// deduplicate onto one simulation, and a derived sharing-degree spec
// does not.
func TestScenarioCacheDedup(t *testing.T) {
	ctx := context.Background()
	r := NewRunner(Config{Seed: 1})
	a, err := r.OutcomeConfig(ctx, scenarioCfg(t, "sharing", core.Base))
	if err != nil {
		t.Fatal(err)
	}
	before := r.Stats()
	b, err := r.OutcomeConfig(ctx, scenarioCfg(t, "sharing", core.Base))
	if err != nil {
		t.Fatal(err)
	}
	after := r.Stats()
	if after.Executions != before.Executions {
		t.Fatalf("identical scenario re-executed: %d -> %d executions",
			before.Executions, after.Executions)
	}
	if after.Hits != before.Hits+1 {
		t.Fatalf("no cache hit recorded: %+v -> %+v", before, after)
	}
	sameResult(t, a, b)
	// A different sharing degree is a different run.
	spec, _ := scenario.Preset("sharing")
	derived := core.RunConfig{Scenario: spec.WithSharingDegree(2), System: core.Base, Seed: 1}
	if _, err := r.OutcomeConfig(ctx, derived); err != nil {
		t.Fatal(err)
	}
	if r.Stats().Executions != after.Executions+1 {
		t.Fatal("derived sharing-degree spec was wrongly deduplicated")
	}
}
