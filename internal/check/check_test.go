package check

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"oscachesim/internal/coherence"
	"oscachesim/internal/core"
	"oscachesim/internal/sim"
	"oscachesim/internal/workload"
)

// testScale keeps the 4x8 differential grid in the seconds range.
const testScale = 3

// TestDifferentialAllSystems runs the oracle in lockstep with the
// simulator over the full evaluation grid: every workload under every
// system, at reduced scale.
func TestDifferentialAllSystems(t *testing.T) {
	for _, w := range workload.Names() {
		for _, sys := range core.Systems() {
			w, sys := w, sys
			t.Run(string(w)+"/"+sys.String(), func(t *testing.T) {
				o, err := Differential(context.Background(), core.RunConfig{
					Workload: w, System: sys, Scale: testScale, Seed: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				if o.Refs == 0 {
					t.Fatal("no references simulated")
				}
			})
		}
	}
}

// tamperer corrupts the first read fill's claimed state before
// forwarding the event stream to the oracle — the mutation smoke test:
// a corrupted coherence transition must surface as a divergence
// carrying ref index, CPU, address and expected/actual state.
type tamperer struct {
	inner    sim.Observer
	tampered bool
}

func (t *tamperer) Observe(ev sim.Event) {
	if !t.tampered && ev.Kind == sim.EvFillRead && ev.State == coherence.Exclusive {
		ev.State = coherence.Modified
		t.tampered = true
	}
	t.inner.Observe(ev)
}

func TestCheckerDetectsCorruptedTransition(t *testing.T) {
	var k *Checker
	var tam *tamperer
	_, err := core.Run(context.Background(), core.RunConfig{
		Workload: workload.Shell, System: core.Base, Scale: testScale, Seed: 1,
		Monitor: func(s *sim.Simulator) {
			k = Attach(s)
			tam = &tamperer{inner: k}
			s.SetObserver(tam)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tam.tampered {
		t.Fatal("trace produced no Exclusive read fill to corrupt")
	}
	divs := k.Report()
	if len(divs) == 0 {
		t.Fatal("oracle missed a corrupted coherence transition")
	}
	d := divs[0]
	if d.RefIndex == 0 {
		t.Errorf("divergence lacks a reference index: %v", d)
	}
	if d.Expected == "" || d.Actual == "" {
		t.Errorf("divergence lacks expected/actual states: %v", d)
	}
	if !strings.Contains(d.String(), "cpu") || !strings.Contains(d.String(), "0x") {
		t.Errorf("divergence report lacks CPU or address: %v", d)
	}
	t.Logf("first divergence: %v", d)
}

// TestSeedDeterminism: the same configuration and seed must reproduce
// a bit-identical outcome.
func TestSeedDeterminism(t *testing.T) {
	cfg := core.RunConfig{Workload: workload.TRFD4, System: core.BCPref, Scale: testScale, Seed: 7}
	a, err := core.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Counters, b.Counters) {
		t.Error("same seed produced different counters")
	}
	if a.Refs != b.Refs || !reflect.DeepEqual(a.CPUTime, b.CPUTime) {
		t.Error("same seed produced different reference counts or clocks")
	}
	c, err := core.Run(context.Background(), core.RunConfig{Workload: workload.TRFD4, System: core.BCPref, Scale: testScale, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Counters, c.Counters) {
		t.Error("different seeds produced identical counters (seed not plumbed through)")
	}
}

// TestVerifyOutcomeCatchesViolations corrupts counters one law at a
// time and expects VerifyOutcome to object.
func TestVerifyOutcomeCatchesViolations(t *testing.T) {
	good, err := core.Run(context.Background(), core.RunConfig{Workload: workload.Shell, System: core.Base, Scale: testScale, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyOutcome(good); err != nil {
		t.Fatalf("clean run fails conservation laws: %v", err)
	}

	corruptions := []struct {
		name string
		mut  func(o *core.Outcome)
	}{
		{"miss-class sum", func(o *core.Outcome) { o.Counters.OSMissBy[0]++ }},
		{"coherence sub-class sum", func(o *core.Outcome) { o.Counters.OSCohBy[0]++ }},
		{"misses exceed reads", func(o *core.Outcome) { o.Counters.DReadMisses[0] = o.Counters.DReads[0] + 1 }},
		{"time conservation", func(o *core.Outcome) { o.Counters.Time[0].Exec++ }},
		{"cycle maximum", func(o *core.Outcome) { o.Counters.Cycles++ }},
	}
	for _, c := range corruptions {
		bad := *good
		bad.Counters = good.Counters
		c.mut(&bad)
		if err := VerifyOutcome(&bad); err == nil {
			t.Errorf("%s: corruption passed the conservation laws", c.name)
		}
	}
}

// TestMonotonicity: growing the primary data cache must not increase
// read misses on the same trace. The small slack tolerates the
// set-mapping shifts of a direct-mapped cache.
func TestMonotonicity(t *testing.T) {
	sizes := []uint64{8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024}
	err := Monotonicity(context.Background(), workload.Shell, core.Base, testScale, 1, sizes, 0.5)
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheckerObservesEverySystem sanity-checks that the event stream
// is non-trivial under each hardware scheme (the oracle would trivially
// "pass" if the simulator stopped emitting).
func TestCheckerObservesEverySystem(t *testing.T) {
	for _, sys := range []core.System{core.Base, core.BlkBypass, core.BlkDma, core.BCohRelUp} {
		var k *Checker
		_, err := core.Run(context.Background(), core.RunConfig{
			Workload: workload.Shell, System: sys, Scale: testScale, Seed: 1,
			Monitor: func(s *sim.Simulator) { k = Attach(s) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if k.Events() == 0 {
			t.Errorf("%s: simulator emitted no events", sys)
		}
	}
}
