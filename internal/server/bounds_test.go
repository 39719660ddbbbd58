package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"oscachesim/internal/core"
	"oscachesim/internal/scenario"
	"oscachesim/internal/sim"
)

// TestMachineBufferBounds pins the upper bound on the per-CPU buffer
// capacities a run request may ask for. The simulator allocates each
// buffer up front, so an unbounded mshr or write-buffer depth used to
// decode cleanly and then panic the worker in makeslice. Decode only:
// nothing here runs a simulation.
func TestMachineBufferBounds(t *testing.T) {
	for _, field := range []string{"mshr", "l1_wb_depth", "l2_wb_depth"} {
		for _, v := range []int64{1125899906842624, maxBufDepth + 1, 0, -1} {
			body := fmt.Sprintf(`{"workload":"Shell","system":"Base","scale":1,"machine":{%q:%d}}`, field, v)
			_, _, err := decodeRunRequest(strings.NewReader(body))
			var fe *FieldError
			if !errors.As(err, &fe) || fe.Field != "machine."+field {
				t.Errorf("%s=%d: got %v, want a FieldError at machine.%s", field, v, err, field)
			}
		}
		body := fmt.Sprintf(`{"workload":"Shell","system":"Base","scale":1,"machine":{%q:%d}}`, field, maxBufDepth)
		if _, _, err := decodeRunRequest(strings.NewReader(body)); err != nil {
			t.Errorf("%s=%d (the bound) rejected: %v", field, maxBufDepth, err)
		}
	}
}

// TestInternalComputeBounds pins that POST /v1/internal/compute, which
// every node serves, applies the public request bounds to the
// configuration it rebuilds: a correctly keyed body over any bound
// answers 400 without reaching the simulator.
func TestInternalComputeBounds(t *testing.T) {
	var calls atomic.Int32
	_, ts := newTestServer(t, Options{
		Workers:    1,
		QueueDepth: 4,
		execute: func(ctx context.Context, cfg core.RunConfig) (*core.Outcome, error) {
			calls.Add(1)
			return &core.Outcome{Config: cfg}, nil
		},
	})
	post := func(cfg core.RunConfig) (int, ErrorBody) {
		t.Helper()
		status, body, _, err := postCompute(ts.URL, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var eb ErrorBody
		json.Unmarshal(body, &eb)
		return status, eb
	}
	machine := func(edit func(*sim.Params)) *sim.Params {
		p := sim.DefaultParams()
		edit(&p)
		return &p
	}
	longSpec := &scenario.Spec{Name: "long", Phases: []scenario.Phase{{Rounds: maxScenarioRounds / 2}}}
	cases := []struct {
		name, field string
		cfg         core.RunConfig
	}{
		{"scale", "scale", core.RunConfig{Scale: maxScale + 1}},
		{"scenario rounds", "", core.RunConfig{Scenario: longSpec, Scale: 3}},
		{"invalid scenario", "scenario.spec.phases[0].rounds", core.RunConfig{Scenario: &scenario.Spec{Name: "bad", Phases: []scenario.Phase{{Rounds: -1}}}}},
		{"cache size", "machine.L2.Size", core.RunConfig{Machine: machine(func(p *sim.Params) { p.L2.Size = 2 * maxCacheKB * 1024 })}},
		{"line size", "machine.L2.LineSize", core.RunConfig{Machine: machine(func(p *sim.Params) { p.L2.LineSize = 2 * maxLineBytes })}},
		{"associativity", "machine.L1D.Assoc", core.RunConfig{Machine: machine(func(p *sim.Params) { p.L1D.Assoc = 2 * maxAssoc })}},
		{"mshr", "machine.MSHREntries", core.RunConfig{Machine: machine(func(p *sim.Params) { p.MSHREntries = 1 << 50 })}},
		{"l1 write buffer", "machine.L1WriteBufDepth", core.RunConfig{Machine: machine(func(p *sim.Params) { p.L1WriteBufDepth = maxBufDepth + 1 })}},
		{"l2 write buffer", "machine.L2WriteBufDepth", core.RunConfig{Machine: machine(func(p *sim.Params) { p.L2WriteBufDepth = 1 << 50 })}},
		{"prefetch buffer", "machine.PrefBufLines", core.RunConfig{Machine: machine(func(p *sim.Params) { p.PrefBufLines = maxBufDepth + 1 })}},
		{"memory latency", "machine.MemCycles", core.RunConfig{Machine: machine(func(p *sim.Params) { p.MemCycles = 1 << 40 })}},
		{"dma cost", "machine.DMACyclesPer8B", core.RunConfig{Machine: machine(func(p *sim.Params) { p.DMACyclesPer8B = 1 << 40 })}},
		{"invalid machine", "machine.MSHREntries", core.RunConfig{Machine: machine(func(p *sim.Params) { p.MSHREntries = 0 })}},
	}
	for _, c := range cases {
		c.cfg.Workload, c.cfg.System, c.cfg.Seed = "Shell", core.Base, 1
		status, eb := post(c.cfg)
		if status != http.StatusBadRequest || eb.Error.Code != "bad_request" || eb.Error.Field != c.field {
			t.Errorf("%s: HTTP %d %+v, want 400 bad_request at field %q", c.name, status, eb.Error, c.field)
		}
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("over-bound computes reached the simulator %d times, want 0", n)
	}

	// At the bounds the same route still computes.
	ok := core.RunConfig{Workload: "Shell", System: core.Base, Seed: 1, Scale: maxScale,
		Machine: machine(func(p *sim.Params) {
			p.MSHREntries, p.L2WriteBufDepth = maxBufDepth, maxBufDepth
			p.MemCycles, p.DMACyclesPer8B = maxCycles, maxCycles
		})}
	if status, eb := post(ok); status != http.StatusOK {
		t.Fatalf("in-bound compute: HTTP %d %+v, want 200", status, eb.Error)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("in-bound compute ran %d times, want 1", n)
	}
}
