package experiment

import (
	"testing"

	"oscachesim/internal/core"
	"oscachesim/internal/workload"
)

// TestRunnerParallelWarmUp drives a concurrent warm-up through the
// worker pool so `go test -race` can observe the store lookup and the
// singleflight table under real contention. The pair list deliberately
// repeats entries: concurrent requests for the same key race to start,
// join or find the same simulation.
func TestRunnerParallelWarmUp(t *testing.T) {
	r := NewRunner(Config{Scale: 3, Seed: 1, Workers: 4})
	cfgs := []core.RunConfig{
		r.configFor(workload.Shell, core.Base),
		r.configFor(workload.Shell, core.BlkDma),
		r.configFor(workload.TRFD4, core.Base),
		r.configFor(workload.TRFD4, core.BCPref),
		r.configFor(workload.Shell, core.Base), // duplicate: same-key contention
		r.configFor(workload.TRFD4, core.Base),
	}
	if _, err := r.RunConfigs(r.ctx, cfgs); err != nil {
		t.Fatal(err)
	}
	// Post-warm-up reads must hit the cache and agree with a serial
	// runner on the same configuration.
	serial := NewRunner(Config{Scale: 3, Seed: 1})
	for _, cfg := range cfgs {
		a, err := r.Outcome(cfg.Workload, cfg.System)
		if err != nil {
			t.Fatal(err)
		}
		b, err := serial.Outcome(cfg.Workload, cfg.System)
		if err != nil {
			t.Fatal(err)
		}
		if a.Counters != b.Counters {
			t.Errorf("%s/%s: parallel and serial runs disagree", cfg.Workload, cfg.System)
		}
	}
}

// TestSchedulerStats pins the per-worker accounting contract: after a
// RunConfigs call the Runner reports one WorkerStats entry per worker,
// the run counts add up to the executed work, and busy time is
// nonzero wherever runs happened. Exercised in parallel and serial
// form (the serial path reports a single worker).
func TestSchedulerStats(t *testing.T) {
	r := NewRunner(Config{Scale: 3, Seed: 1, Workers: 2})
	if r.LastSchedulerStats() != nil {
		t.Error("stats present before any RunConfigs call")
	}
	cfgs := make([]core.RunConfig, 0, 6)
	for _, sys := range []core.System{core.Base, core.BlkDma, core.BCPref} {
		for _, w := range []workload.Name{workload.Shell, workload.TRFD4} {
			cfgs = append(cfgs, core.RunConfig{Workload: w, System: sys, Scale: 3, Seed: 1})
		}
	}
	if _, err := r.RunConfigs(r.ctx, cfgs); err != nil {
		t.Fatal(err)
	}
	sched := r.LastSchedulerStats()
	if len(sched) != 2 {
		t.Fatalf("got %d worker entries, want 2", len(sched))
	}
	totalRuns := 0
	for i, ws := range sched {
		totalRuns += ws.Runs
		if ws.Runs > 0 && ws.Busy <= 0 {
			t.Errorf("worker %d ran %d configs with no busy time", i, ws.Runs)
		}
	}
	if totalRuns != len(cfgs) {
		t.Errorf("workers report %d runs, want %d", totalRuns, len(cfgs))
	}

	serial := NewRunner(Config{Scale: 3, Seed: 1})
	if _, err := serial.RunConfigs(serial.ctx, cfgs[:2]); err != nil {
		t.Fatal(err)
	}
	sched = serial.LastSchedulerStats()
	if len(sched) != 1 || sched[0].Runs != 2 {
		t.Errorf("serial stats = %+v, want one worker with 2 runs", sched)
	}
}
