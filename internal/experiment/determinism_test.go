package experiment

import (
	"context"
	"errors"
	"testing"

	"oscachesim/internal/core"
	"oscachesim/internal/sim"
	"oscachesim/internal/workload"
)

// TestParallelSchedulerDeterminism renders every experiment twice —
// once with a serial runner and once on a runner that has already
// rendered them all on a four-worker pool, the cmd/paper path — and
// requires byte-identical output. This is the
// guarantee the parallel sweep rests on: the schedule may reorder
// *when* simulations run, but never what they compute, so `sweep
// -workers N` and the golden files stay interchangeable. The test runs
// under -race in CI, which also exercises the pool's shared index and
// the Runner cache under real contention.
func TestParallelSchedulerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid double render is slow")
	}
	cfg := TestConfig()
	serial := NewRunner(cfg)
	pcfg := cfg
	pcfg.Workers = 4
	parallel := NewRunner(pcfg)
	if err := parallel.RenderEach(All(), func(int, string) {}); err != nil {
		t.Fatal(err)
	}
	for _, e := range All() {
		want, err := e.Render(serial)
		if err != nil {
			t.Fatalf("%s serial: %v", e.ID, err)
		}
		got, err := e.Render(parallel)
		if err != nil {
			t.Fatalf("%s parallel: %v", e.ID, err)
		}
		if got != want {
			t.Errorf("%s: parallel render differs from serial", e.ID)
		}
	}
}

// TestRunConfigsOrderAndDedup checks the scheduler's two output
// contracts directly: outcomes come back in input order regardless of
// which worker ran them, and a duplicated configuration shares one
// simulation.
func TestRunConfigsOrderAndDedup(t *testing.T) {
	r := NewRunner(Config{Scale: 3, Seed: 1, Workers: 3})
	var cfgs []core.RunConfig
	for _, sys := range []core.System{core.Base, core.BlkDma, core.BCPref, core.Base} {
		cfgs = append(cfgs, core.RunConfig{Workload: workload.Shell, System: sys, Scale: 3, Seed: 1})
	}
	outs, err := r.RunConfigs(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o == nil {
			t.Fatalf("outcome %d missing", i)
		}
		if o.Config.System != cfgs[i].System {
			t.Errorf("outcome %d: got system %s, want %s", i, o.Config.System, cfgs[i].System)
		}
	}
	if st := r.Stats(); st.Executions != 3 {
		t.Errorf("stats %+v: duplicate configuration did not share one simulation", st)
	}
	sameResult(t, outs[0], outs[3])
}

// TestRunConfigsCancellation checks that a failing configuration
// cancels the remaining work and surfaces its error.
func TestRunConfigsCancellation(t *testing.T) {
	r := NewRunner(Config{Scale: 3, Seed: 1, Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfgs := []core.RunConfig{
		{Workload: workload.Shell, System: core.Base, Scale: 3, Seed: 1},
		{Workload: workload.TRFD4, System: core.Base, Scale: 3, Seed: 1},
	}
	if _, err := r.RunConfigs(ctx, cfgs); err == nil {
		t.Fatal("want error from canceled context")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestDirectoryDeterminism pins the generalized machine to the same
// reproducibility bar as the paper's: a 16-CPU directory-coherent run
// must be byte-identical whether its whole trace is built and simulated
// serially, or it runs through core.Run's streaming pipeline, directly
// or through the worker pool. Under -race
// in CI this also exercises the per-home port timelines and the
// directory map under real scheduler contention.
func TestDirectoryDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("triple directory run is slow")
	}
	machine := func() *sim.Params {
		p := sim.DefaultParams()
		p.NumCPUs = 16
		p.Coherence = sim.CoherenceDirectory
		return &p
	}
	base := core.RunConfig{
		Workload: workload.Shell, System: core.BlkDma, Scale: 2, Seed: 1,
		Machine: machine(),
	}
	want := reference(t, base)
	if want.Refs == 0 {
		t.Fatal("no references simulated")
	}

	streamed := base
	streamed.Machine = machine()
	gotStream, err := core.Run(context.Background(), streamed)
	if err != nil {
		t.Fatal(err)
	}

	r := NewRunner(Config{Scale: 2, Seed: 1, Workers: 4})
	par := base
	par.Machine = machine()
	outs, err := r.RunConfigs(context.Background(), []core.RunConfig{par})
	if err != nil {
		t.Fatal(err)
	}

	for name, got := range map[string]*core.Outcome{
		"streaming": gotStream, "parallel scheduler": outs[0],
	} {
		if got.Counters != want.Counters {
			t.Errorf("%s counters differ from the serial run", name)
		}
		if got.Refs != want.Refs {
			t.Errorf("%s simulated %d refs, serial %d", name, got.Refs, want.Refs)
		}
		if len(got.CPUTime) != len(want.CPUTime) {
			t.Fatalf("%s reports %d CPU clocks, serial %d", name, len(got.CPUTime), len(want.CPUTime))
		}
		for i := range want.CPUTime {
			if got.CPUTime[i] != want.CPUTime[i] {
				t.Errorf("%s cpu%d clock %d, serial %d", name, i, got.CPUTime[i], want.CPUTime[i])
			}
		}
	}
}

// reference runs cfg the long way, as core.Run's streamed pipeline must
// reproduce it: the whole trace built with workload.BuildN or
// workload.BuildSpec, then simulated by sim.New directly. It covers
// the configurations these tests run: a system on an optional machine.
func reference(t *testing.T, cfg core.RunConfig) *core.Outcome {
	t.Helper()
	p := sim.DefaultParams()
	if cfg.Machine != nil {
		p = *cfg.Machine
	}
	cfg.System.Apply(&p)
	var built *workload.Built
	if cfg.Scenario != nil {
		var err error
		if built, err = workload.BuildSpec(cfg.Scenario, cfg.System.KernelOpt(), cfg.Scale, cfg.Seed, p.NumCPUs); err != nil {
			t.Fatal(err)
		}
	} else {
		built = workload.BuildN(cfg.Workload, cfg.System.KernelOpt(), cfg.Scale, cfg.Seed, p.NumCPUs)
	}
	defer built.Release()
	s, err := sim.New(p, built.Sources())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return &core.Outcome{Config: cfg, Counters: res.Counters, Refs: res.Refs, CPUTime: res.CPUTime}
}
