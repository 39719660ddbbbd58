package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"oscachesim/internal/scenario"
	"oscachesim/internal/sim"
	"oscachesim/internal/stats"
	"oscachesim/internal/trace"
	"oscachesim/internal/workload"
)

const testScale = 6

func TestSystemStrings(t *testing.T) {
	want := []string{"Base", "Blk_Pref", "Blk_Bypass", "Blk_ByPref", "Blk_Dma", "BCoh_Reloc", "BCoh_RelUp", "BCPref"}
	for i, sys := range Systems() {
		if sys.String() != want[i] {
			t.Errorf("system %d = %q, want %q", i, sys, want[i])
		}
	}
	if System(99).String() == "" {
		t.Error("unknown system empty string")
	}
}

func TestParseSystem(t *testing.T) {
	for _, sys := range Systems() {
		got, err := ParseSystem(sys.String())
		if err != nil || got != sys {
			t.Errorf("ParseSystem(%q) = %v, %v", sys, got, err)
		}
	}
	if _, err := ParseSystem("nope"); err == nil {
		t.Error("ParseSystem accepted junk")
	}
}

func TestKernelOptPerSystem(t *testing.T) {
	if KernelOptOf := Base.KernelOpt(); KernelOptOf != (BlkBypass.KernelOpt()) {
		t.Error("Base and Blk_Bypass must share a kernel build (hardware-only change)")
	}
	if !BlkPref.KernelOpt().BlockPrefetch || !BlkByPref.KernelOpt().BlockPrefetch {
		t.Error("prefetch systems lack BlockPrefetch")
	}
	if !BlkDma.KernelOpt().BlockDMA {
		t.Error("Blk_Dma lacks BlockDMA")
	}
	o := BCPref.KernelOpt()
	if !o.BlockDMA || !o.Privatize || !o.Relocate || !o.HotSpotPrefetch {
		t.Errorf("BCPref kernel opt = %+v", o)
	}
	if BCohReloc.KernelOpt().HotSpotPrefetch {
		t.Error("BCoh_Reloc must not prefetch hot spots")
	}
}

func TestApplyPerSystem(t *testing.T) {
	cases := map[System]sim.BlockScheme{
		Base:      sim.BlockCached,
		BlkPref:   sim.BlockCached,
		BlkBypass: sim.BlockBypass,
		BlkByPref: sim.BlockBypassPref,
		BlkDma:    sim.BlockDMA,
		BCohReloc: sim.BlockDMA,
		BCohRelUp: sim.BlockDMA,
		BCPref:    sim.BlockDMA,
	}
	for sys, want := range cases {
		p := sim.DefaultParams()
		sys.Apply(&p)
		if p.Block != want {
			t.Errorf("%v block scheme = %v, want %v", sys, p.Block, want)
		}
		wantAttrs := sys == BCohRelUp || sys == BCPref
		if (p.Attrs != nil) != wantAttrs {
			t.Errorf("%v attrs presence = %v, want %v", sys, p.Attrs != nil, wantAttrs)
		}
	}
}

func TestRunBase(t *testing.T) {
	o, err := Run(context.Background(), RunConfig{Workload: workload.TRFD4, System: Base, Scale: testScale, Seed: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if o.Refs == 0 || o.Counters.Cycles == 0 {
		t.Fatalf("empty outcome: %+v", o)
	}
	if o.OSTime() == 0 {
		t.Error("no OS time recorded")
	}
	if o.Counters.OSDReadMisses() == 0 {
		t.Error("no OS misses recorded")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(context.Background(), RunConfig{Workload: workload.Shell, System: Base, Scale: testScale, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), RunConfig{Workload: workload.Shell, System: Base, Scale: testScale, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.Counters != b.Counters {
		t.Error("identical configs produced different counters")
	}
}

// TestOptimizationShape verifies the paper's headline relationships on
// a small run of TRFD_4:
//
//   - Blk_Dma eliminates all block misses and reduces total OS misses;
//   - BCoh_RelUp nearly eliminates coherence misses;
//   - BCPref has the fewest misses of all systems;
//   - the full system is faster than Base.
func TestOptimizationShape(t *testing.T) {
	outs := map[System]*Outcome{}
	for _, sys := range Systems() {
		o, err := Run(context.Background(), RunConfig{Workload: workload.TRFD4, System: sys, Scale: 10, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
		outs[sys] = o
	}
	base := outs[Base].Counters.OSDReadMisses()
	if m := outs[BlkDma].Counters.OSMissBy[stats.MissBlock]; m != 0 {
		t.Errorf("Blk_Dma block misses = %d, want 0", m)
	}
	if outs[BlkDma].Counters.OSDReadMisses() >= base {
		t.Error("Blk_Dma did not reduce OS misses")
	}
	relupCoh := outs[BCohRelUp].Counters.OSMissBy[stats.MissCoherence]
	dmaCoh := outs[BlkDma].Counters.OSMissBy[stats.MissCoherence]
	if relupCoh*4 >= dmaCoh && dmaCoh > 20 {
		t.Errorf("selective update left %d of %d coherence misses", relupCoh, dmaCoh)
	}
	bcpref := outs[BCPref].Counters.OSDReadMisses()
	for sys, o := range outs {
		if sys != BCPref && o.Counters.OSDReadMisses() < bcpref {
			t.Errorf("%v has fewer misses (%d) than BCPref (%d)", sys, o.Counters.OSDReadMisses(), bcpref)
		}
	}
	if outs[BCPref].OSTime() >= outs[Base].OSTime() {
		t.Errorf("BCPref OS time %d not below Base %d", outs[BCPref].OSTime(), outs[Base].OSTime())
	}
}

func TestRunCustomMachine(t *testing.T) {
	p := sim.DefaultParams()
	p.L1D.Size = 16 * 1024
	small, err := Run(context.Background(), RunConfig{Workload: workload.TRFD4, System: Base, Scale: testScale, Seed: 1, Machine: &p})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(context.Background(), RunConfig{Workload: workload.TRFD4, System: Base, Scale: testScale, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if small.Counters.OSDReadMisses() <= big.Counters.OSDReadMisses() {
		t.Errorf("16KB cache misses (%d) not above 32KB (%d)",
			small.Counters.OSDReadMisses(), big.Counters.OSDReadMisses())
	}
}

func TestRunDeferredCopy(t *testing.T) {
	o, err := Run(context.Background(), RunConfig{Workload: workload.Shell, System: Base, Scale: testScale, Seed: 1, DeferredCopy: true})
	if err != nil {
		t.Fatal(err)
	}
	if o.Deferred.DeferredElided == 0 {
		t.Error("deferred-copy run elided nothing")
	}
}

func TestRunPureUpdate(t *testing.T) {
	o, err := Run(context.Background(), RunConfig{Workload: workload.TRFD4, System: BCohReloc, Scale: testScale, Seed: 1, PureUpdate: true})
	if err != nil {
		t.Fatal(err)
	}
	inval, err := Run(context.Background(), RunConfig{Workload: workload.TRFD4, System: BCohReloc, Scale: testScale, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if o.Counters.OSMissBy[stats.MissCoherence] >= inval.Counters.OSMissBy[stats.MissCoherence] &&
		inval.Counters.OSMissBy[stats.MissCoherence] > 10 {
		t.Errorf("pure update coherence misses (%d) not below invalidate (%d)",
			o.Counters.OSMissBy[stats.MissCoherence], inval.Counters.OSMissBy[stats.MissCoherence])
	}
}

// TestRunStreamingMatchesMaterialized pins the pipeline contract at the
// core boundary: streaming is an execution strategy, not a
// configuration — Run's streamed pipeline (every run here is
// multi-round) must produce the exact counters, reference totals, and
// deferred-copy stats a whole built trace does, across systems with
// different kernel builds and machine models, under one CanonicalKey.
func TestRunStreamingMatchesMaterialized(t *testing.T) {
	cfgs := []RunConfig{
		{Workload: workload.Shell, System: Base, Scale: testScale, Seed: 1},
		{Workload: workload.TRFD4, System: BCPref, Scale: testScale, Seed: 2},
		{Workload: workload.Shell, System: BlkDma, Scale: testScale, Seed: 1, DeferredCopy: true},
		{Workload: workload.TRFD4, System: BCohRelUp, Scale: testScale, Seed: 3, PureUpdate: true},
	}
	for _, cfg := range cfgs {
		mat := reference(t, cfg)
		str, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%v streaming: %v", cfg.System, err)
		}
		if str.Counters != mat.Counters {
			t.Errorf("%v: streaming counters differ from materialized", cfg.System)
		}
		if str.Refs != mat.Refs {
			t.Errorf("%v: streaming refs %d != materialized %d", cfg.System, str.Refs, mat.Refs)
		}
		if str.Deferred != mat.Deferred {
			t.Errorf("%v: streaming deferred stats differ", cfg.System)
		}
		if str.Config.CanonicalKey() != mat.Config.CanonicalKey() {
			t.Errorf("%v: the Monitor leaked into CanonicalKey", cfg.System)
		}
	}
}

// reference runs cfg the long way, as Run's streamed pipeline must
// reproduce it: the whole trace built with workload.BuildN or
// workload.BuildSpec, then simulated by sim.New directly.
func reference(t *testing.T, cfg RunConfig) *Outcome {
	t.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	p := machineParams(cfg)
	var built *workload.Built
	if cfg.Scenario != nil {
		cfg.Workload = workload.SpecWorkloadName(cfg.Scenario)
		var err error
		if built, err = workload.BuildSpec(cfg.Scenario, kernelOpt(cfg), cfg.Scale, cfg.Seed, p.NumCPUs); err != nil {
			t.Fatal(err)
		}
	} else {
		built = workload.BuildN(cfg.Workload, kernelOpt(cfg), cfg.Scale, cfg.Seed, p.NumCPUs)
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
	return &Outcome{
		Config: cfg, Counters: res.Counters, Deferred: built.Kernel.DeferredCopies(),
		Refs: res.Refs, CPUTime: res.CPUTime,
	}
}

// TestHeadlineRobustAcrossSeeds guards the paper's headline against
// seed luck: under three different workload seeds, the full system
// must reduce OS misses by more than half and never slow the OS down.
func TestHeadlineRobustAcrossSeeds(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		base, err := Run(context.Background(), RunConfig{Workload: workload.TRFD4, System: Base, Scale: 10, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		full, err := Run(context.Background(), RunConfig{Workload: workload.TRFD4, System: BCPref, Scale: 10, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		bm, fm := base.Counters.OSDReadMisses(), full.Counters.OSDReadMisses()
		if fm*2 >= bm {
			t.Errorf("seed %d: BCPref left %d of %d misses (>50%%)", seed, fm, bm)
		}
		if full.OSTime() > base.OSTime() {
			t.Errorf("seed %d: BCPref slower (%d) than Base (%d)", seed, full.OSTime(), base.OSTime())
		}
	}
}

// TestRunStageTimings pins the stage-timing contract of Run: every run
// records Build (round 0) and Simulate, a multi-round run also records
// Stream (the overlapped producer).
func TestRunStageTimings(t *testing.T) {
	cfg := RunConfig{Workload: workload.TRFD4, System: Base, Scale: 1, Seed: 1}
	o, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if o.Stages.Build <= 0 || o.Stages.Simulate <= 0 {
		t.Errorf("single-round run missing build/simulate timing: %+v", o.Stages)
	}
	if o.Stages.Stream != 0 {
		t.Errorf("single-round run recorded stream time: %+v", o.Stages)
	}
	if total := o.Stages.Total(); total != o.Stages.Build+o.Stages.Simulate {
		t.Errorf("Total() = %v, want Build+Simulate (Render unset)", total)
	}
	if o.GenStalls != 0 || o.GenStallTime != 0 {
		t.Errorf("single-round run reported gen stalls: %d/%v", o.GenStalls, o.GenStallTime)
	}

	cfg.Scale = testScale
	so, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if so.Stages.Build <= 0 || so.Stages.Stream <= 0 || so.Stages.Simulate <= 0 {
		t.Errorf("multi-round run missing build/stream/simulate timing: %+v", so.Stages)
	}
	if total := so.Stages.Total(); total != so.Stages.Build+so.Stages.Simulate {
		t.Errorf("Total() = %v, want Build+Simulate (Stream overlaps)", total)
	}
}

// TestRunPathSelection pins Run's one path, read off the stage
// timings: every run records Build (round 0), Stream is recorded if
// and only if the run generates more than one round, and a Monitor
// changes neither. The deprecated Stream is ignored.
func TestRunPathSelection(t *testing.T) {
	mix := preset(t, "os-mix")
	one := &scenario.Spec{Name: "one-round", Phases: []scenario.Phase{{Rounds: 1}}}
	monitor := func(cfg RunConfig) RunConfig {
		cfg.Monitor = func(*sim.Simulator) {}
		return cfg
	}
	cases := []struct {
		name   string
		cfg    RunConfig
		stream bool
	}{
		{"scale 1", RunConfig{Workload: workload.Shell, Scale: 1}, false},
		{"multi-round", RunConfig{Workload: workload.Shell, Scale: testScale}, true},
		{"monitor at scale 1", monitor(RunConfig{Workload: workload.Shell, Scale: 1}), false},
		{"monitor", monitor(RunConfig{Workload: workload.Shell, Scale: testScale}), true},
		{"deprecated stream at scale 1", RunConfig{Workload: workload.Shell, Scale: 1, Stream: true}, false},
		{"one-round scenario", RunConfig{Scenario: one}, false},
		{"multi-round scenario", RunConfig{Scenario: mix}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.System, c.cfg.Seed = BlkDma, 1
			if multi := c.cfg.Rounds() > 1; multi != c.stream {
				t.Fatalf("Rounds() = %d, case expects multi-round %v", c.cfg.Rounds(), c.stream)
			}
			o, err := Run(context.Background(), c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := o.Stages
			if st.Build <= 0 {
				t.Errorf("stages %+v, want Build>0 on every run", st)
			}
			if c.stream && st.Stream <= 0 {
				t.Errorf("stages %+v, want Stream>0 on a multi-round run", st)
			}
			if !c.stream && st.Stream != 0 {
				t.Errorf("stages %+v, want Stream==0 on a single-round run", st)
			}
		})
	}
}

// TestRunRoundZeroOverBudget pins round 0's hand-off: a single-round
// scenario whose per-CPU output is many times the pipeline budget
// arrives as one chunk per CPU, runs through Run without deadlock, and
// reproduces the whole built trace's counters.
func TestRunRoundZeroOverBudget(t *testing.T) {
	big := &scenario.Spec{Name: "big-round", Phases: []scenario.Phase{{Rounds: 1, UserRefs: 200_000}}}
	cfg := RunConfig{Scenario: big, System: BCPref, Seed: 1}
	done := make(chan struct{})
	var o *Outcome
	var err error
	go func() {
		defer close(done)
		o, err = Run(context.Background(), cfg)
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("single-round run over the pipeline budget did not finish")
	}
	if err != nil {
		t.Fatal(err)
	}
	want := reference(t, cfg)
	if o.Refs/uint64(sim.DefaultParams().NumCPUs) < 4*trace.DefaultChunkRefs {
		t.Fatalf("%d refs do not exceed the pipeline budget per CPU", o.Refs)
	}
	if o.Counters != want.Counters || o.Refs != want.Refs {
		t.Fatal("single-round streamed run diverged from the built reference")
	}
	if o.Stages.Stream != 0 {
		t.Errorf("single-round run started a producer: %+v", o.Stages)
	}
}

// TestRounds pins the round count the path selection reads against
// the generators' own derivation.
func TestRounds(t *testing.T) {
	spec := &scenario.Spec{Name: "r", Phases: []scenario.Phase{{Rounds: 2}, {Rounds: 3}}}
	cases := []struct {
		cfg  RunConfig
		want int
	}{
		{RunConfig{Workload: workload.Shell}, workload.DefaultScale},
		{RunConfig{Workload: workload.Shell, Scale: -1}, workload.DefaultScale},
		{RunConfig{Workload: workload.Shell, Scale: 1}, 1},
		{RunConfig{Workload: workload.Shell, Scale: 8}, 8},
		{RunConfig{Scenario: spec}, 5},
		{RunConfig{Scenario: spec, Scale: -1}, 5},
		{RunConfig{Scenario: spec, Scale: 3}, 15},
	}
	for _, c := range cases {
		if got := c.cfg.Rounds(); got != c.want {
			t.Errorf("Rounds(scale %d, scenario %v) = %d, want %d", c.cfg.Scale, c.cfg.Scenario != nil, got, c.want)
		}
		if c.cfg.Scenario != nil {
			if gen := scenario.NewGenerator(spec, 4, c.cfg.Scale).TotalRounds(); gen != c.want {
				t.Errorf("scale %d: generator makes %d rounds, want %d", c.cfg.Scale, gen, c.want)
			}
		}
	}
}

// TestStreamedPanicReleasesProducer pins that a streamed run whose
// simulation panics does not strand its trace producer: the panic still
// reaches the caller, and the producer goroutine exits instead of
// parking on a full pipeline forever. The machine's absurd MSHR depth
// makes sim.New panic after the producer has started; scale 8 gives
// each processor more references than the pipeline's budget.
func TestStreamedPanicReleasesProducer(t *testing.T) {
	before := runtime.NumGoroutine()
	m := sim.DefaultParams()
	m.MSHREntries = 1 << 50
	cfg := RunConfig{Workload: workload.Shell, System: Base, Scale: 8, Seed: 1, Machine: &m}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Run returned without panicking")
			}
		}()
		Run(context.Background(), cfg)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the panic, %d before: the producer is stranded", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
