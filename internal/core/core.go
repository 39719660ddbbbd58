// Package core is the paper's contribution layer: it defines the eight
// systems the evaluation compares — Base, the four block-operation
// schemes of Section 4 (Blk_Pref, Blk_Bypass, Blk_ByPref, Blk_Dma),
// the two coherence-optimization systems of Section 5 (BCoh_Reloc =
// Blk_Dma + privatization/relocation, BCoh_RelUp = BCoh_Reloc +
// selective update), and the full system of Section 6 (BCPref =
// BCoh_RelUp + hot-spot prefetching) — and runs a workload under any
// of them, wiring together the workload generator (which applies the
// software-side optimizations when building the kernel) and the
// machine simulator (which applies the hardware-side ones).
package core

import (
	"context"
	"fmt"
	"time"

	"oscachesim/internal/kernel"
	"oscachesim/internal/memory"
	"oscachesim/internal/scenario"
	"oscachesim/internal/sim"
	"oscachesim/internal/stats"
	"oscachesim/internal/trace"
	"oscachesim/internal/workload"
)

// System identifies one evaluated machine/kernel configuration.
type System int

const (
	// Base is the unmodified machine and kernel (Section 2.4).
	Base System = iota
	// BlkPref software-prefetches block-operation source data with
	// loop unrolling and software pipelining.
	BlkPref
	// BlkBypass routes block loads and stores around the caches
	// through line-wide bypass registers.
	BlkBypass
	// BlkByPref combines bypassing with an 8-line source prefetch
	// buffer; destination writes are cached.
	BlkByPref
	// BlkDma performs block operations with the DMA-like smart cache
	// controller, pipelining the transfer on the bus.
	BlkDma
	// BCohReloc is BlkDma plus data privatization and relocation.
	BCohReloc
	// BCohRelUp is BCohReloc plus the Firefly update protocol on the
	// 384-byte core of shared variables (one page, selected by the
	// per-page TLB attribute).
	BCohRelUp
	// BCPref is BCohRelUp plus software prefetching of the 12 miss
	// hot spots — the paper's full system.
	BCPref
	NumSystems
)

// String returns the paper's name for the system.
func (s System) String() string {
	names := [...]string{
		"Base", "Blk_Pref", "Blk_Bypass", "Blk_ByPref",
		"Blk_Dma", "BCoh_Reloc", "BCoh_RelUp", "BCPref",
	}
	if int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("System(%d)", int(s))
}

// Systems lists all systems in the paper's presentation order.
func Systems() []System {
	return []System{Base, BlkPref, BlkBypass, BlkByPref, BlkDma, BCohReloc, BCohRelUp, BCPref}
}

// ParseSystem converts a system name (as printed by String) back.
func ParseSystem(name string) (System, error) {
	for _, s := range Systems() {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("core: unknown system %q (want one of %v)", name, Systems())
}

// MarshalText renders the system as its name, so a RunConfig's JSON
// form carries "BCPref", not an enum ordinal.
func (s System) MarshalText() ([]byte, error) {
	if s < 0 || s >= NumSystems {
		return nil, fmt.Errorf("core: cannot encode %s", s)
	}
	return []byte(s.String()), nil
}

// UnmarshalText parses a system name (ParseSystem).
func (s *System) UnmarshalText(b []byte) error {
	sys, err := ParseSystem(string(b))
	if err != nil {
		return err
	}
	*s = sys
	return nil
}

// KernelOpt returns the software-side (kernel build) configuration of
// the system.
func (s System) KernelOpt() kernel.OptConfig {
	var o kernel.OptConfig
	switch s {
	case Base, BlkBypass:
		// Hardware-only changes: same kernel binary as Base.
	case BlkPref, BlkByPref:
		o.BlockPrefetch = true
	case BlkDma:
		o.BlockDMA = true
	case BCohReloc:
		o.BlockDMA = true
		o.Privatize = true
		o.Relocate = true
	case BCohRelUp:
		o.BlockDMA = true
		o.Privatize = true
		o.Relocate = true
	case BCPref:
		o.BlockDMA = true
		o.Privatize = true
		o.Relocate = true
		o.HotSpotPrefetch = true
	}
	return o
}

// Apply configures the hardware side of the system on machine
// parameters.
func (s System) Apply(p *sim.Params) {
	switch s {
	case BlkBypass:
		p.Block = sim.BlockBypass
	case BlkByPref:
		p.Block = sim.BlockBypassPref
	case BlkDma, BCohReloc, BCohRelUp, BCPref:
		p.Block = sim.BlockDMA
	default:
		p.Block = sim.BlockCached
	}
	if s == BCohRelUp || s == BCPref {
		attrs := memory.NewAttrTable()
		for _, page := range kernel.UpdatePages() {
			attrs.Set(page, memory.PageAttr{Update: true})
		}
		p.Attrs = attrs
	} else {
		p.Attrs = nil
	}
}

// RunConfig describes one simulation run.
type RunConfig struct {
	// Workload names the traced workload. When Scenario is set the
	// field is display-only: Run overwrites it with the scenario's
	// "scenario:<name>" label.
	Workload workload.Name `json:"workload,omitempty"`
	// Scenario, when non-nil, replaces the named workload with a
	// declarative user-defined one (see internal/scenario). The spec
	// is validated at Run time; its content hash joins CanonicalKey,
	// so equal specs deduplicate in every result cache.
	Scenario *scenario.Spec `json:"scenario,omitempty"`
	// System selects the machine/kernel configuration.
	System System `json:"system"`
	// Scale is the number of generated scheduling rounds (0 = the
	// workload default).
	Scale int `json:"scale,omitempty"`
	// Seed makes the run deterministic; runs comparing systems must
	// share a seed so they face the same workload.
	Seed int64 `json:"seed,omitempty"`
	// Machine optionally overrides the base machine (cache geometry
	// sweeps); nil means the paper's machine. System-specific fields
	// (block scheme, page attributes) are set by Apply regardless.
	Machine *sim.Params `json:"machine,omitempty"`
	// DeferredCopy additionally enables the Section 4.2.1 deferred
	// sub-page copying study.
	DeferredCopy bool `json:"deferred_copy,omitempty"`
	// PureUpdate applies the Firefly update protocol to every page
	// (the comparison point of the Section 5.2 traffic study) instead
	// of the system's own protocol selection.
	PureUpdate bool `json:"pure_update,omitempty"`
	// UpdateSet, when non-nil, overrides the pages that receive the
	// update attribute (the selective-update granularity ablation);
	// kernel.UpdatePages lists the candidates. Nil and empty are
	// different configurations, so its JSON form keeps null and []
	// apart (no omitempty).
	UpdateSet []uint64 `json:"update_set"`
	// PrefDist, when positive, overrides the software-pipelining
	// distance of block-operation prefetching (the Blk_Pref ablation).
	PrefDist int `json:"pref_dist,omitempty"`
	// Deprecated: Stream is ignored; Run streams every run (see Run).
	// Excluded from CanonicalKey.
	Stream bool `json:"-"`
	// Monitor, when non-nil, is called with the freshly built simulator
	// before Run starts, letting callers attach an observer (the
	// internal/check differential oracle, the Section 6 conflict
	// census) or inspect the machine (Simulator.Params). The simulator
	// consumes single-use streams, so a Monitor observes the run as it
	// happens; it cannot replay it after Run returns.
	Monitor func(*sim.Simulator) `json:"-"`
	// Progress, when non-nil, receives sampled live counters during the
	// run (refs processed, OS read misses, global clock) plus the
	// references generated and the projected trace total, for
	// concurrent progress reporting. Runtime plumbing: excluded from
	// CanonicalKey.
	Progress *sim.Progress `json:"-"`
}

// StageTimings is the wall-clock decomposition of one run — the span
// record the observability layer attributes a run's time with, the way
// the paper's monitor attributes stall time to miss categories.
type StageTimings struct {
	// Build is the time spent generating round 0 before the simulation
	// starts. Every run records it.
	Build time.Duration
	// Stream is the producer goroutine's wall time for the rounds after
	// round 0, from launch to the pipeline closing; zero for a
	// single-round run. It overlaps Simulate — the overlap is the point
	// of streaming — so Total deliberately excludes it.
	Stream time.Duration
	// Simulate is the simulator's execution time.
	Simulate time.Duration
	// Render is the time spent turning the outcome into its report
	// (API summary, CLI tables). Zero until a caller that renders
	// fills it in.
	Render time.Duration
}

// Total returns the non-overlapped wall clock of the run:
// Build + Simulate + Render. Stream is excluded because the producer
// runs concurrently with Simulate.
func (t StageTimings) Total() time.Duration { return t.Build + t.Simulate + t.Render }

// Outcome is the result of one run.
type Outcome struct {
	// Config echoes the run configuration.
	Config RunConfig
	// Counters is the simulator's measurement record.
	Counters stats.Counters
	// Deferred carries the kernel's Table 4 counters.
	Deferred kernel.DeferredCopyStats
	// Refs is the number of references simulated.
	Refs uint64
	// CPUTime is each processor's final local clock.
	CPUTime []uint64
	// Stages is the run's wall-clock decomposition (Render left for the
	// caller that renders).
	Stages StageTimings
	// GenStalls and GenStallTime record how often — and for how long —
	// the run's producer blocked on a full pipeline queue. Both are
	// zero for a single-round run.
	GenStalls    uint64
	GenStallTime time.Duration
}

// OSTime returns the operating-system execution time of the run in
// cycles — the quantity every figure normalizes by.
func (o *Outcome) OSTime() uint64 { return o.Counters.OSTime() }

// kernelOpt resolves the software-side kernel configuration of a run.
func kernelOpt(cfg RunConfig) kernel.OptConfig {
	opt := cfg.System.KernelOpt()
	if cfg.DeferredCopy {
		opt.DeferredCopy = true
	}
	if cfg.PrefDist > 0 {
		opt.BlockPrefDist = cfg.PrefDist
	}
	return opt
}

// machineParams resolves the hardware-side machine parameters of a
// run: base machine, system overlay and update-set / pure-update
// overrides.
func machineParams(cfg RunConfig) sim.Params {
	var p sim.Params
	if cfg.Machine != nil {
		p = *cfg.Machine
	} else {
		p = sim.DefaultParams()
	}
	cfg.System.Apply(&p)
	if cfg.UpdateSet != nil {
		attrs := memory.NewAttrTable()
		for _, page := range cfg.UpdateSet {
			attrs.Set(page, memory.PageAttr{Update: true})
		}
		p.Attrs = attrs
	}
	if cfg.PureUpdate {
		attrs := memory.NewAttrTable()
		attrs.SetDefault(memory.PageAttr{Update: true})
		p.Attrs = attrs
	}
	return p
}

// Run executes one configuration. Cancellation of ctx aborts the
// simulation promptly; the returned error then wraps context.Cause(ctx).
//
// Every run streams its workload (see workload.Stream): round 0 is
// generated before the simulation starts, and a run of more than one
// scheduling round (see Rounds) generates the rest concurrently with
// the simulation in bounded chunks.
func Run(ctx context.Context, cfg RunConfig) (*Outcome, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Scenario != nil {
		if err := cfg.Scenario.Validate(); err != nil {
			return nil, err
		}
		cfg.Workload = workload.SpecWorkloadName(cfg.Scenario)
	}
	// The machine parameters come first: the workload is traced for
	// exactly the machine's processor count.
	p := machineParams(cfg)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sopt := workload.StreamOptions{NumCPUs: p.NumCPUs}
	if cfg.Progress != nil {
		sopt.OnProgress = cfg.Progress.GenSample
		sopt.OnStalls = cfg.Progress.GenStallSample
	}
	buildStart := time.Now()
	var st *workload.Streamed
	if cfg.Scenario != nil {
		var err error
		st, err = workload.StreamSpec(cfg.Scenario, kernelOpt(cfg), cfg.Scale, cfg.Seed, sopt)
		if err != nil {
			return nil, err
		}
	} else {
		st = workload.Stream(cfg.Workload, kernelOpt(cfg), cfg.Scale, cfg.Seed, sopt)
	}
	build := time.Since(buildStart)

	// A panic below must not strand the producer on a full pipeline:
	// release it before the panic travels on to whoever recovers it.
	defer func() {
		if v := recover(); v != nil {
			st.Abort()
			panic(v)
		}
	}()
	o, err := simulate(ctx, cfg, p, st.Sources())
	if err != nil {
		// The producer may be parked on a full pipeline; release it and
		// recycle whatever it queued before reporting the failure.
		st.Abort()
		return nil, err
	}
	// The simulation drained every source, so generation has finished
	// (or panicked — surface that rather than half a result).
	if err := st.Wait(); err != nil {
		return nil, fmt.Errorf("core: %s on %s: %w", cfg.System, cfg.Workload, err)
	}
	o.Deferred = st.Kernel.DeferredCopies()
	o.Stages.Build = build
	o.Stages.Stream = st.Elapsed()
	o.GenStalls, o.GenStallTime = st.GenStalls()
	return o, nil
}

// Replay simulates captured or transformed reference streams, one per
// processor, on cfg's machine, resolved as Run resolves it. The
// workload fields are never read: the kernel build is whatever the
// streams were captured with. Processors beyond len(perCPU) get an
// empty stream; more streams than processors, or a reference
// validateRefs refuses (a *RefError), is an error.
func Replay(ctx context.Context, cfg RunConfig, perCPU [][]trace.Ref) (*Outcome, error) {
	p := machineParams(cfg)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(perCPU) > p.NumCPUs {
		return nil, fmt.Errorf("core: %d reference streams for a %d-processor machine", len(perCPU), p.NumCPUs)
	}
	if err := validateRefs(p, perCPU); err != nil {
		return nil, err
	}
	srcs := make([]trace.Source, p.NumCPUs)
	for i := range srcs {
		var refs []trace.Ref
		if i < len(perCPU) {
			refs = perCPU[i]
		}
		srcs[i] = trace.NewSliceSource(refs)
	}
	return simulate(ctx, cfg, p, srcs)
}

// simulate runs machine p over srcs, one per processor: it builds the
// simulator, hands it cfg's Progress feed and Monitor, runs it and
// records the measurements with the simulate stage's wall time.
func simulate(ctx context.Context, cfg RunConfig, p sim.Params, srcs []trace.Source) (*Outcome, error) {
	s, err := sim.New(p, srcs)
	if err != nil {
		return nil, err
	}
	s.SetProgress(cfg.Progress)
	if cfg.Monitor != nil {
		cfg.Monitor(s)
	}
	start := time.Now()
	res, err := s.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: %s on %s: %w", cfg.System, cfg.Workload, err)
	}
	return &Outcome{
		Config:   cfg,
		Counters: res.Counters,
		Refs:     res.Refs,
		CPUTime:  res.CPUTime,
		Stages:   StageTimings{Simulate: time.Since(start)},
	}, nil
}

// Rounds is the number of scheduling rounds cfg generates, derived as
// the generators derive it: Scale rounds of a classic workload
// (0 = workload.DefaultScale), or the scenario's phase rounds, each
// multiplied by Scale (<= 0 means 1). Run generates round 0 before the
// simulation starts and the remaining rounds, if any, concurrently
// with it.
func (cfg RunConfig) Rounds() int {
	if cfg.Scenario != nil {
		return cfg.Scenario.TotalRounds() * max(cfg.Scale, 1)
	}
	if cfg.Scale <= 0 {
		return workload.DefaultScale
	}
	return cfg.Scale
}
