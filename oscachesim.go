// Package oscachesim reproduces "Improving the Data Cache Performance
// of Multiprocessor Operating Systems" (Chun Xia and Josep Torrellas,
// HPCA 1996) as an executable system: a cycle-level simulator of the
// paper's 4-processor bus-based machine, a synthetic multiprocessor
// UNIX kernel and the four system-intensive workloads it was measured
// under, the paper's full set of optimizations (block-operation
// prefetching/bypassing/DMA, data privatization and relocation,
// selective Firefly update, hot-spot prefetching), and a harness that
// regenerates every table and figure of the evaluation.
//
// This package is the public face of the library: it re-exports the
// types needed to run studies without importing the internal packages.
//
// Quick start:
//
//	s := oscachesim.New(oscachesim.TRFD4, oscachesim.Base, oscachesim.WithSeed(1))
//	outs, _ := s.Compare(context.Background(), oscachesim.Base, oscachesim.BCPref)
//	fmt.Printf("OS speedup: %.1f%%\n",
//	    100*(1-float64(outs[1].OSTime())/float64(outs[0].OSTime())))
//
// The cmd directory provides ready-made tools: ossim (single runs),
// paper (regenerates the paper's evaluation and the ablation studies),
// campaign (batch experiment grids, cache-geometry grids among them,
// with comparison reports), ossimd (the same runs and grids as an
// HTTP service), loadbench and benchdiff (service load and benchmark
// comparison), and tracedump (trace inspection).
package oscachesim

import (
	"context"
	"runtime"

	"oscachesim/internal/campaign"
	"oscachesim/internal/core"
	"oscachesim/internal/experiment"
	"oscachesim/internal/scenario"
	"oscachesim/internal/sim"
	"oscachesim/internal/workload"
)

// System identifies one of the paper's evaluated machine/kernel
// configurations.
type System = core.System

// The eight systems, in the paper's presentation order.
const (
	// Base is the unmodified machine and kernel.
	Base = core.Base
	// BlkPref software-prefetches block-operation source data.
	BlkPref = core.BlkPref
	// BlkBypass routes block operations around the caches.
	BlkBypass = core.BlkBypass
	// BlkByPref combines bypassing with a source prefetch buffer.
	BlkByPref = core.BlkByPref
	// BlkDma performs block operations with the DMA-like controller.
	BlkDma = core.BlkDma
	// BCohReloc adds data privatization and relocation to BlkDma.
	BCohReloc = core.BCohReloc
	// BCohRelUp adds the selective Firefly update protocol.
	BCohRelUp = core.BCohRelUp
	// BCPref adds hot-spot prefetching — the paper's full system.
	BCPref = core.BCPref
)

// Systems lists all systems in presentation order.
func Systems() []System { return core.Systems() }

// ParseSystem converts a system name ("Blk_Dma") to its identifier.
func ParseSystem(name string) (System, error) { return core.ParseSystem(name) }

// Workload names one of the paper's four traced workloads.
type Workload = workload.Name

// The four workloads of the study.
const (
	// TRFD4 is four runs of the parallel TRFD code (16 processes).
	TRFD4 = workload.TRFD4
	// TRFDMake mixes one TRFD with four C-compiler phases.
	TRFDMake = workload.TRFDMake
	// ARC2DFsck mixes four ARC2D runs with a file-system check.
	ARC2DFsck = workload.ARC2DFsck
	// Shell keeps 21 background UNIX commands running.
	Shell = workload.Shell
)

// Workloads lists the workloads in the paper's column order.
func Workloads() []Workload { return workload.Names() }

// ParseWorkload converts a workload name to its identifier.
func ParseWorkload(name string) (Workload, error) { return workload.ParseName(name) }

// Scenario is a declarative user-defined workload: multi-phase
// synthetic traffic with tunable sharing degree, working-set size,
// false-sharing intensity and block-operation mix, optionally
// composed with a built-in profile's kernel services. Build one from
// JSON with LoadScenario/ParseScenario, or start from a preset.
type Scenario = scenario.Spec

// LoadScenario reads and strictly validates a scenario spec file.
func LoadScenario(path string) (*Scenario, error) { return scenario.Load(path) }

// ParseScenario strictly decodes and validates a JSON scenario spec.
func ParseScenario(data []byte) (*Scenario, error) { return scenario.Parse(data) }

// ScenarioPreset returns a fresh copy of a built-in scenario — the
// false-sharing trio ("fs-naive", "fs-padded", "fs-chunked"), the
// sharing-degree study base ("sharing"), and the two-phase OS
// composite ("os-mix").
func ScenarioPreset(name string) (*Scenario, error) { return scenario.Preset(name) }

// ScenarioPresets lists the built-in scenario preset names.
func ScenarioPresets() []string { return scenario.PresetNames() }

// Outcome is the measurement record of one simulation run.
type Outcome = core.Outcome

// RunConfig fully describes a simulation run, including machine
// overrides and the deferred-copy / pure-update study knobs.
type RunConfig = core.RunConfig

// MachineParams describes the simulated hardware; DefaultMachine is
// the paper's machine (Section 2.4).
type MachineParams = sim.Params

// DefaultMachine returns the paper's 4x200-MHz machine: 16-KB L1I,
// 32-KB write-through L1D, 256-KB lockup-free write-back L2, Illinois
// coherence on an 8-byte 40-MHz split-transaction bus.
func DefaultMachine() MachineParams { return sim.DefaultParams() }

// CoherenceKind selects the coherence protocol family of the machine.
type CoherenceKind = sim.CoherenceKind

const (
	// CoherenceSnoop is the paper's snooping bus (Illinois MESI with
	// the optional selective Firefly update). The default.
	CoherenceSnoop = sim.CoherenceSnoop
	// CoherenceDirectory is a full-map directory protocol with
	// per-processor home nodes; it scales past the snooping bus's
	// 64-CPU ceiling (up to 256 CPUs) and ignores the Firefly update
	// attribute.
	CoherenceDirectory = sim.CoherenceDirectory
)

// ParseCoherence converts a protocol name ("snoop", "directory") to
// its identifier.
func ParseCoherence(name string) (CoherenceKind, error) { return sim.ParseCoherence(name) }

// DirectoryMachine returns the paper's machine scaled to ncpus
// processors under directory coherence — the starting point for
// scalability studies beyond the bus-based 4-CPU configuration.
func DirectoryMachine(ncpus int) MachineParams {
	p := sim.DefaultParams()
	p.NumCPUs = ncpus
	p.Coherence = sim.CoherenceDirectory
	return p
}

// Sim is a configured simulation built by New. The zero value is not
// usable.
type Sim struct {
	cfg     core.RunConfig
	workers int
}

// Option configures a Sim.
type Option func(*Sim)

// WithScale sets the number of generated scheduling rounds (0 = the
// workload default).
func WithScale(n int) Option { return func(s *Sim) { s.cfg.Scale = n } }

// WithSeed sets the deterministic seed. Runs comparing systems must
// share a seed so they face the same workload; the default is 1.
func WithSeed(k int64) Option { return func(s *Sim) { s.cfg.Seed = k } }

// WithMachine overrides the simulated hardware (cache-geometry
// studies); the default is the paper's machine.
func WithMachine(m MachineParams) Option {
	return func(s *Sim) { s.cfg.Machine = &m }
}

// WithParallelism sets how many simulations [Sim.Compare] fans out at
// once (0 = GOMAXPROCS). A single [Sim.Run] is unaffected: one
// simulation is cycle-ordered and inherently serial.
func WithParallelism(p int) Option { return func(s *Sim) { s.workers = p } }

// WithScenario replaces the Sim's named workload with a declarative
// user-defined one; the workload passed to New is ignored. The spec's
// content hash joins the canonical run key, so equal specs share
// cached results.
//
//	spec, _ := oscachesim.ScenarioPreset("sharing")
//	s := oscachesim.New("", oscachesim.Base, oscachesim.WithScenario(spec.WithSharingDegree(8)),
//	    oscachesim.WithMachine(oscachesim.DirectoryMachine(16)))
func WithScenario(spec *Scenario) Option {
	return func(s *Sim) { s.cfg.Scenario = spec }
}

// WithConfig replaces the whole run configuration (study knobs like
// DeferredCopy or PureUpdate); options applied after it still take
// effect.
func WithConfig(cfg RunConfig) Option {
	return func(s *Sim) {
		w, sys := s.cfg.Workload, s.cfg.System
		s.cfg = cfg
		s.cfg.Workload, s.cfg.System = w, sys
	}
}

// New builds a simulation of workload w under system s.
//
//	sim := oscachesim.New(oscachesim.TRFD4, oscachesim.BCPref,
//	    oscachesim.WithScale(10), oscachesim.WithSeed(7))
//	out, err := sim.Run(ctx)
func New(w Workload, s System, opts ...Option) *Sim {
	sim := &Sim{cfg: core.RunConfig{Workload: w, System: s, Seed: 1}}
	for _, opt := range opts {
		opt(sim)
	}
	return sim
}

// Config returns the run configuration the options assembled.
func (s *Sim) Config() RunConfig { return s.cfg }

// Run executes the simulation; ctx cancellation aborts it promptly.
func (s *Sim) Run(ctx context.Context) (*Outcome, error) { return core.Run(ctx, s.cfg) }

// Compare runs the same workload under each system, fanning the
// independent simulations across workers (see WithParallelism), and
// returns outcomes in the order given. All runs share the Sim's
// workload, scale, seed and machine, so outcomes are directly
// comparable — and byte-identical to running them serially.
func (s *Sim) Compare(ctx context.Context, systems ...System) ([]*Outcome, error) {
	workers := s.workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	r := experiment.NewRunnerContext(ctx, experiment.Config{Scale: s.cfg.Scale, Seed: s.cfg.Seed, Workers: workers})
	cfgs := make([]core.RunConfig, len(systems))
	for i, sys := range systems {
		cfgs[i] = s.cfg
		cfgs[i].System = sys
	}
	return r.RunConfigs(ctx, cfgs)
}

// Experiment names one regenerable table or figure of the paper.
type Experiment = experiment.Experiment

// Experiments returns every table and figure of the evaluation, in
// paper order.
func Experiments() []Experiment { return experiment.All() }

// ExperimentRunner shares simulation outcomes across experiments
// through a content-addressed result store.
type ExperimentRunner = experiment.Runner

// ExperimentConfig controls experiment scale and determinism.
type ExperimentConfig = experiment.Config

// NewExperimentRunner returns a runner for regenerating experiments.
func NewExperimentRunner(cfg ExperimentConfig) *ExperimentRunner {
	return experiment.NewRunner(cfg)
}

// CampaignGrid declares a batch experiment campaign: the cross
// product of a workload axis, machine-geometry axes (CPUs, coherence,
// cache sizes, line sizes), a scenario sharing-degree axis, and the
// system axis — with an explicit bound on the expanded cell count.
type CampaignGrid = campaign.Grid

// CampaignPlan is an expanded grid with duplicate cells grouped by
// canonical configuration key, so overlapping cells simulate once.
type CampaignPlan = campaign.Plan

// CellOutcome is one completed campaign cell: its grid coordinates
// and the simulation outcome (shared between duplicate cells).
type CellOutcome = campaign.CellOutcome

// CampaignProgress aggregates a running campaign (cells done/total,
// stage timings, ETA); sample it with Snapshot from any goroutine.
type CampaignProgress = campaign.Progress

// NewCampaignPlan validates and expands a grid into its execution
// plan. All failures name the offending field.
func NewCampaignPlan(g CampaignGrid) (*CampaignPlan, error) { return campaign.NewPlan(g) }

// RunCampaign fans a plan's unique configurations across the runner's
// worker pool and returns one outcome per cell in grid order. On
// cancellation the returned slice holds the cells that completed,
// alongside the error.
func RunCampaign(ctx context.Context, r *ExperimentRunner, p *CampaignPlan, prog *CampaignProgress) ([]CellOutcome, error) {
	return campaign.Run(ctx, r, p, prog)
}
