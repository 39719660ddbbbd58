package workload

import (
	"oscachesim/internal/kernel"
	"oscachesim/internal/scenario"
)

// Scenario-driven builds. BuildSpec and StreamSpec are the
// user-defined-workload counterparts of BuildN and Stream: the same
// generator state (per-CPU RNG streams, emitters, the shared kernel,
// the per-round service-plan stream) drives a scenario.Generator
// instead of a calibrated Profile, so scenario traces inherit every
// determinism property of the built-in workloads — byte-identical
// across repeats, between BuildSpec and StreamSpec, and (for
// the first NumCPUs processors) across machine widths.

// SpecWorkloadName is the workload name a scenario build reports:
// "scenario:<spec name>". It keeps scenario outcomes distinguishable
// in reports and run keys without widening the Name type.
func SpecWorkloadName(spec *scenario.Spec) Name {
	return Name("scenario:" + spec.Name)
}

// BuildSpec generates the trace of a declarative scenario for an
// ncpus-processor machine (0 = NumCPUs), deterministically from the
// seed. scale multiplies every phase's round count (<= 0 means 1).
// The spec is validated first; field violations surface as
// *scenario.FieldError.
func BuildSpec(spec *scenario.Spec, opt kernel.OptConfig, scale int, seed int64, ncpus int) (*Built, error) {
	pl, err := specPlan("BuildSpec", spec, opt, scale, seed, ncpus)
	if err != nil {
		return nil, err
	}
	return pl.build(), nil
}

// StreamSpec starts generating a scenario trace as Stream does; the
// per-CPU reference sequences are byte-identical to BuildSpec's for
// the same (spec, opt, scale, seed).
func StreamSpec(spec *scenario.Spec, opt kernel.OptConfig, scale int, seed int64, sopt StreamOptions) (*Streamed, error) {
	return streamSpec(spec, opt, scale, seed, sopt, chunkRefs, budgetRefs)
}

// streamSpec is StreamSpec with the pipeline's chunk size and budget
// chosen by the caller.
func streamSpec(spec *scenario.Spec, opt kernel.OptConfig, scale int, seed int64, sopt StreamOptions, chunk, budget int) (*Streamed, error) {
	pl, err := specPlan("StreamSpec", spec, opt, scale, seed, sopt.NumCPUs)
	if err != nil {
		return nil, err
	}
	return pl.stream(sopt, chunk, budget), nil
}

// specPlan validates a scenario and resolves its generation; fn names
// the entry point in the error an out-of-range ncpus returns.
func specPlan(fn string, spec *scenario.Spec, opt kernel.OptConfig, scale int, seed int64, ncpus int) (plan, error) {
	ncpus, err := resolveCPUs(fn, ncpus)
	if err != nil {
		return plan{}, err
	}
	if err := spec.Validate(); err != nil {
		return plan{}, err
	}
	g, err := newSpecGenerator(spec, kernel.New(opt), seed, ncpus, scale)
	if err != nil {
		return plan{}, err
	}
	return plan{name: SpecWorkloadName(spec), g: g, rounds: g.scen.TotalRounds(), round: g.specRound}, nil
}

// newSpecGenerator builds the generator state of a scenario build:
// the classic generator core (RNGs, process assignments, emit
// plumbing) plus the scenario engine and the per-phase scaled base
// profiles.
func newSpecGenerator(spec *scenario.Spec, k *kernel.Kernel, seed int64, ncpus, scale int) (*generator, error) {
	var base Profile
	hasBase := spec.Base != ""
	if hasBase {
		name, err := ParseName(spec.Base)
		if err != nil {
			return nil, err
		}
		base = ProfileFor(name)
	}
	g := newGenerator(base, k, seed, ncpus)
	g.scen = scenario.NewGenerator(spec, ncpus, scale)
	g.scenSpec = spec
	if hasBase {
		g.phaseProfiles = make([]Profile, len(spec.Phases))
		for i := range spec.Phases {
			g.phaseProfiles[i] = scaledProfile(base, spec.Phases[i].OSIntensity)
		}
	}
	return g, nil
}

// scaledProfile scales a base profile's kernel-service rates by a
// phase's OS intensity (0 = 1.0). Idle rounds and profile-driven
// barriers are disabled: a scenario keeps every CPU busy and owns its
// own barrier cadence.
func scaledProfile(base Profile, intensity float64) Profile {
	if intensity <= 0 {
		intensity = 1
	}
	p := base
	p.IdleFrac = 0
	p.BarrierEvery = 0
	p.PageFaultsPer *= intensity
	p.ForksPer *= intensity
	p.ExecsPer *= intensity
	p.ExitsPer *= intensity
	p.ReadsPer *= intensity
	p.WritesPer *= intensity
	p.NameiPer *= intensity
	p.SocketsPer *= intensity
	p.IPIsPer *= intensity
	p.SchedulesPer *= intensity
	p.TimerTicksPer *= intensity
	return p
}

// specRound generates one scenario scheduling round on every
// processor: the phase's gang barrier (when due), the base profile's
// kernel services (when a base is configured), and the scenario
// emitters — user bursts with sharing, false-sharing operations,
// block operations — interleaved the same way the classic round
// interleaves services with user chunks.
func (g *generator) specRound(round int) {
	pi, p := g.scen.PhaseAt(round)
	hasBase := len(g.phaseProfiles) > 0
	var svc services
	if hasBase {
		g.p = g.phaseProfiles[pi]
		svc = g.drawServices()
	}
	barrier := p.BarrierEvery > 0 && round%p.BarrierEvery == 0
	g.startServices(round)
	for c := 0; c < g.n; c++ {
		c := c
		e, rng := g.ems[c], g.rngs[c]
		// The same per-round service stream as the classic round, so
		// service details stay balanced across the gang.
		svcRNG := g.serviceRNG(c)
		if barrier {
			g.k.GangBarrier(e, pi%kernel.NumBarriers, uint32(round), g.n)
		}
		var steps []func()
		if hasBase {
			steps = g.osServices(c, round, svc, svcRNG)
		}
		if p.BlockOpsPerRound > 0 {
			steps = append(steps, func() { g.scen.BlockOps(g.k, e, c, pi, svcRNG) })
		}
		if p.FalseSharing.Enabled() {
			steps = append(steps, func() { g.scen.FalseSharingRound(e, c, pi) })
		}
		nChunks := len(steps) + 1
		chunk := g.scen.RoundUserRefs(pi) / nChunks
		for i := 0; i <= len(steps); i++ {
			g.scen.UserBurst(e, c, pi, rng, chunk)
			if i < len(steps) {
				steps[(i+c*len(steps)/g.n)%len(steps)]()
			}
		}
	}
}
