package workload

import (
	"fmt"
	"math/rand"

	"oscachesim/internal/kernel"
	"oscachesim/internal/scenario"
	"oscachesim/internal/trace"
)

// DefaultScale is the number of scheduling rounds generated when the
// caller does not choose; it yields roughly a million references
// across the four processors — large enough for stable statistics,
// small enough for sub-second simulations.
const DefaultScale = 24

// NumCPUs is the processor count of the paper's traced machine and
// the default for Build and Stream.
const NumCPUs = 4

// MaxCPUs bounds BuildN: the kernel address layout privatizes
// per-CPU structures (stacks, counters, cpievents slots) for the
// paper's 4-CPU machine; beyond the windows those layouts reserve,
// per-CPU addresses wrap deterministically (see kernel.KStackAddr and
// generator.procBase), which aliases some structures across distant
// CPUs but keeps every trace reproducible. trace.Ref carries the CPU
// in a uint8, setting the hard ceiling.
const MaxCPUs = 256

// Built is a generated workload: per-CPU reference streams plus the
// kernel that produced them (whose deferred-copy counters feed
// Table 4).
//
// Ownership rule: the Built owns its PerCPU backing arrays until
// Release, and Release transfers them to the trace pool. Sources
// hands out views of those arrays, not copies — so Release must not
// be called while a simulation is still consuming a Source, and
// nothing derived from the Built may be used afterwards. Release is
// idempotent; calling it twice (including on copies sharing the same
// PerCPU header) is a no-op the second time.
type Built struct {
	Name   Name
	PerCPU [][]trace.Ref
	Kernel *kernel.Kernel

	// released latches the pool hand-off so a second Release (or one
	// through a copied Built) cannot double-free a backing array.
	released *bool
}

// Sources wraps the per-CPU streams as trace sources. Each call
// returns fresh, independently replayable sources.
func (b *Built) Sources() []trace.Source {
	srcs := make([]trace.Source, len(b.PerCPU))
	for i, refs := range b.PerCPU {
		srcs[i] = trace.NewSliceSource(refs)
	}
	return srcs
}

// TotalRefs counts all references across processors.
func (b *Built) TotalRefs() int {
	n := 0
	for _, refs := range b.PerCPU {
		n += len(refs)
	}
	return n
}

// Release returns the per-CPU reference batches to the trace pool and
// clears them. Callers that are done simulating a workload should
// release it so the next Build reuses the multi-megabyte backing
// arrays; after Release the Built (and any Source derived from it)
// must not be used. Release is idempotent: the second and later calls
// (through this Built or a copy of it) do nothing, so a double release
// can no longer hand the same backing array to two future builds.
func (b *Built) Release() {
	if b.released != nil {
		if *b.released {
			return
		}
		*b.released = true
	}
	for i, refs := range b.PerCPU {
		trace.PutBatch(refs)
		// Nil the slot through the shared outer array as a second
		// line of defense for hand-rolled Built values without the
		// latch.
		b.PerCPU[i] = nil
	}
}

// Build generates a workload trace for the paper's 4-CPU machine,
// deterministically from the seed. The kernel OptConfig selects the
// software-side optimizations; the same (name, opt, scale, seed)
// always produces the same trace.
func Build(name Name, opt kernel.OptConfig, scale int, seed int64) *Built {
	return BuildN(name, opt, scale, seed, NumCPUs)
}

// BuildN generates a workload trace for an ncpus-processor machine
// (0 = NumCPUs). The first NumCPUs processors' reference streams are
// byte-identical to Build's regardless of ncpus — per-CPU RNG streams
// are seeded independently and the per-round service plan is drawn
// from a CPU-independent stream — so the paper goldens are unaffected
// by the generalization. ncpus must be in [1, MaxCPUs].
func BuildN(name Name, opt kernel.OptConfig, scale int, seed int64, ncpus int) *Built {
	return classicPlan("BuildN", name, opt, scale, seed, ncpus).build()
}

// plan is one trace generation: the generator, the workload name it
// reports, its round count and its per-round step. The classic profile
// loop and the scenario loop differ only in the step. BuildN and
// BuildSpec drive every round through build; Stream and StreamSpec
// drive round 0 through roundZero and the rest on their producer.
type plan struct {
	name   Name
	g      *generator
	rounds int
	round  func(int)
}

// classicPlan resolves a classic workload's generation; fn names the
// entry point in the panic an out-of-range ncpus raises.
func classicPlan(fn string, name Name, opt kernel.OptConfig, scale int, seed int64, ncpus int) plan {
	ncpus, err := resolveCPUs(fn, ncpus)
	if err != nil {
		panic(err.Error())
	}
	if scale <= 0 {
		scale = DefaultScale
	}
	g := newGenerator(ProfileFor(name), kernel.New(opt), seed, ncpus)
	return plan{name: name, g: g, rounds: scale, round: g.round}
}

// resolveCPUs applies the NumCPUs default to ncpus and checks it
// against MaxCPUs.
func resolveCPUs(fn string, ncpus int) (int, error) {
	if ncpus == 0 {
		ncpus = NumCPUs
	}
	if ncpus < 1 || ncpus > MaxCPUs {
		return 0, fmt.Errorf("workload: %s with %d CPUs (want 1..%d)", fn, ncpus, MaxCPUs)
	}
	return ncpus, nil
}

// roundZero gives every processor an emitter with no flush threshold
// and generates round 0 into it.
func (pl plan) roundZero() {
	for c := range pl.g.ems {
		pl.g.ems[c] = &kernel.Emitter{CPU: uint8(c), Refs: trace.GetBatch(1 << 14)}
	}
	pl.round(0)
}

// build generates every round into the round-0 emitters and returns
// the whole trace.
func (pl plan) build() *Built {
	pl.roundZero()
	if pl.rounds > 1 {
		// Rounds are statistically alike, so the first round sizes the
		// rest: reserve the remaining capacity (plus 10% slack) in one
		// step instead of a doubling cascade of copies.
		for _, e := range pl.g.ems {
			e.Reserve(len(e.Refs) * (pl.rounds - 1) * 11 / 10)
		}
	}
	for round := 1; round < pl.rounds; round++ {
		pl.round(round)
	}
	per := make([][]trace.Ref, pl.g.n)
	for c, e := range pl.g.ems {
		per[c] = e.Refs
	}
	return &Built{Name: pl.name, PerCPU: per, Kernel: pl.g.k, released: new(bool)}
}

// newGenerator builds the generator state of one plan: per-CPU RNGs,
// process assignments and the global service-plan RNG. Emitters are
// left to roundZero and the stream producer, whose flush policies
// differ.
func newGenerator(p Profile, k *kernel.Kernel, seed int64, ncpus int) *generator {
	g := &generator{
		p:      p,
		k:      k,
		seed:   seed,
		n:      ncpus,
		ems:    make([]*kernel.Emitter, ncpus),
		rngs:   make([]*rand.Rand, ncpus),
		cursor: make([]uint64, ncpus),
		proc:   make([]int, ncpus),

		svcReaders: make([]svcReader, ncpus),
		svcRNGs:    make([]*rand.Rand, ncpus),
	}
	for c := 0; c < ncpus; c++ {
		g.rngs[c] = rand.New(rand.NewSource(seed*1000003 + int64(c)))
		g.proc[c] = g.procBase(c)
		g.svcReaders[c].s = &g.svcStream
		g.svcRNGs[c] = rand.New(&g.svcReaders[c])
	}
	g.global = rand.New(rand.NewSource(seed * 7919))
	return g
}

// generator carries the mutable state of one build.
type generator struct {
	p    Profile
	k    *kernel.Kernel
	seed int64
	// n is the processor count being traced.
	n      int
	ems    []*kernel.Emitter
	rngs   []*rand.Rand
	global *rand.Rand
	// cursor is the per-CPU user streaming cursor.
	cursor []uint64
	// proc is the process currently running on each CPU.
	proc []int
	// nextProc hands out fresh process ids for forks.
	nextProc int
	// svcStream is the current round's service stream; svcRNGs[c]
	// replays it for cpu c through svcReaders[c].
	svcStream  svcStream
	svcReaders []svcReader
	svcRNGs    []*rand.Rand

	// Scenario-driven builds (BuildSpec/StreamSpec) set the scenario
	// engine and, when the spec names a base profile, the per-phase
	// intensity-scaled profiles; classic builds leave them nil.
	scen          *scenario.Generator
	scenSpec      *scenario.Spec
	phaseProfiles []Profile
}

// procsPerCPU is the size of each processor's resident process pool.
// Keeping the pool small models processor affinity (Concentrix does
// not migrate processes) and keeps the user working set realistic.
const procsPerCPU = 4

// procBase is the first process id of cpu c's resident pool. The
// kernel's process table holds kernel.NProcs entries, so beyond
// (NProcs-procsPerCPU)/procsPerCPU processors the pools wrap and
// distant CPUs share processes — deterministic aliasing that models
// an over-committed process table. For c <= 62 this is exactly the
// historical c*procsPerCPU+1, so 4-CPU traces are unchanged.
func (g *generator) procBase(c int) int {
	return (c*procsPerCPU)%(kernel.NProcs-procsPerCPU) + 1
}

// startServices starts round's service stream, seeded as the same
// stream on every processor.
func (g *generator) startServices(round int) {
	g.svcStream.reset(g.seed*131071 + int64(round)*31 + 7)
}

// serviceRNG returns cpu c's service RNG for the round, rewound to the
// start of the round's stream.
func (g *generator) serviceRNG(c int) *rand.Rand {
	g.svcReaders[c].rewind()
	return g.svcRNGs[c]
}

// round generates one scheduling quantum on every processor. Rounds
// are generated CPU-by-CPU but synchronization annotations keep the
// simulator's interleaving honest.
func (g *generator) round(round int) {
	barriers := 0
	if g.p.BarrierEvery > 0 && round%g.p.BarrierEvery == 0 {
		barriers = max(1, g.p.BarriersPerRound)
	}
	svc := g.drawServices()
	g.startServices(round)
	for c := 0; c < g.n; c++ {
		e, rng := g.ems[c], g.rngs[c]
		// Kernel-service details (sizes, victims, jitter) are drawn
		// from a per-round stream identical on every CPU, so
		// gang-scheduled quanta stay balanced; user-side draws keep
		// the per-CPU streams distinct.
		svcRNG := g.serviceRNG(c)
		// Gang-scheduling: the scheduler runs everywhere, then the
		// processors synchronize before the parallel program resumes
		// (Section 5's explanation of the barrier misses).
		for b := 0; b < barriers; b++ {
			g.k.GangBarrier(e, (round+b)%kernel.NumBarriers, uint32(round*8+b), g.n)
		}
		if rng.Float64() < g.p.IdleFrac {
			// An idle quantum runs the idle loop for about as long as
			// an active quantum runs user code.
			g.k.IdleLoop(e, 2*g.p.UserRefs/3+rng.Intn(g.p.UserRefs/4+1))
			continue
		}
		steps := g.osServices(c, round, svc, svcRNG)
		// Rotate the service order per CPU and interleave user-mode
		// chunks so kernel entries stagger across the quantum.
		nChunks := len(steps) + 1
		chunk := g.p.UserRefs / nChunks
		for i := 0; i <= len(steps); i++ {
			g.userBurst(c, chunk)
			if i < len(steps) {
				steps[(i+c*len(steps)/g.n)%len(steps)]()
			}
		}
	}
}

// services is the symmetric per-round event plan. Gang-scheduled
// processes perform near-identical kernel activity in a quantum, so
// the counts are drawn once per round and shared by all processors;
// drawing them independently would manufacture load imbalance (and
// with it artificial barrier-wait time) that the traced machine did
// not have.
type services struct {
	schedules, timers, faults, forks, execs, exits int
	reads, writes, nameis, sockets, ipis           int
}

func (g *generator) drawServices() services {
	p, rng := g.p, g.global
	return services{
		schedules: count(rng, p.SchedulesPer),
		timers:    count(rng, p.TimerTicksPer),
		faults:    count(rng, p.PageFaultsPer),
		forks:     count(rng, p.ForksPer),
		execs:     count(rng, p.ExecsPer),
		exits:     count(rng, p.ExitsPer),
		reads:     count(rng, p.ReadsPer),
		writes:    count(rng, p.WritesPer),
		nameis:    count(rng, p.NameiPer),
		sockets:   count(rng, p.SocketsPer),
		ipis:      count(rng, p.IPIsPer),
	}
}

// count draws an event count with expectation rate (a Bernoulli/
// small-Poisson approximation adequate for rates below ~3).
func count(rng *rand.Rand, rate float64) int {
	n := int(rate)
	if rng.Float64() < rate-float64(n) {
		n++
	}
	return n
}

// osServices builds the round's kernel activity on cpu c as a list of
// service steps. The caller interleaves the steps with user-mode
// chunks, rotating the order per CPU so that the bus-heavy block
// operations of different processors spread across the quantum instead
// of colliding — matching a real machine, where the four processors'
// kernel entries are not phase-locked.
func (g *generator) osServices(c, round int, svc services, rng *rand.Rand) []func() {
	e, p := g.ems[c], g.p
	var steps []func()
	add := func(fn func()) { steps = append(steps, fn) }

	for i := svc.schedules; i > 0; i-- {
		add(func() {
			from := g.proc[c]
			// Processes are CPU-affine: the scheduler rotates within
			// the processor's small resident pool.
			to := g.procBase(c) + rng.Intn(procsPerCPU)
			g.k.Schedule(e, rng, from, to)
			g.proc[c] = to
		})
	}
	for i := svc.timers; i > 0; i-- {
		add(func() { g.k.TimerTick(e, rng) })
	}
	for i := svc.faults; i > 0; i-- {
		add(func() { g.k.PageFault(e, rng, g.proc[c], p.DstWarmFrac) })
	}
	for i := svc.forks; i > 0; i-- {
		add(func() {
			g.nextProc++
			child := 16 + g.nextProc%(kernel.NProcs-16)
			chain := rng.Float64() < p.ForkChainProb
			g.k.Fork(e, rng, g.proc[c], child, p.ForkPages, chain, p.SrcWarmFrac, p.DstWarmFrac)
		})
	}
	for i := svc.execs; i > 0; i-- {
		add(func() {
			size := p.pickSize(rng.Float64()) + uint64(rng.Intn(2))*4096
			g.k.Exec(e, rng, g.proc[c], size, rng.Float64() > p.ReadOnlyProb, p.SrcWarmFrac)
		})
	}
	for i := svc.exits; i > 0; i-- {
		add(func() { g.k.Exit(e, rng, 16+rng.Intn(kernel.NProcs-16)) })
	}
	for i := svc.reads; i > 0; i-- {
		add(func() {
			size := p.pickSize(rng.Float64())
			g.k.ReadSyscall(e, rng, g.proc[c], size, rng.Float64() > p.ReadOnlyProb, p.SrcWarmFrac)
		})
	}
	for i := svc.writes; i > 0; i-- {
		add(func() { g.k.WriteSyscall(e, rng, g.proc[c], p.pickSize(rng.Float64())) })
	}
	for i := svc.nameis; i > 0; i-- {
		add(func() { g.k.NameiLookup(e, rng, 2+rng.Intn(3)) })
	}
	for i := svc.sockets; i > 0; i-- {
		add(func() { g.k.SocketOp(e, rng, g.proc[c]) })
	}
	for i := svc.ipis; i > 0; i-- {
		add(func() {
			// The sender writes the target's cpievents slot; the
			// target handles the interrupt in its own stream. A
			// uniprocessor interrupts itself (softints).
			target := c
			if g.n > 1 {
				target = (c + 1 + rng.Intn(g.n-1)) % g.n
			}
			g.k.SendIPI(e, rng, target)
			g.k.HandleIPI(g.ems[target], rng)
		})
	}
	if p.PagerEvery > 0 && round%p.PagerEvery == 0 && c == round/p.PagerEvery%g.n {
		add(func() { g.k.Pager(e, rng, g.n) })
	}
	return steps
}

// userBurst emits one quantum of user-mode computation: a hot loop
// over a per-process working set, a streaming component, and the
// instruction stream of a small loop body.
func (g *generator) userBurst(c, refs int) {
	e, rng, p := g.ems[c], g.rngs[c], g.p
	proc := g.proc[c]
	textBase := kernel.UserText(proc)
	workSet := kernel.UserData(proc)              // 8 KB hot working set
	streamBase := kernel.UserData(proc) + 0x20000 // long streaming region

	n := refs / 5 // each iteration emits 5 refs
	pc := textBase
	instr := trace.Ref{CPU: e.CPU, Op: trace.OpInstr, Kind: trace.KindUser}
	for i := 0; i < n; i++ {
		// Small loop body: 4 instructions then one data access (a
		// compute-heavy numeric inner loop), written in place.
		if i%16 == 0 {
			pc = textBase + uint64(rng.Intn(4))*64
		}
		body := e.Grow(5)
		for j := 0; j < 4; j++ {
			instr.Addr = pc
			body[j] = instr
			pc += 4
		}
		var addr uint64
		if rng.Float64() < p.UserStreamFrac {
			addr = streamBase + g.cursor[c]
			g.cursor[c] += 4
			if g.cursor[c] >= 0x30000 {
				g.cursor[c] = 0
			}
		} else if rng.Float64() < 0.97 {
			// Skewed reuse: most accesses hit the hottest 2 KB.
			addr = workSet + uint64(rng.Intn(2048/16))*16
		} else {
			addr = workSet + uint64(rng.Intn(8192/16))*16
		}
		op := trace.OpRead
		if rng.Intn(4) == 0 {
			op = trace.OpWrite
		}
		body[4] = trace.Ref{Addr: addr, CPU: e.CPU, Op: op, Kind: trace.KindUser, Class: trace.ClassUserData}
	}
}
