package scenario

import (
	"math/rand"

	"oscachesim/internal/kernel"
	"oscachesim/internal/trace"
)

// Scenario address map. All regions sit above 0x4000_0000, well clear
// of the kernel map (which ends at 0x2000_0000 with the user-data
// window), so scenario traffic never aliases kernel structures.
const (
	// scnSharedBase holds the per-group shared regions of the sharing
	// emitter: one 1-MB window per sharing group.
	scnSharedBase   uint64 = 0x4000_0000
	scnSharedStride uint64 = 0x0010_0000
	// scnPrivateBase holds each CPU's private working set: one 1-MB
	// window per CPU.
	scnPrivateBase   uint64 = 0x5000_0000
	scnPrivateStride uint64 = 0x0010_0000
	// scnFSNaiveBase is the packed shared counter array of the naive
	// false-sharing layout (and the combine target of the chunked
	// layout): 8 bytes per (variable, CPU) pair, CPUs adjacent.
	scnFSNaiveBase uint64 = 0x6000_0000
	// scnFSPadBase is the padded layout: 64 bytes (a full line even on
	// large-line machines) per (variable, CPU) pair.
	scnFSPadBase uint64 = 0x6040_0000
	// scnFSAccumBase holds the chunked layout's CPU-private
	// accumulators: 1 KB per CPU, 8 bytes per variable.
	scnFSAccumBase uint64 = 0x6200_0000
	// scnTextBase is the user instruction stream: a 64-KB window per
	// CPU (the synthetic program text is CPU-private, as gang-
	// scheduled SPMD code effectively is after the first fill).
	scnTextBase   uint64 = 0x6400_0000
	scnTextStride uint64 = 0x0001_0000
	// scnSrcBase / scnDstBase are the block-operation source and
	// destination pools: 2-MB per-CPU windows the block cursors wrap
	// within (2 MB > MaxBlockBytes, so one operation never wraps).
	scnSrcBase   uint64 = 0x8000_0000
	scnDstBase   uint64 = 0xA000_0000
	scnIOStride  uint64 = 0x0020_0000
	scnPadStride uint64 = 64
)

// Per-CPU code-window offsets for the synthetic emitters.
const (
	codeUserLoop uint64 = 0x0000
	codeFSOps    uint64 = 0x4000
	codeFSFlush  uint64 = 0x6000
)

// Generator turns a validated Spec into per-CPU reference streams.
// It is driven round-by-round by the workload package (which owns the
// RNG streams, emitters and kernel-service interleaving); the
// Generator owns phase resolution and the synthetic emitters.
// Not safe for concurrent use.
type Generator struct {
	spec *Spec
	n    int
	// starts[i] is the first (scaled) round of phase i;
	// starts[len(phases)] is the total round count.
	starts []int
	// degree[i] is phase i's sharing degree clamped to [1, n].
	degree []int
	// srcCur/dstCur are the per-CPU block-operation pool cursors.
	srcCur, dstCur []uint64
}

// NewGenerator prepares a generator for a validated spec on an
// n-CPU machine. scale multiplies every phase's round count
// (scale <= 0 means 1), mirroring RunConfig.Scale's role for the
// built-in workloads.
func NewGenerator(spec *Spec, ncpus, scale int) *Generator {
	if scale <= 0 {
		scale = 1
	}
	g := &Generator{
		spec:   spec,
		n:      ncpus,
		starts: make([]int, len(spec.Phases)+1),
		degree: make([]int, len(spec.Phases)),
		srcCur: make([]uint64, ncpus),
		dstCur: make([]uint64, ncpus),
	}
	total := 0
	for i := range spec.Phases {
		g.starts[i] = total
		total += spec.Phases[i].Rounds * scale
		d := spec.Phases[i].SharingDegree
		if d < 1 {
			d = 1
		}
		if d > ncpus {
			d = ncpus
		}
		g.degree[i] = d
	}
	g.starts[len(spec.Phases)] = total
	return g
}

// TotalRounds is the scaled round count of the whole scenario.
func (g *Generator) TotalRounds() int { return g.starts[len(g.spec.Phases)] }

// PhaseAt resolves a round to its phase. Rounds past the end stay in
// the last phase (callers never exceed TotalRounds, but the clamp
// keeps the function total).
func (g *Generator) PhaseAt(round int) (int, *Phase) {
	for i := 1; i < len(g.starts); i++ {
		if round < g.starts[i] {
			return i - 1, &g.spec.Phases[i-1]
		}
	}
	last := len(g.spec.Phases) - 1
	return last, &g.spec.Phases[last]
}

// RoundUserRefs is phase pi's per-round user burst with the default
// filled in — the reference budget the driver splits into chunks
// around kernel-service and emitter steps.
func (g *Generator) RoundUserRefs(pi int) int {
	if r := g.spec.Phases[pi].UserRefs; r > 0 {
		return r
	}
	return defaultUserRefs
}

// regionBytes converts a KB knob to bytes with the default filled in.
func regionBytes(kb int) uint64 {
	if kb <= 0 {
		kb = defaultRegionKB
	}
	return uint64(kb) * 1024
}

func scnText(cpu int) uint64    { return scnTextBase + uint64(cpu)*scnTextStride }
func scnPrivate(cpu int) uint64 { return scnPrivateBase + uint64(cpu)*scnPrivateStride }
func scnShared(group int) uint64 {
	return scnSharedBase + uint64(group)*scnSharedStride
}

// fsNaiveAddr is variable v's counter cell for cpu under the packed
// layout: CPUs adjacent, several counters per cache line.
func fsNaiveAddr(v, cpu, ncpus int) uint64 {
	return scnFSNaiveBase + (uint64(v)*uint64(ncpus)+uint64(cpu))*8
}

// fsPadAddr gives each (variable, CPU) cell its own 64-byte line —
// the same packing order as the naive layout, with the cells padded
// out to a full line. Packing keeps the array contiguous (the padded
// fix costs memory, not associativity), so cells never alias each
// other in a direct-mapped cache.
func fsPadAddr(v, cpu, ncpus int) uint64 {
	return scnFSPadBase + (uint64(v)*uint64(ncpus)+uint64(cpu))*scnPadStride
}

// fsAccumAddr is cpu's private accumulator for variable v.
func fsAccumAddr(v, cpu int) uint64 {
	return scnFSAccumBase + uint64(cpu)*1024 + uint64(v)*8
}

// UserBurst emits roughly refs user-mode references on cpu for phase
// pi: a loop-body instruction stream plus one data access per
// iteration, split between the CPU's private working set and (under a
// sharing degree above 1) the CPU group's shared region.
func (g *Generator) UserBurst(e *kernel.Emitter, cpu, pi int, rng *rand.Rand, refs int) {
	p := &g.spec.Phases[pi]
	d := g.degree[pi]
	textBase := scnText(cpu) + codeUserLoop
	private := scnPrivate(cpu)
	wsBytes := regionBytes(p.WorkingSetKB)
	hotBytes := wsBytes / 4
	if hotBytes < 1024 {
		hotBytes = 1024
	}
	var shared uint64
	var shBytes uint64
	sharing := d > 1 && p.SharedFrac > 0
	if sharing {
		shared = scnShared(cpu / d)
		shBytes = regionBytes(p.SharedKB)
	}

	n := refs / 5 // each iteration emits 5 refs
	pc := textBase
	instr := trace.Ref{CPU: e.CPU, Op: trace.OpInstr, Kind: trace.KindUser}
	for i := 0; i < n; i++ {
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
		op := trace.OpRead
		if sharing && rng.Float64() < p.SharedFrac {
			// A shared-region access: uniform over the group's region,
			// so every sharer's lines circulate among d caches.
			addr = shared + uint64(rng.Intn(int(shBytes/16)))*16
			if rng.Float64() < p.SharedWriteFrac {
				op = trace.OpWrite
			}
		} else {
			// Private working set with skewed reuse: most accesses hit
			// the hottest quarter.
			if rng.Float64() < 0.97 {
				addr = private + uint64(rng.Intn(int(hotBytes/16)))*16
			} else {
				addr = private + uint64(rng.Intn(int(wsBytes/16)))*16
			}
			if rng.Intn(4) == 0 {
				op = trace.OpWrite
			}
		}
		body[4] = trace.Ref{Addr: addr, CPU: e.CPU, Op: op, Kind: trace.KindUser, Class: trace.ClassUserData}
	}
}

// FalseSharingRound emits phase pi's false-sharing operations on cpu:
// OpsPerRound read-modify-write increments cycling through the
// phase's counter variables, laid out per the mode. The instruction
// stream is a tight loop in the CPU's code window; the chunked mode
// additionally folds each accumulator into the shared packed array
// every ChunkOps operations and at the end of the round.
func (g *Generator) FalseSharingRound(e *kernel.Emitter, cpu, pi int) {
	p := &g.spec.Phases[pi]
	fs := p.FalseSharing
	if !fs.Enabled() {
		return
	}
	vars := fs.Vars
	if vars <= 0 {
		vars = defaultFSVars
	}
	chunk := fs.ChunkOps
	if chunk <= 0 {
		chunk = defaultChunkOps
	}
	textBase := scnText(cpu) + codeFSOps
	pc := textBase
	for i := 0; i < fs.OpsPerRound; i++ {
		if i%8 == 0 {
			pc = textBase // the loop re-executes the same code
		}
		v := i % vars
		var addr uint64
		switch fs.Mode {
		case FSNaive:
			addr = fsNaiveAddr(v, cpu, g.n)
		case FSPadded:
			addr = fsPadAddr(v, cpu, g.n)
		case FSChunked:
			addr = fsAccumAddr(v, cpu)
		}
		body := e.Grow(4)
		body[0] = trace.Ref{Addr: pc, CPU: e.CPU, Op: trace.OpInstr, Kind: trace.KindUser}
		body[1] = trace.Ref{Addr: pc + 4, CPU: e.CPU, Op: trace.OpInstr, Kind: trace.KindUser}
		body[2] = trace.Ref{Addr: addr, CPU: e.CPU, Op: trace.OpRead, Kind: trace.KindUser, Class: trace.ClassUserData}
		body[3] = trace.Ref{Addr: addr, CPU: e.CPU, Op: trace.OpWrite, Kind: trace.KindUser, Class: trace.ClassUserData}
		pc += 8
		if fs.Mode == FSChunked && i%chunk == chunk-1 {
			g.fsCombine(e, v, cpu)
		}
	}
	if fs.Mode == FSChunked {
		// End-of-round flush: every variable's residue reaches the
		// shared array, so all three modes agree on final counts.
		for v := 0; v < vars; v++ {
			g.fsCombine(e, v, cpu)
		}
	}
}

// fsCombine folds cpu's private accumulator for variable v into the
// shared packed counter: the chunked mode's one shared RMW per chunk.
func (g *Generator) fsCombine(e *kernel.Emitter, v, cpu int) {
	pc := scnText(cpu) + codeFSFlush
	shared := fsNaiveAddr(v, cpu, g.n)
	body := e.Grow(4)
	body[0] = trace.Ref{Addr: pc, CPU: e.CPU, Op: trace.OpInstr, Kind: trace.KindUser}
	body[1] = trace.Ref{Addr: fsAccumAddr(v, cpu), CPU: e.CPU, Op: trace.OpRead, Kind: trace.KindUser, Class: trace.ClassUserData}
	body[2] = trace.Ref{Addr: shared, CPU: e.CPU, Op: trace.OpRead, Kind: trace.KindUser, Class: trace.ClassUserData}
	body[3] = trace.Ref{Addr: shared, CPU: e.CPU, Op: trace.OpWrite, Kind: trace.KindUser, Class: trace.ClassUserData}
}

// BlockOps emits phase pi's block operations for this round on cpu:
// each is an OS-mediated copy from the CPU's source pool into a fresh
// destination window, sized from the phase's mixture, running under
// whatever block scheme the kernel is configured with (loop,
// prefetched loop, DMA, deferred). svcRNG is the per-round service
// stream — identical on every CPU, so gang-scheduled rounds stay
// balanced; the per-CPU pools keep the addresses distinct.
func (g *Generator) BlockOps(k *kernel.Kernel, e *kernel.Emitter, cpu, pi int, svcRNG *rand.Rand) {
	p := &g.spec.Phases[pi]
	n := count(svcRNG, p.BlockOpsPerRound)
	for i := 0; i < n; i++ {
		size := pickBlockSize(p.BlockSizes, svcRNG.Float64())
		src := g.cursorAlloc(g.srcCur, cpu, scnSrcBase, size)
		dst := g.cursorAlloc(g.dstCur, cpu, scnDstBase, size)
		written := svcRNG.Float64() >= p.BlockReadOnlyProb
		// Half the source block is typically still cached from its
		// producer (the Table 3 "already cached" population).
		k.Warm(e, svcRNG, src, size, 0.5, false, trace.KindOS, trace.ClassBufferCache)
		k.Block(e, svcRNG, kernel.BlockOp{
			Src: src, Dst: dst, Size: size,
			SrcClass: trace.ClassBufferCache, DstClass: trace.ClassUserData,
			WrittenLater: written,
		})
		if written {
			// The consumer touches the head of the copied block,
			// honouring the WrittenLater annotation.
			for off := uint64(0); off < 64 && off < size; off += 16 {
				e.Emit(trace.Ref{Addr: dst + off, Op: trace.OpWrite, Kind: trace.KindUser, Class: trace.ClassUserData})
			}
		}
	}
}

// cursorAlloc hands out the next size-byte span of cpu's 2-MB pool
// window, 64-byte aligned, wrapping at the window's end.
func (g *Generator) cursorAlloc(cur []uint64, cpu int, base uint64, size uint64) uint64 {
	aligned := (size + scnPadStride - 1) &^ (scnPadStride - 1)
	if cur[cpu]+aligned > scnIOStride {
		cur[cpu] = 0
	}
	addr := base + uint64(cpu)*scnIOStride + cur[cpu]
	cur[cpu] += aligned
	return addr
}

// pickBlockSize draws from the size mixture (empty = one page).
func pickBlockSize(sizes []SizeClass, f float64) uint64 {
	if len(sizes) == 0 {
		return defaultBlockSize
	}
	total := 0.0
	for _, s := range sizes {
		total += s.Weight
	}
	x := f * total
	for _, s := range sizes {
		if x < s.Weight {
			return s.Bytes
		}
		x -= s.Weight
	}
	return sizes[len(sizes)-1].Bytes
}

// count draws an event count with expectation rate (the same
// Bernoulli rounding the workload generator uses for service rates).
func count(rng *rand.Rand, rate float64) int {
	n := int(rate)
	if rng.Float64() < rate-float64(n) {
		n++
	}
	return n
}
