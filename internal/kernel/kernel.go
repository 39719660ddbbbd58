package kernel

import (
	"math/rand"
	"slices"

	"oscachesim/internal/memory"
	"oscachesim/internal/trace"
)

// OptConfig selects the software-side optimizations the kernel is
// built with. Each maps to a section of the paper:
//
//   - BlockPrefetch: software prefetching of block-operation source
//     data with loop unrolling and software pipelining (Blk_Pref and
//     the prefetch half of Blk_ByPref, Section 4.2).
//   - BlockDMA: block operations dispatched to the DMA-like smart
//     cache controller instead of a processor loop (Blk_Dma).
//   - DeferredCopy: sub-page copies deferred until first write
//     (Section 4.2.1).
//   - Privatize: per-CPU splitting of the event counters
//     (Section 5.1).
//   - Relocate: co-location of sequentially-accessed variables and
//     separation of false-sharing pairs (Section 5.1).
//   - HotSpotPrefetch: hand-inserted prefetches at the 12 hottest
//     miss spots (Section 6).
type OptConfig struct {
	BlockPrefetch   bool
	BlockPrefDist   int // lines of software-pipelining lead (default 4)
	BlockDMA        bool
	DeferredCopy    bool
	Privatize       bool
	Relocate        bool
	HotSpotPrefetch bool
}

// Emitter accumulates the reference stream of one processor. A build
// (and round 0 of a stream) lets Refs simply grow; a streaming
// producer instead sets Flush/FlushAt so the buffer is handed off in
// bounded chunks as it fills.
type Emitter struct {
	// CPU stamps every emitted reference.
	CPU uint8
	// Refs is the stream built (or buffered, when streaming) so far.
	Refs []trace.Ref
	// FlushAt, when positive and Flush is set, bounds Refs: the next
	// emit after len(Refs) reaches FlushAt first hands the buffer to
	// Flush.
	FlushAt int
	// Flush receives the filled buffer and returns the buffer to
	// continue emitting into (typically a fresh pooled batch; an
	// aborting flush may return refs[:0] to discard in place). Kernel
	// services never read back emitted references, so flushing at any
	// emit boundary is safe.
	Flush func(refs []trace.Ref) []trace.Ref
}

// Emit appends one reference, stamping the CPU.
func (e *Emitter) Emit(r trace.Ref) {
	r.CPU = e.CPU
	e.Grow(1)[0] = r
}

// Grow extends Refs by n references and returns them for the caller
// to write in place, so a block of references costs one capacity and
// flush check rather than one per reference. The returned references
// hold stale data: the caller assigns each one whole, CPU included
// (set it to e.CPU).
func (e *Emitter) Grow(n int) []trace.Ref {
	refs := e.Refs
	l := len(refs)
	if l+n > cap(refs) || e.Flush != nil && e.FlushAt > 0 && l >= e.FlushAt {
		return e.growSlow(n)
	}
	e.Refs = refs[:l+n]
	return refs[l : l+n]
}

// growSlow is Grow when the block does not fit: a streaming emitter
// hands its buffer to Flush first — including before a block that
// would overflow a pooled chunk, so the chunk is never regrown — and
// the buffer grows only if it is still too small for the block.
func (e *Emitter) growSlow(n int) []trace.Ref {
	if e.Flush != nil && len(e.Refs) > 0 {
		e.Refs = e.Flush(e.Refs)
	}
	l := len(e.Refs)
	e.Refs = slices.Grow(e.Refs, n)[:l+n]
	return e.Refs[l:]
}

// FlushPending hands any buffered references to the Flush hook
// regardless of the threshold. Streaming producers call it at round
// boundaries and at the end of generation so the tail of the stream is
// delivered.
func (e *Emitter) FlushPending() {
	if e.Flush != nil && len(e.Refs) > 0 {
		e.Refs = e.Flush(e.Refs)
	}
}

// Reserve ensures capacity for at least n further references, so a
// generator that can estimate its output (rounds × refs-per-round)
// pays one allocation instead of a doubling cascade. The grown batch
// comes from the trace pool and the outgrown one returns to it, so
// repeated builds recycle both generations of backing array.
func (e *Emitter) Reserve(n int) {
	if cap(e.Refs)-len(e.Refs) >= n {
		return
	}
	grown := append(trace.GetBatch(len(e.Refs)+n), e.Refs...)
	trace.PutBatch(e.Refs)
	e.Refs = grown
}

// Len returns the number of references emitted.
func (e *Emitter) Len() int { return len(e.Refs) }

// Kernel is the synthetic operating system: layout plus the mutable
// identity state (block-operation ids, fork chains, deferred copies).
// One Kernel is shared by all processors of a workload, mirroring the
// single kernel image of the simulated machine. It is not safe for
// concurrent use; workload generation is single-goroutine.
type Kernel struct {
	Opt    OptConfig
	Layout Layout

	alloc *memory.PageAllocator

	// blockSeq hands out block-operation ids (never zero).
	blockSeq uint32
	// lastForkDst remembers, per CPU, the destination page of the
	// last fork copy: forking chains (parent forks child forks
	// grandchild) make it the source of the next copy, which is the
	// mechanism behind the inside-reuse misses of Section 4.1.3.
	// Indexed by Emitter.CPU, so every uint8 CPU id has a slot.
	lastForkDst [256]uint64

	// bufCursor is the slowly-drifting buffer-cache locality window.
	bufCursor int
	// forkWindow is the per-CPU moving window of parent pages that
	// unchained forks copy, indexed like lastForkDst.
	forkWindow [256]int

	// Deferred-copy study state (Table 4).
	dcopy DeferredCopyStats
}

// DeferredCopyStats records the Table 4 measurements.
type DeferredCopyStats struct {
	// BlockCopies is all block copies performed.
	BlockCopies uint64
	// SmallCopies is copies of blocks smaller than a page.
	SmallCopies uint64
	// ReadOnlySmallCopies is small copies whose blocks are never
	// written afterwards; deferred copying elides them entirely.
	ReadOnlySmallCopies uint64
	// DeferredElided is copies suppressed by the deferred-copy
	// optimization (only counted when it is enabled).
	DeferredElided uint64
	// DeferredPerformed is deferred copies later forced by a write.
	DeferredPerformed uint64
}

// New builds a kernel with the given optimizations.
func New(opt OptConfig) *Kernel {
	if opt.BlockPrefDist <= 0 {
		opt.BlockPrefDist = 4
	}
	alloc, err := memory.NewPageAllocator(memory.Region{
		Name: "freepool", Base: FreePoolBase, Size: FreePoolSize,
	})
	if err != nil {
		panic(err) // static region; cannot fail
	}
	return &Kernel{
		Opt:      opt,
		Layout:   Layout{Privatized: opt.Privatize, Relocated: opt.Relocate},
		alloc:    alloc,
		blockSeq: 0,
	}
}

// DeferredCopies returns the Table 4 counters.
func (k *Kernel) DeferredCopies() DeferredCopyStats { return k.dcopy }

// AllocPage takes a page from the free pool, recycling forever (the
// pool is large; exhaustion indicates a runaway workload).
func (k *Kernel) AllocPage() uint64 {
	p, err := k.alloc.Alloc()
	if err != nil {
		// Recycle deterministically from the start of the pool.
		k.alloc, _ = memory.NewPageAllocator(memory.Region{
			Name: "freepool", Base: FreePoolBase, Size: FreePoolSize,
		})
		p, _ = k.alloc.Alloc()
	}
	return p
}

// FreePage returns a page to the pool.
func (k *Kernel) FreePage(p uint64) { k.alloc.Free(p) }

// nextBlockID returns a fresh non-zero block-operation id.
func (k *Kernel) nextBlockID() uint32 {
	k.blockSeq++
	if k.blockSeq == 0 {
		k.blockSeq = 1
	}
	return k.blockSeq
}

// --- Low-level emission helpers ----------------------------------------

// code emits n sequential instruction fetches starting at pc,
// returning the next pc. Hot-spot and block tags propagate to the
// instruction stream (block-loop instructions are part of the
// block-operation overhead the paper measures).
func (e *Emitter) code(pc uint64, n int, kind trace.Kind, block uint32, spot uint16) uint64 {
	r := trace.Ref{Addr: pc, CPU: e.CPU, Op: trace.OpInstr, Kind: kind, Block: block, Spot: spot}
	blk := e.Grow(n)
	for i := range blk {
		blk[i] = r
		r.Addr += 4
	}
	return r.Addr
}

// osCode emits n OS instructions at pc.
func (e *Emitter) osCode(pc uint64, n int) uint64 {
	return e.code(pc, n, trace.KindOS, 0, 0)
}

// read emits one OS data read.
func (e *Emitter) read(addr uint64, class trace.DataClass) {
	e.Emit(trace.Ref{Addr: addr, Op: trace.OpRead, Kind: trace.KindOS, Class: class})
}

// readSpot emits one OS data read tagged with a hot-spot id.
func (e *Emitter) readSpot(addr uint64, class trace.DataClass, spot uint16) {
	e.Emit(trace.Ref{Addr: addr, Op: trace.OpRead, Kind: trace.KindOS, Class: class, Spot: spot})
}

// write emits one OS data write.
func (e *Emitter) write(addr uint64, class trace.DataClass) {
	e.Emit(trace.Ref{Addr: addr, Op: trace.OpWrite, Kind: trace.KindOS, Class: class})
}

// writeSpot emits one OS data write tagged with a hot-spot id.
func (e *Emitter) writeSpot(addr uint64, class trace.DataClass, spot uint16) {
	e.Emit(trace.Ref{Addr: addr, Op: trace.OpWrite, Kind: trace.KindOS, Class: class, Spot: spot})
}

// prefetch emits one OS software-prefetch instruction.
func (e *Emitter) prefetch(addr uint64, block uint32, spot uint16) {
	e.Emit(trace.Ref{Addr: addr, Op: trace.OpPrefetch, Kind: trace.KindOS, Block: block, Spot: spot})
}

// bump emits a counter increment: a read-modify-write of the counter
// cell for this CPU under the active layout.
func (k *Kernel) bump(e *Emitter, ctr int) {
	addr := k.Layout.CounterAddr(ctr, int(e.CPU))
	e.read(addr, trace.ClassCounter)
	e.write(addr, trace.ClassCounter)
}

// lockAcquire emits the acquire of a kernel lock: the test read of the
// test&set (whose coherence miss after a remote holder is the lock
// miss of Table 5) followed by the set, on which the simulator
// re-enforces mutual exclusion.
func (k *Kernel) lockAcquire(e *Emitter, lock int) {
	addr := k.Layout.LockAddr(lock)
	e.read(addr, trace.ClassLock)
	e.Emit(trace.Ref{
		Addr: addr, Op: trace.OpWrite, Kind: trace.KindOS,
		Class: trace.ClassLock, Sync: trace.SyncLockAcquire, SyncID: uint32(lock) + 1,
	})
}

// lockRelease emits the matching release.
func (k *Kernel) lockRelease(e *Emitter, lock int) {
	e.Emit(trace.Ref{
		Addr: k.Layout.LockAddr(lock), Op: trace.OpWrite, Kind: trace.KindOS,
		Class: trace.ClassLock, Sync: trace.SyncLockRelease, SyncID: uint32(lock) + 1,
	})
}

// spotPrefetchData emits prefetches for a set of upcoming data
// addresses when the hot-spot prefetch optimization is on, deduplicated
// by L1 line.
func (k *Kernel) spotPrefetchData(e *Emitter, spot uint16, addrs ...uint64) {
	if !k.Opt.HotSpotPrefetch {
		return
	}
	seen := make(map[uint64]bool, len(addrs))
	for _, a := range addrs {
		line := a &^ 15
		if seen[line] {
			continue
		}
		seen[line] = true
		e.prefetch(line, 0, spot)
	}
}

// body emits n units of ordinary kernel code: each unit is two
// instructions plus one data reference, mostly to the processor's hot
// kernel stack with an occasional hot read-only global — the
// well-hitting bulk of kernel execution between the interesting
// (miss-prone) accesses the routines emit explicitly. A quarter of the
// stack reads are followed by a write back. Each unit's draws come
// first and its references are written as one block. It returns the
// advanced pc.
func (k *Kernel) body(e *Emitter, rng *rand.Rand, pc uint64, n int) uint64 {
	for i := 0; i < n; i++ {
		var addr uint64
		var class trace.DataClass
		switch rng.Intn(12) {
		case 0:
			addr = SysentAddr(rng.Intn(32))
			class = trace.ClassSysent
		case 1:
			// A conflict-prone structure reference: kernel code
			// constantly chases pointers into the large arrays whose
			// lines collide with each other in a direct-mapped cache —
			// the paper's "random conflicts" (Section 6).
			addr, class = k.conflictTarget(rng)
		default:
			addr = KStackAddr(int(e.CPU), uint64(rng.Intn(64))*16)
			class = trace.ClassStack
		}
		write := class == trace.ClassStack && rng.Intn(4) == 0
		unit := e.Grow(3 + b2i(write))
		unit[0] = trace.Ref{Addr: pc, CPU: e.CPU, Op: trace.OpInstr, Kind: trace.KindOS}
		unit[1] = trace.Ref{Addr: pc + 4, CPU: e.CPU, Op: trace.OpInstr, Kind: trace.KindOS}
		unit[2] = trace.Ref{Addr: addr, CPU: e.CPU, Op: trace.OpRead, Kind: trace.KindOS, Class: class}
		if write {
			unit[3] = trace.Ref{Addr: addr, CPU: e.CPU, Op: trace.OpWrite, Kind: trace.KindOS, Class: class}
		}
		pc += 8
	}
	return pc
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// conflictTarget picks a read in one of the big kernel arrays; such
// reads miss often (cold, capacity, and random direct-mapped
// conflicts), forming the "Other" population of Table 2.
func (k *Kernel) conflictTarget(rng *rand.Rand) (uint64, trace.DataClass) {
	switch rng.Intn(4) {
	case 0:
		return ProcAddr(rng.Intn(NProcs)) + uint64(rng.Intn(8))*64, trace.ClassProcTable
	case 1:
		return BufHdrAddr(rng.Intn(NBufs)), trace.ClassBufferCache
	case 2:
		return PTEAddr(rng.Intn(NProcs), rng.Intn(1024)), trace.ClassPageTable
	default:
		return CalloutBase + uint64(rng.Intn(192))*16, trace.ClassTimer
	}
}

// stackWork emits n read/write pairs on the processor's kernel stack —
// the register spills, local variables and call frames that make up
// the bulk of a kernel's (well-hitting) data references.
func (k *Kernel) stackWork(e *Emitter, rng *rand.Rand, n int) {
	refs := e.Grow(n + (n+2)/3)
	j := 0
	for i := 0; i < n; i++ {
		addr := KStackAddr(int(e.CPU), uint64(rng.Intn(64))*16)
		refs[j] = trace.Ref{Addr: addr, CPU: e.CPU, Op: trace.OpRead, Kind: trace.KindOS, Class: trace.ClassStack}
		j++
		if i%3 == 0 {
			refs[j] = trace.Ref{Addr: addr, CPU: e.CPU, Op: trace.OpWrite, Kind: trace.KindOS, Class: trace.ClassStack}
			j++
		}
	}
}

// pad returns a deterministic small jitter in [0,n) from the rng; it
// keeps routine bodies from being perfectly identical.
func pad(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	return rng.Intn(n)
}
