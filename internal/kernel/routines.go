package kernel

import (
	"math/rand"

	"oscachesim/internal/memory"
	"oscachesim/internal/trace"
)

// The kernel routines below emit the reference streams of the
// operating-system services the four workloads exercise: page-fault
// handling, process creation and termination, exec, read/write system
// calls, scheduling and context switching, cross-processor interrupts,
// gang-scheduling barriers, timer/accounting ticks, the pager, and
// name/inode lookups. The miss hot spots of Section 6 (5 loops and 7
// sequences) are tagged with Spot ids, and the hot-spot prefetch
// optimization inserts prefetches at exactly those spots.

// PageFault handles an anonymous page fault of process proc: walk the
// free list, allocate and zero a page, install the PTE. The returned
// page is the newly mapped frame. dstWarm is the fraction of the new
// frame still cached dirty from its previous life (the LIFO free list
// hands back recently-freed, hence cache-warm, pages — the Table 3
// row 2 population).
func (k *Kernel) PageFault(e *Emitter, rng *rand.Rand, proc int, dstWarm float64) uint64 {
	pc := k.body(e, rng, codePageFault, 30+pad(rng, 8))
	k.stackWork(e, rng, 10)
	k.bump(e, CtrPageFault)

	// Free-page allocation under the memory lock; the free-list walk
	// is hot-spot loop SpotFreeList, and freelist.size is a
	// frequently-shared variable.
	k.lockAcquire(e, LockMemory)
	e.read(k.Layout.FreeListSizeAddr(), trace.ClassFreqShared)
	steps := 2 + pad(rng, 4)
	if k.Opt.HotSpotPrefetch {
		// The list nodes live in the free frames themselves; prefetch
		// the next links ahead of the walk.
		for i := 0; i < steps; i++ {
			e.prefetch(FreePoolBase+uint64(k.alloc.InUse()+i)*memory.PageSize, 0, SpotFreeList)
		}
	}
	for i := 0; i < steps; i++ {
		pc = e.code(codePageFault+0x100, 4, trace.KindOS, 0, SpotFreeList)
		e.readSpot(FreePoolBase+uint64(k.alloc.InUse()+i)*memory.PageSize, trace.ClassFreeList, SpotFreeList)
	}
	page := k.AllocPage()
	e.write(k.Layout.FreeListSizeAddr(), trace.ClassFreqShared)
	k.lockRelease(e, LockMemory)

	// Zero-fill the frame: a block operation. A recycled frame is
	// partially cache-warm from its previous owner.
	k.Warm(e, rng, page, memory.PageSize, dstWarm, true, trace.KindOS, trace.ClassUserData)
	k.Block(e, rng, BlockOp{Dst: page, Size: memory.PageSize, DstClass: trace.ClassUserData, WrittenLater: true})

	// Install the mapping.
	pte := PTEAddr(proc, pad(rng, 1024))
	e.read(pte, trace.ClassPageTable)
	e.write(pte, trace.ClassPageTable)
	e.code(pc, 12, trace.KindOS, 0, 0)
	return page
}

// Fork creates child from parent: process-table setup, the page-table
// copy loop (hot spot SpotPTECopy), and nPages copy-on-write page
// copies. Fork chains share blocks: with the paper's fork-fork-fork
// pattern the destination of one copy becomes the source of the next.
func (k *Kernel) Fork(e *Emitter, rng *rand.Rand, parent, child, nPages int, chain bool, srcWarm, dstWarm float64) {
	pc := k.body(e, rng, codeFork, 70+pad(rng, 16))
	k.stackWork(e, rng, 24)
	k.bump(e, CtrForks)

	k.lockAcquire(e, LockProc)
	for w := 0; w < 6; w++ {
		e.read(ProcAddr(parent)+uint64(w*8), trace.ClassProcTable)
		e.write(ProcAddr(child)+uint64(w*8), trace.ClassProcTable)
	}
	k.lockRelease(e, LockProc)

	// Page-table copy loop (hot spot).
	n := 24 + pad(rng, 16)
	if k.Opt.HotSpotPrefetch {
		for i := 0; i < n; i += 4 {
			e.prefetch(PTEAddr(parent, i), 0, SpotPTECopy)
		}
	}
	for i := 0; i < n; i++ {
		e.code(codeFork+0x200, 3, trace.KindOS, 0, SpotPTECopy)
		e.readSpot(PTEAddr(parent, i), trace.ClassPageTable, SpotPTECopy)
		e.writeSpot(PTEAddr(child, i), trace.ClassPageTable, SpotPTECopy)
	}

	// Copy the data pages. A chained fork re-copies the page the
	// previous fork just produced (fork-fork-fork), which under the
	// write-allocating primary cache is still resident — the source
	// of the Section 4.1.3 inside reuses. Unchained forks copy a
	// moving window of the parent's address space, partially warm
	// from the parent's recent use.
	for p := 0; p < nPages; p++ {
		src := uint64(0)
		if chain && k.lastForkDst[e.CPU] != 0 {
			src = k.lastForkDst[e.CPU]
		} else {
			k.forkWindow[e.CPU] = (k.forkWindow[e.CPU] + 1) % 48
			src = UserData(parent) + uint64(k.forkWindow[e.CPU])*memory.PageSize
			k.Warm(e, rng, src, memory.PageSize, srcWarm, false, trace.KindUser, trace.ClassUserData)
		}
		dst := k.AllocPage()
		k.Warm(e, rng, dst, memory.PageSize, dstWarm, true, trace.KindOS, trace.ClassUserData)
		k.Block(e, rng, BlockOp{
			Src: src, Dst: dst, Size: memory.PageSize,
			SrcClass: trace.ClassUserData, DstClass: trace.ClassUserData,
			WrittenLater: true,
		})
		k.lastForkDst[e.CPU] = dst
	}

	// Enter the child on the run queue.
	k.lockAcquire(e, LockRunQ)
	e.write(RunQueueSlot(child%64), trace.ClassRunQueue)
	k.lockRelease(e, LockRunQ)
	e.code(pc, 16, trace.KindOS, 0, 0)
}

// Exec overlays process proc with a program image read through the
// buffer cache: name lookup, image copies (often sub-page), and the
// page-table initialization loop (hot spot SpotPTEInit). srcWarm is
// the buffer-cache warmth (recently read images).
func (k *Kernel) Exec(e *Emitter, rng *rand.Rand, proc int, imageBytes uint64, writtenLater bool, srcWarm float64) {
	k.spotPrefetchData(e, SpotExecSeq, ProcAddr(proc), SysentAddr(11))
	pc := k.body(e, rng, codeExec, 80+pad(rng, 20))
	k.stackWork(e, rng, 28)
	k.bump(e, CtrExecs)
	k.NameiLookup(e, rng, 2+pad(rng, 3))

	// Copy the image from buffer-cache pages into the user text,
	// page by page; the last piece is usually sub-page.
	buf := pad(rng, NBufs)
	remaining := imageBytes
	off := uint64(0)
	for remaining > 0 {
		chunk := min(remaining, memory.PageSize)
		k.Warm(e, rng, BufDataAddr(buf), chunk, srcWarm, false, trace.KindOS, trace.ClassBufferCache)
		k.Block(e, rng, BlockOp{
			Src: BufDataAddr(buf), Dst: UserText(proc) + off, Size: chunk,
			SrcClass: trace.ClassBufferCache, DstClass: trace.ClassUserData,
			WrittenLater: writtenLater,
		})
		remaining -= chunk
		off += chunk
		buf++
	}

	// Page-table initialization loop (hot spot).
	n := 16 + pad(rng, 16)
	if k.Opt.HotSpotPrefetch {
		for i := 0; i < n; i += 4 {
			e.prefetch(PTEAddr(proc, i), 0, SpotPTEInit)
		}
	}
	for i := 0; i < n; i++ {
		e.code(codeExec+0x300, 3, trace.KindOS, 0, SpotPTEInit)
		e.writeSpot(PTEAddr(proc, i), trace.ClassPageTable, SpotPTEInit)
	}

	// Exec tail sequence (hot spot SpotExecSeq).
	pc = e.code(codeExec+0x400, 20, trace.KindOS, 0, SpotExecSeq)
	e.readSpot(ProcAddr(proc), trace.ClassProcTable, SpotExecSeq)
	e.readSpot(SysentAddr(11), trace.ClassSysent, SpotExecSeq)
	e.code(pc, 10, trace.KindOS, 0, 0)
}

// TrapSyscall emits the system-call entry sequence (hot spot
// SpotTrapSyscall): dispatch-table read, counter bump, process lookup.
func (k *Kernel) TrapSyscall(e *Emitter, rng *rand.Rand, callno, proc int) {
	k.spotPrefetchData(e, SpotTrapSyscall, SysentAddr(callno), ProcAddr(proc))
	k.body(e, rng, codeTrap, 24+pad(rng, 6))
	e.readSpot(SysentAddr(callno), trace.ClassSysent, SpotTrapSyscall)
	e.readSpot(ProcAddr(proc), trace.ClassProcTable, SpotTrapSyscall)
	k.stackWork(e, rng, 8)
	k.bump(e, CtrSyscall)
}

// ReadSyscall services read(2): trap entry, buffer-cache lookup (hot
// spot SpotBufLookup), and the copy to user space.
func (k *Kernel) ReadSyscall(e *Emitter, rng *rand.Rand, proc int, bytes uint64, writtenLater bool, srcWarm float64) {
	bufPick, hops := k.pickBuf(rng)
	k.prefetchBuf(e, bufPick, hops)
	k.TrapSyscall(e, rng, 3, proc)
	k.stackWork(e, rng, 12)
	k.bump(e, CtrReads)
	buf := k.bufWalk(e, bufPick, hops)
	k.lockAcquire(e, LockBufCache)
	e.read(BufHdrAddr(buf), trace.ClassBufferCache)
	k.lockRelease(e, LockBufCache)
	k.Warm(e, rng, BufDataAddr(buf), bytes, srcWarm, false, trace.KindOS, trace.ClassBufferCache)
	k.Block(e, rng, BlockOp{
		Src: BufDataAddr(buf), Dst: UserData(proc) + 0x8000, Size: bytes,
		SrcClass: trace.ClassBufferCache, DstClass: trace.ClassUserData,
		WrittenLater: writtenLater,
	})
	k.body(e, rng, codeRead, 22+pad(rng, 6))
}

// WriteSyscall services write(2): the copy runs user-to-buffer.
func (k *Kernel) WriteSyscall(e *Emitter, rng *rand.Rand, proc int, bytes uint64) {
	bufPick, hops := k.pickBuf(rng)
	k.prefetchBuf(e, bufPick, hops)
	k.TrapSyscall(e, rng, 4, proc)
	k.stackWork(e, rng, 12)
	k.bump(e, CtrWrites)
	buf := k.bufWalk(e, bufPick, hops)
	k.lockAcquire(e, LockBufCache)
	e.write(BufHdrAddr(buf), trace.ClassBufferCache)
	k.lockRelease(e, LockBufCache)
	// The user source is warm: the process just built (and re-read)
	// the data.
	k.Warm(e, rng, UserData(proc)+0xc000, bytes, 0.8, false, trace.KindUser, trace.ClassUserData)
	k.Block(e, rng, BlockOp{
		Src: UserData(proc) + 0xc000, Dst: BufDataAddr(buf), Size: bytes,
		SrcClass: trace.ClassUserData, DstClass: trace.ClassBufferCache,
		WrittenLater: true,
	})
	k.body(e, rng, codeWrite, 22+pad(rng, 6))
}

// pickBuf chooses the buffer a lookup will land on. Lookups have
// strong temporal locality: the active file set drifts slowly through
// the cache. Choosing the target up front lets hot-spot prefetching
// issue the header prefetches at the start of the enclosing system
// call, well before the hash walk needs them.
func (k *Kernel) pickBuf(rng *rand.Rand) (buf, hops int) {
	k.bufCursor += pad(rng, 3)
	return (k.bufCursor + pad(rng, 48)) % NBufs, 2 + pad(rng, 3)
}

// prefetchBuf issues early prefetches for a planned buffer walk.
func (k *Kernel) prefetchBuf(e *Emitter, buf, hops int) {
	if !k.Opt.HotSpotPrefetch {
		return
	}
	for i := 0; i < hops; i++ {
		e.prefetch(BufHdrAddr(buf+i*7), 0, SpotBufLookup)
	}
}

// bufWalk walks the hash chain to the chosen buffer (hot spot
// SpotBufLookup) and returns the buffer found.
func (k *Kernel) bufWalk(e *Emitter, buf, hops int) int {
	for i := 0; i < hops; i++ {
		e.code(codeRead+0x200, 4, trace.KindOS, 0, SpotBufLookup)
		e.readSpot(BufHdrAddr(buf+i*7), trace.ClassBufferCache, SpotBufLookup)
	}
	return buf + (hops-1)*7
}

// bufLookup is pickBuf+prefetchBuf+bufWalk for callers with no earlier
// point to hoist the prefetches to.
func (k *Kernel) bufLookup(e *Emitter, rng *rand.Rand) int {
	buf, hops := k.pickBuf(rng)
	k.prefetchBuf(e, buf, hops)
	return k.bufWalk(e, buf, hops)
}

// NameiLookup resolves a path of the given depth through the buffer
// cache.
func (k *Kernel) NameiLookup(e *Emitter, rng *rand.Rand, depth int) {
	k.body(e, rng, codeNamei, 24+pad(rng, 8))
	k.stackWork(e, rng, 10)
	for i := 0; i < depth; i++ {
		b := k.bufLookup(e, rng)
		e.read(BufDataAddr(b)+uint64(pad(rng, 64))*16, trace.ClassBufferCache)
		k.body(e, rng, codeNamei+0x100, 12)
	}
}

// Schedule picks the next process and context-switches to it: the
// run-queue scan (SpotSchedule), the switch itself (SpotCtxSwitch) and
// the resume sequence (SpotResume) are all hot spots.
func (k *Kernel) Schedule(e *Emitter, rng *rand.Rand, from, to int) {
	// Hot-spot prefetches are hoisted to the routine entry, where the
	// operands (run-queue base, process pointers) are already known;
	// the body that follows gives them time to complete (Section 6's
	// "move the prefetches as early as possible in the sequence").
	k.spotPrefetchData(e, SpotSchedule,
		RunQueueSlot(0), RunQueueSlot(2), RunQueueSlot(4), RunQueueSlot(6))
	k.spotPrefetchData(e, SpotCtxSwitch, ProcAddr(from), ProcAddr(to))
	k.spotPrefetchData(e, SpotResume, ProcAddr(to)+64, ProcAddr(to)+128)
	k.body(e, rng, codeSchedule, 36+pad(rng, 10))
	k.stackWork(e, rng, 14)
	k.bump(e, CtrSwtch)
	k.lockAcquire(e, LockSched)

	// Run-queue scan.
	for i := 0; i < 6; i++ {
		e.code(codeSchedule+0x100, 3, trace.KindOS, 0, SpotSchedule)
		e.readSpot(RunQueueSlot(i), trace.ClassRunQueue, SpotSchedule)
	}
	// Update the system resource pointer for the chosen process — a
	// frequently-shared variable.
	e.read(k.Layout.FreqSharedAddr(9), trace.ClassFreqShared)
	e.write(k.Layout.FreqSharedAddr(9), trace.ClassFreqShared)
	k.lockRelease(e, LockSched)

	// Context switch sequence (outside the run-queue lock).
	e.code(codeSchedule+0x200, 14, trace.KindOS, 0, SpotCtxSwitch)
	for w := 0; w < 4; w++ {
		e.writeSpot(ProcAddr(from)+uint64(w*8), trace.ClassProcTable, SpotCtxSwitch)
		e.readSpot(ProcAddr(to)+uint64(w*8), trace.ClassProcTable, SpotCtxSwitch)
	}

	// Resume sequence.
	e.code(codeSchedule+0x300, 16, trace.KindOS, 0, SpotResume)
	e.readSpot(ProcAddr(to)+64, trace.ClassProcTable, SpotResume)
	e.readSpot(ProcAddr(to)+128, trace.ClassProcTable, SpotResume)
	k.body(e, rng, codeSchedule+0x400, 10)
}

// SendIPI emits the sender side of a cross-processor interrupt:
// writing the target's cpievents slot.
func (k *Kernel) SendIPI(e *Emitter, rng2 *rand.Rand, target int) {
	k.body(e, rng2, codeInterrupt, 8)
	e.write(k.Layout.CPIEventAddr(target), trace.ClassFreqShared)
}

// HandleIPI emits the receiver side: reading the cpievents slot the
// sender wrote (a producer-consumer pattern) and counting the event in
// v_intr — the paper's canonical infrequently-communicated variable.
func (k *Kernel) HandleIPI(e *Emitter, rng *rand.Rand) {
	k.body(e, rng, codeInterrupt+0x100, 18+pad(rng, 8))
	k.stackWork(e, rng, 6)
	e.read(k.Layout.CPIEventAddr(int(e.CPU)), trace.ClassFreqShared)
	k.bump(e, CtrIntr)
	k.body(e, rng, codeInterrupt+0x200, 10)
}

// TimerTick emits the clock-interrupt path: the timer/accounting
// sequence (hot spot SpotTimerAcct) under the timer and accounting
// locks, plus a per-CPU accounting update that false-shares its cache
// line until relocation separates it.
func (k *Kernel) TimerTick(e *Emitter, rng *rand.Rand) {
	var fields []uint64
	for i := 0; i < NumTimerFields; i++ {
		fields = append(fields, k.Layout.TimerFieldAddr(i))
	}
	k.spotPrefetchData(e, SpotTimerAcct, fields...)
	k.body(e, rng, codeTimer, 18+pad(rng, 4))
	k.stackWork(e, rng, 8)
	// Most ticks only sample the clock; the heavyweight locked
	// accounting path runs on a fraction of ticks (statclock-style),
	// which keeps the timer locks among the hottest without making
	// every tick a lock migration.
	locked := rng.Float64() < 0.4
	if locked {
		k.lockAcquire(e, LockTimer)
	}
	e.code(codeTimer+0x100, 10, trace.KindOS, 0, SpotTimerAcct)
	for i := 0; i < NumTimerFields; i++ {
		e.readSpot(k.Layout.TimerFieldAddr(i), trace.ClassTimer, SpotTimerAcct)
	}
	e.writeSpot(k.Layout.TimerFieldAddr(0), trace.ClassTimer, SpotTimerAcct)
	if locked {
		k.lockRelease(e, LockTimer)
	}

	if locked {
		k.lockAcquire(e, LockAcct)
	}
	k.bump(e, CtrTimer)
	// Per-CPU accounting scratch: the read-modify-write misses when a
	// neighbour's update to the falsely-shared line invalidated it.
	fs := k.Layout.FalseShareAddr(pad(rng, NumFalseShareVars), int(e.CPU))
	e.read(fs, trace.ClassGeneric)
	e.write(fs, trace.ClassGeneric)
	if locked {
		k.lockRelease(e, LockAcct)
	}
	k.body(e, rng, codeTimer+0x200, 10)
}

// Pager emits the page-daemon pass: it reads every event counter (all
// per-CPU sub-counters under privatization), scans a victim's page
// table (hot spot SpotPTEScan), and refreshes freelist.size.
func (k *Kernel) Pager(e *Emitter, rng *rand.Rand, numCPUs int) {
	k.body(e, rng, codePager, 46+pad(rng, 12))
	k.stackWork(e, rng, 16)
	for ctr := 0; ctr < NumCounters; ctr++ {
		for _, a := range k.Layout.CounterReadAddrs(ctr, numCPUs) {
			e.read(a, trace.ClassCounter)
		}
		e.osCode(codePager+0x100, 3)
	}
	victim := pad(rng, NProcs)
	n := 32 + pad(rng, 32)
	if k.Opt.HotSpotPrefetch {
		for i := 0; i < n; i += 4 {
			e.prefetch(PTEAddr(victim, i), 0, SpotPTEScan)
		}
	}
	for i := 0; i < n; i++ {
		e.code(codePager+0x200, 3, trace.KindOS, 0, SpotPTEScan)
		e.readSpot(PTEAddr(victim, i), trace.ClassPageTable, SpotPTEScan)
	}
	e.read(k.Layout.FreeListSizeAddr(), trace.ClassFreqShared)
	e.write(k.Layout.FreeListSizeAddr(), trace.ClassFreqShared)
	k.body(e, rng, codePager+0x300, 14)
}

// Exit tears a process down: the PTE-invalidate loop (hot spot
// SpotPTEInval) and the process-table cleanup.
func (k *Kernel) Exit(e *Emitter, rng *rand.Rand, proc int) {
	k.body(e, rng, codeExit, 36+pad(rng, 10))
	k.stackWork(e, rng, 14)
	n := 24 + pad(rng, 16)
	if k.Opt.HotSpotPrefetch {
		for i := 0; i < n; i += 4 {
			e.prefetch(PTEAddr(proc, i), 0, SpotPTEInval)
		}
	}
	for i := 0; i < n; i++ {
		e.code(codeExit+0x100, 3, trace.KindOS, 0, SpotPTEInval)
		e.writeSpot(PTEAddr(proc, i), trace.ClassPageTable, SpotPTEInval)
	}
	k.lockAcquire(e, LockProc)
	for w := 0; w < 4; w++ {
		e.write(ProcAddr(proc)+uint64(w*8), trace.ClassProcTable)
	}
	k.lockRelease(e, LockProc)
	k.body(e, rng, codeExit+0x200, 12)
}

// GangBarrier emits one gang-scheduling barrier arrival. The workload
// must emit a matching arrival on every participating CPU with the
// same generation. The post-barrier re-read of the barrier word is
// where the barrier coherence misses of Table 5 appear: every arrival
// wrote the word, so all but the last writer miss.
func (k *Kernel) GangBarrier(e *Emitter, barrier int, generation uint32, participants int) {
	e.osCode(codeBarrier, 8)
	addr := k.Layout.BarrierAddr(barrier)
	e.read(addr, trace.ClassBarrier)
	e.Emit(trace.Ref{
		Addr: addr, Op: trace.OpWrite, Kind: trace.KindOS,
		Class: trace.ClassBarrier, Sync: trace.SyncBarrier,
		SyncID: uint32(barrier)<<16 | (generation & 0xffff), Len: uint32(participants),
	})
	e.read(addr, trace.ClassBarrier)
	e.osCode(codeBarrier+0x40, 6)
}

// The idle loop repeats one fixed pattern: every iteration runs the
// same 5 instructions, and every 8th iteration, starting with the
// first, follows them with one run-queue poll. So each 8 iterations
// emit the same 41 references, and a shorter run of r iterations
// emits the template's first 5r+1.
const (
	idleInstrs = 5
	idleEvery  = 8
	idleRefs   = idleEvery*idleInstrs + 1
)

// IdleLoop emits n iterations of the idle loop: spinning with a
// backed-off poll of the run queue. The references are copied from
// the loop's 41-reference template, one pattern period per block.
func (k *Kernel) IdleLoop(e *Emitter, n int) {
	var tmpl [idleRefs]trace.Ref
	instr := trace.Ref{CPU: e.CPU, Op: trace.OpInstr, Kind: trace.KindIdle}
	j := 0
	for it := 0; it < idleEvery; it++ {
		for w := uint64(0); w < idleInstrs; w++ {
			instr.Addr = codeIdle + 4*w
			tmpl[j] = instr
			j++
		}
		if it == 0 {
			tmpl[j] = trace.Ref{Addr: RunQueueSlot(0), CPU: e.CPU, Op: trace.OpRead, Kind: trace.KindIdle, Class: trace.ClassRunQueue}
			j++
		}
	}
	for ; n >= idleEvery; n -= idleEvery {
		copy(e.Grow(idleRefs), tmpl[:])
	}
	if n > 0 {
		copy(e.Grow(n*idleInstrs+1), tmpl[:])
	}
}

// SocketOp emits a small network operation (Shell's rsh/finger): an
// mbuf-sized copy plus protocol code.
func (k *Kernel) SocketOp(e *Emitter, rng *rand.Rand, proc int) {
	k.body(e, rng, codeSockets, 46+pad(rng, 20))
	k.stackWork(e, rng, 16)
	size := uint64(128 + pad(rng, 4)*128)
	buf := pad(rng, NBufs)
	k.Block(e, rng, BlockOp{
		Src: BufDataAddr(buf), Dst: UserData(proc) + 0x10000, Size: size,
		SrcClass: trace.ClassBufferCache, DstClass: trace.ClassUserData,
		WrittenLater: rng.Float64() < 0.5,
	})
	k.body(e, rng, codeSockets+0x100, 24)
}
