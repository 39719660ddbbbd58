package kernel

import (
	"math/rand"
	"slices"
	"testing"

	"oscachesim/internal/memory"
	"oscachesim/internal/trace"
)

func newEmitter(cpu int) *Emitter { return &Emitter{CPU: uint8(cpu)} }

func countOp(refs []trace.Ref, op trace.Op) int {
	n := 0
	for _, r := range refs {
		if r.Op == op {
			n++
		}
	}
	return n
}

func TestEmitterStampsCPU(t *testing.T) {
	e := newEmitter(3)
	e.Emit(trace.Ref{Addr: 1})
	if e.Refs[0].CPU != 3 {
		t.Errorf("CPU = %d, want 3", e.Refs[0].CPU)
	}
	if e.Len() != 1 {
		t.Errorf("Len = %d", e.Len())
	}

	// Routines that write blocks through Grow stamp the CPU themselves.
	// The buffer starts full of stale references stamped 0xff, as a
	// recycled pooled batch would be, so a slot left unwritten shows.
	for _, opt := range []OptConfig{
		{},
		{BlockPrefetch: true, HotSpotPrefetch: true, Privatize: true},
		{BlockDMA: true, Relocate: true},
		{DeferredCopy: true},
	} {
		k := New(opt)
		stale := make([]trace.Ref, 1<<16)
		for i := range stale {
			stale[i] = trace.Ref{Addr: 0xdead, CPU: 0xff, Op: trace.OpBlockDMA}
		}
		e := &Emitter{CPU: 3, Refs: stale[:0]}
		rng := rand.New(rand.NewSource(1))
		k.Fork(e, rng, 1, 2, 2, true, 0.5, 0.5)
		k.Exec(e, rng, 2, 6000, true, 0.5)
		k.ReadSyscall(e, rng, 2, 1000, false, 0.5)
		k.WriteSyscall(e, rng, 2, 3000)
		k.PageFault(e, rng, 2, 0.3)
		k.Schedule(e, rng, 1, 2)
		k.TimerTick(e, rng)
		k.Pager(e, rng, 4)
		k.SocketOp(e, rng, 2)
		k.IdleLoop(e, 21)
		if len(e.Refs) > len(stale) {
			t.Fatalf("%+v: routines emitted %d refs, more than the %d-ref test buffer", opt, len(e.Refs), len(stale))
		}
		for i, r := range e.Refs {
			if r.CPU != 3 || r.Addr == 0xdead {
				t.Fatalf("%+v: ref %d = %+v, want a fresh ref stamped CPU 3", opt, i, r)
			}
		}
	}
}

// TestGrowFlushesBeforeOverflow pins the streaming flush policy of the
// block primitive: a block that would overflow the buffer's capacity
// flushes the buffer first instead of regrowing it, and a buffer that
// reached FlushAt is flushed before the next block.
func TestGrowFlushesBeforeOverflow(t *testing.T) {
	var flushed []int
	e := &Emitter{CPU: 1, Refs: make([]trace.Ref, 0, 10), FlushAt: 8}
	e.Flush = func(refs []trace.Ref) []trace.Ref {
		flushed = append(flushed, len(refs))
		return make([]trace.Ref, 0, 10)
	}
	step := func(n int, wantFlushed []int, wantLen int) {
		t.Helper()
		if blk := e.Grow(n); len(blk) != n {
			t.Fatalf("Grow(%d) returned %d refs", n, len(blk))
		}
		if !slices.Equal(flushed, wantFlushed) || len(e.Refs) != wantLen || cap(e.Refs) != 10 {
			t.Fatalf("after Grow(%d): flushes %v, len %d cap %d; want flushes %v, len %d cap 10",
				n, flushed, len(e.Refs), cap(e.Refs), wantFlushed, wantLen)
		}
	}
	step(4, nil, 4)
	step(4, nil, 8)
	// The buffer reached FlushAt: flushed before the next block, which
	// would still fit.
	step(2, []int{8}, 2)
	step(5, []int{8}, 7)
	// Below FlushAt, but the block would overflow: flushed, not
	// regrown.
	step(4, []int{8, 7}, 4)
	// Blocks that fit below FlushAt flush nothing, up to a full buffer.
	step(3, []int{8, 7}, 7)
	step(3, []int{8, 7}, 10)
	step(1, []int{8, 7, 10}, 1)
}

// idleLoopPerRef is the idle loop written one reference at a time: n
// iterations of 5 instructions, each 8th (from the first) followed by
// a run-queue poll. It is the reference the template copy must match.
func idleLoopPerRef(e *Emitter, n int) {
	for i := 0; i < n; i++ {
		for w := uint64(0); w < 5; w++ {
			e.Emit(trace.Ref{Addr: codeIdle + 4*w, Op: trace.OpInstr, Kind: trace.KindIdle})
		}
		if i%8 == 0 {
			e.Emit(trace.Ref{Addr: RunQueueSlot(0), Op: trace.OpRead, Kind: trace.KindIdle, Class: trace.ClassRunQueue})
		}
	}
}

// TestIdleLoopMatchesPerRef pins that the template idle loop emits
// exactly what per-reference emission does, for every length through
// four template periods, both into a growing buffer and through a
// streaming flush whose threshold is not a multiple of the 41-ref
// template.
func TestIdleLoopMatchesPerRef(t *testing.T) {
	k := New(OptConfig{})
	for _, flushAt := range []int{0, 30, 100} {
		for n := 0; n <= 33; n++ {
			run := func(emit func(e *Emitter)) []trace.Ref {
				var out []trace.Ref
				e := &Emitter{CPU: 5}
				if flushAt > 0 {
					e.Refs = make([]trace.Ref, 0, flushAt)
					e.FlushAt = flushAt
					e.Flush = func(refs []trace.Ref) []trace.Ref {
						out = append(out, refs...)
						return make([]trace.Ref, 0, flushAt)
					}
				}
				// A prefix off the template's alignment.
				e.Emit(trace.Ref{Addr: 4, Op: trace.OpRead, Kind: trace.KindOS})
				emit(e)
				e.FlushPending()
				return append(out, e.Refs...)
			}
			got := run(func(e *Emitter) { k.IdleLoop(e, n) })
			want := run(func(e *Emitter) { idleLoopPerRef(e, n) })
			if !slices.Equal(got, want) {
				t.Fatalf("FlushAt %d, n %d: template emitted %d refs, per-ref %d, or they differ", flushAt, n, len(got), len(want))
			}
		}
	}
}

func TestBlockCopyCached(t *testing.T) {
	k := New(OptConfig{})
	e := newEmitter(0)
	rng := rand.New(rand.NewSource(1))
	id := k.Block(e, rng, BlockOp{
		Src: 0x100000, Dst: 0x200000, Size: 4096,
		SrcClass: trace.ClassUserData, DstClass: trace.ClassUserData,
	})
	if id == 0 {
		t.Fatal("block id 0")
	}
	reads, writes := 0, 0
	for _, r := range e.Refs {
		if r.Block != id && r.Op != trace.OpInstr {
			t.Fatalf("untagged data ref %v", r)
		}
		switch {
		case r.Op == trace.OpRead && r.Role == trace.BlockSrc:
			reads++
			if r.Len != 4096 {
				t.Fatalf("src read Len = %d", r.Len)
			}
		case r.Op == trace.OpWrite && r.Role == trace.BlockDst:
			writes++
		}
	}
	// 4096 bytes / 4-byte words = 1024 reads and 1024 writes.
	if reads != 1024 || writes != 1024 {
		t.Errorf("reads=%d writes=%d, want 1024 each", reads, writes)
	}
	if countOp(e.Refs, trace.OpPrefetch) != 0 {
		t.Error("prefetches emitted without BlockPrefetch")
	}
	if countOp(e.Refs, trace.OpInstr) == 0 {
		t.Error("no loop instructions emitted")
	}
}

func TestBlockZero(t *testing.T) {
	k := New(OptConfig{})
	e := newEmitter(0)
	rng := rand.New(rand.NewSource(1))
	k.Block(e, rng, BlockOp{Dst: 0x200000, Size: 256, DstClass: trace.ClassUserData})
	if countOp(e.Refs, trace.OpRead) != 0 {
		t.Error("block zero emitted source reads")
	}
	if got := countOp(e.Refs, trace.OpWrite); got != 64 {
		t.Errorf("writes = %d, want 64", got)
	}
}

func TestBlockZeroSizeRoundsToWords(t *testing.T) {
	k := New(OptConfig{})
	e := newEmitter(0)
	rng := rand.New(rand.NewSource(1))
	k.Block(e, rng, BlockOp{Dst: 0x200000, Size: 10, DstClass: trace.ClassUserData})
	// 10 bytes: words at offsets 0,4,8 → 3 writes.
	if got := countOp(e.Refs, trace.OpWrite); got != 3 {
		t.Errorf("writes = %d, want 3", got)
	}
}

func TestBlockEmptyOp(t *testing.T) {
	k := New(OptConfig{})
	e := newEmitter(0)
	if id := k.Block(e, rand.New(rand.NewSource(1)), BlockOp{}); id != 0 {
		t.Error("empty op got a block id")
	}
	if e.Len() != 0 {
		t.Error("empty op emitted refs")
	}
}

func TestBlockPrefetchOverhead(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := New(OptConfig{})
	eBase := newEmitter(0)
	base.Block(eBase, rng, BlockOp{Src: 0x100000, Dst: 0x200000, Size: 4096})

	pref := New(OptConfig{BlockPrefetch: true})
	ePref := newEmitter(0)
	pref.Block(ePref, rand.New(rand.NewSource(1)), BlockOp{Src: 0x100000, Dst: 0x200000, Size: 4096})

	nPref := countOp(ePref.Refs, trace.OpPrefetch)
	if nPref == 0 {
		t.Fatal("no prefetches under BlockPrefetch")
	}
	// One prefetch per 16-byte line: 256 prefetches for a page.
	if nPref != 256 {
		t.Errorf("prefetches = %d, want 256", nPref)
	}
	// The prefetch instruction overhead stays modest (paper: ~5% of
	// block-operation instructions after unrolling; our loop is less
	// unrolled, so allow up to 40%).
	iBase := countOp(eBase.Refs, trace.OpInstr)
	iPref := countOp(ePref.Refs, trace.OpInstr) + nPref
	if iPref <= iBase {
		t.Error("prefetching did not add instruction overhead")
	}
	if float64(iPref) > 1.3*float64(iBase) {
		t.Errorf("prefetch instr overhead too large: %d vs %d", iPref, iBase)
	}
	// Prefetches must run ahead of the corresponding loads.
	firstRead := -1
	for i, r := range ePref.Refs {
		if r.Op == trace.OpRead {
			firstRead = i
			break
		}
	}
	seenPref := false
	for i := 0; i < firstRead; i++ {
		if ePref.Refs[i].Op == trace.OpPrefetch {
			seenPref = true
		}
	}
	if !seenPref {
		t.Error("no prefetch before the first source read")
	}
}

func TestBlockDMA(t *testing.T) {
	k := New(OptConfig{BlockDMA: true})
	e := newEmitter(0)
	rng := rand.New(rand.NewSource(1))
	id := k.Block(e, rng, BlockOp{Src: 0x100000, Dst: 0x200000, Size: 4096})
	if got := countOp(e.Refs, trace.OpBlockDMA); got != 1 {
		t.Fatalf("DMA refs = %d, want 1", got)
	}
	if countOp(e.Refs, trace.OpRead)+countOp(e.Refs, trace.OpWrite) != 0 {
		t.Error("DMA scheme emitted per-word refs")
	}
	var dma trace.Ref
	for _, r := range e.Refs {
		if r.Op == trace.OpBlockDMA {
			dma = r
		}
	}
	if dma.Addr != 0x100000 || dma.Aux != 0x200000 || dma.Len != 4096 || dma.Block != id {
		t.Errorf("DMA ref = %+v", dma)
	}
	// The instruction count collapses versus the loop version.
	if got := countOp(e.Refs, trace.OpInstr); got > 20 {
		t.Errorf("DMA setup instrs = %d, want <= 20", got)
	}
}

func TestBlockDMAZero(t *testing.T) {
	k := New(OptConfig{BlockDMA: true})
	e := newEmitter(0)
	k.Block(e, rand.New(rand.NewSource(1)), BlockOp{Dst: 0x200000, Size: 4096})
	for _, r := range e.Refs {
		if r.Op == trace.OpBlockDMA {
			if r.Addr != 0x200000 || r.Aux != 0 {
				t.Errorf("DMA zero ref = %+v", r)
			}
			return
		}
	}
	t.Fatal("no DMA ref")
}

func TestDeferredCopyElidesReadOnly(t *testing.T) {
	k := New(OptConfig{DeferredCopy: true})
	e := newEmitter(0)
	rng := rand.New(rand.NewSource(1))
	// Small read-only copy: elided entirely.
	k.Block(e, rng, BlockOp{Src: 0x100000, Dst: 0x200000, Size: 512, WrittenLater: false})
	if countOp(e.Refs, trace.OpRead) != 0 {
		t.Error("read-only small copy still copied")
	}
	st := k.DeferredCopies()
	if st.SmallCopies != 1 || st.ReadOnlySmallCopies != 1 || st.DeferredElided != 1 || st.DeferredPerformed != 0 {
		t.Errorf("stats = %+v", st)
	}

	// Small copy that is written later: trap + copy.
	e2 := newEmitter(0)
	k.Block(e2, rng, BlockOp{Src: 0x100000, Dst: 0x300000, Size: 512, WrittenLater: true})
	if countOp(e2.Refs, trace.OpRead) == 0 {
		t.Error("written small copy never performed")
	}
	st = k.DeferredCopies()
	if st.DeferredPerformed != 1 {
		t.Errorf("DeferredPerformed = %d", st.DeferredPerformed)
	}

	// Page-sized copies are not deferred (copy-on-write handles those
	// already); the copy happens inline.
	e3 := newEmitter(0)
	k.Block(e3, rng, BlockOp{Src: 0x100000, Dst: 0x400000, Size: 4096, WrittenLater: false})
	if countOp(e3.Refs, trace.OpRead) == 0 {
		t.Error("page-sized copy was deferred")
	}
}

func TestLayoutCounterPrivatization(t *testing.T) {
	shared := Layout{}
	if shared.CounterAddr(CtrIntr, 0) != shared.CounterAddr(CtrIntr, 3) {
		t.Error("shared layout gave per-CPU counters")
	}
	// Packed counters share cache lines.
	if shared.CounterAddr(0, 0)/16 != shared.CounterAddr(1, 0)/16 {
		t.Error("shared counters not packed in a line")
	}
	priv := Layout{Privatized: true}
	seen := map[uint64]bool{}
	for cpu := 0; cpu < 4; cpu++ {
		a := priv.CounterAddr(CtrIntr, cpu)
		line := a / 64
		if seen[line] {
			t.Errorf("two private sub-counters share line %#x", line)
		}
		seen[line] = true
	}
	if got := len(priv.CounterReadAddrs(CtrIntr, 4)); got != 4 {
		t.Errorf("privatized read addrs = %d, want 4", got)
	}
	if got := len(shared.CounterReadAddrs(CtrIntr, 4)); got != 1 {
		t.Errorf("shared read addrs = %d, want 1", got)
	}
}

func TestLayoutTimerRelocation(t *testing.T) {
	plain := Layout{}
	if plain.TimerFieldAddr(0)/16 == plain.TimerFieldAddr(1)/16 {
		t.Error("unrelocated timer fields share a line")
	}
	rel := Layout{Relocated: true}
	if rel.TimerFieldAddr(0)/16 != rel.TimerFieldAddr(3)/16 {
		t.Error("relocated timer fields not co-located")
	}
}

func TestLayoutFalseSharing(t *testing.T) {
	plain := Layout{}
	// Unrelocated: two CPUs' scratch words share a 64-byte line.
	if plain.FalseShareAddr(0, 0)/64 != plain.FalseShareAddr(0, 1)/64 {
		t.Error("unrelocated scratch not false-shared")
	}
	rel := Layout{Relocated: true}
	if rel.FalseShareAddr(0, 0)/64 == rel.FalseShareAddr(0, 1)/64 {
		t.Error("relocated scratch still false-shared")
	}
}

func TestLayoutUpdateVarsInUpdatePages(t *testing.T) {
	l := Layout{}
	pages := UpdatePages()
	if len(pages) != 3 {
		t.Fatalf("UpdatePages() = %d pages", len(pages))
	}
	inPages := func(addr uint64) bool {
		for _, p := range pages {
			if memory.PageOf(addr) == memory.PageOf(p) {
				return true
			}
		}
		return false
	}
	for b := 0; b < NumBarriers; b++ {
		if !inPages(l.BarrierAddr(b)) {
			t.Errorf("barrier %d outside update pages", b)
		}
	}
	for lk := 0; lk < NumHotLocks; lk++ {
		if !inPages(l.LockAddr(lk)) {
			t.Errorf("hot lock %d outside update pages", lk)
		}
	}
	for i := 0; i < 11; i++ {
		if !inPages(l.FreqSharedAddr(i)) {
			t.Errorf("freq-shared var %d outside update pages", i)
		}
	}
	// Cold locks are elsewhere.
	if inPages(l.LockAddr(LockInode)) {
		t.Error("cold lock in update pages")
	}
	// The three groups occupy distinct pages (granularity ablation).
	if memory.PageOf(l.BarrierAddr(0)) == memory.PageOf(l.LockAddr(0)) ||
		memory.PageOf(l.LockAddr(0)) == memory.PageOf(l.FreqSharedAddr(0)) {
		t.Error("update variable groups share a page")
	}
}

func TestHotLocksOwnLines(t *testing.T) {
	l := Layout{}
	seen := map[uint64]bool{}
	for lk := 0; lk < NumHotLocks; lk++ {
		line := l.LockAddr(lk) / 32
		if seen[line] {
			t.Errorf("hot locks share L2 line %#x", line)
		}
		seen[line] = true
	}
}

func TestForkEmitsBalancedLocks(t *testing.T) {
	k := New(OptConfig{})
	e := newEmitter(0)
	k.Fork(e, rand.New(rand.NewSource(2)), 1, 2, 1, false, 0.5, 0.2)
	depth := map[uint32]int{}
	for _, r := range e.Refs {
		switch r.Sync {
		case trace.SyncLockAcquire:
			depth[r.SyncID]++
		case trace.SyncLockRelease:
			depth[r.SyncID]--
			if depth[r.SyncID] < 0 {
				t.Fatalf("release before acquire for lock %d", r.SyncID)
			}
		}
	}
	for id, d := range depth {
		if d != 0 {
			t.Errorf("lock %d left at depth %d", id, d)
		}
	}
	// Fork performs a page copy: block refs present.
	hasBlock := false
	for _, r := range e.Refs {
		if r.Block != 0 && r.Op == trace.OpWrite {
			hasBlock = true
		}
	}
	if !hasBlock {
		t.Error("fork emitted no block operation")
	}
}

func TestForkChainReusesDestination(t *testing.T) {
	k := New(OptConfig{})
	rng := rand.New(rand.NewSource(3))
	e := newEmitter(0)
	k.Fork(e, rng, 1, 2, 1, false, 0, 0)
	firstDst := k.lastForkDst[0]
	if firstDst == 0 {
		t.Fatal("no fork destination recorded")
	}
	e2 := newEmitter(0)
	k.Fork(e2, rng, 2, 3, 1, true, 0, 0)
	// The chained fork's source must be the previous destination.
	for _, r := range e2.Refs {
		if r.Op == trace.OpRead && r.Role == trace.BlockSrc {
			if memory.PageOf(r.Addr) != firstDst {
				t.Errorf("chained fork src %#x, want page %#x", r.Addr, firstDst)
			}
			return
		}
	}
	t.Fatal("chained fork emitted no source reads")
}

// TestForkHighCPU forks on processors past 64, which machines of up to
// 256 CPUs reach: every uint8 CPU id must have its own fork state.
func TestForkHighCPU(t *testing.T) {
	for _, cpu := range []int{64, 255} {
		k := New(OptConfig{})
		rng := rand.New(rand.NewSource(5))
		e := newEmitter(cpu)
		k.Fork(e, rng, 1, 2, 1, false, 0, 0)
		dst := k.lastForkDst[cpu]
		if dst == 0 {
			t.Fatalf("cpu %d: no fork destination recorded", cpu)
		}
		if k.forkWindow[cpu] != 1 {
			t.Errorf("cpu %d: fork window %d, want 1", cpu, k.forkWindow[cpu])
		}
		if k.lastForkDst[0] != 0 || k.forkWindow[0] != 0 {
			t.Errorf("cpu %d: fork state leaked into cpu 0", cpu)
		}
		e2 := newEmitter(cpu)
		k.Fork(e2, rng, 2, 3, 1, true, 0, 0)
		found := false
		for _, r := range e2.Refs {
			if r.Op == trace.OpRead && r.Role == trace.BlockSrc {
				found = true
				if memory.PageOf(r.Addr) != dst {
					t.Errorf("cpu %d: chained fork src %#x, want page %#x", cpu, r.Addr, dst)
				}
				break
			}
		}
		if !found {
			t.Errorf("cpu %d: chained fork emitted no source reads", cpu)
		}
	}
}

func TestGangBarrierShape(t *testing.T) {
	k := New(OptConfig{})
	e := newEmitter(1)
	k.GangBarrier(e, 2, 7, 4)
	var bar *trace.Ref
	for i := range e.Refs {
		if e.Refs[i].Sync == trace.SyncBarrier {
			bar = &e.Refs[i]
		}
	}
	if bar == nil {
		t.Fatal("no barrier ref")
	}
	if bar.Len != 4 || bar.Class != trace.ClassBarrier {
		t.Errorf("barrier ref = %+v", bar)
	}
	if bar.SyncID != 2<<16|7 {
		t.Errorf("barrier SyncID = %d", bar.SyncID)
	}
}

func TestHotSpotPrefetchEmitsPrefetches(t *testing.T) {
	plain := New(OptConfig{})
	e1 := newEmitter(0)
	plain.TimerTick(e1, rand.New(rand.NewSource(4)))
	if countOp(e1.Refs, trace.OpPrefetch) != 0 {
		t.Error("prefetches without HotSpotPrefetch")
	}
	opt := New(OptConfig{HotSpotPrefetch: true})
	e2 := newEmitter(0)
	opt.TimerTick(e2, rand.New(rand.NewSource(4)))
	if countOp(e2.Refs, trace.OpPrefetch) == 0 {
		t.Error("no prefetches with HotSpotPrefetch")
	}
}

func TestRoutinesTagHotSpots(t *testing.T) {
	k := New(OptConfig{})
	rng := rand.New(rand.NewSource(5))
	spots := map[uint16]bool{}
	collect := func(e *Emitter) {
		for _, r := range e.Refs {
			if r.Spot != SpotNone {
				spots[r.Spot] = true
			}
		}
	}
	e := newEmitter(0)
	k.PageFault(e, rng, 1, 0.2)
	collect(e)
	e = newEmitter(0)
	k.Fork(e, rng, 1, 2, 1, false, 0, 0)
	collect(e)
	e = newEmitter(0)
	k.Exec(e, rng, 2, 6000, false, 0.5)
	collect(e)
	e = newEmitter(0)
	k.ReadSyscall(e, rng, 2, 2048, false, 0.5)
	collect(e)
	e = newEmitter(0)
	k.Schedule(e, rng, 1, 2)
	collect(e)
	e = newEmitter(0)
	k.TimerTick(e, rng)
	collect(e)
	e = newEmitter(0)
	k.Pager(e, rng, 4)
	collect(e)
	e = newEmitter(0)
	k.Exit(e, rng, 2)
	collect(e)
	for s := uint16(1); s < NumSpots; s++ {
		if !spots[s] {
			t.Errorf("hot spot %s never tagged", SpotName(s))
		}
	}
}

func TestSpotNames(t *testing.T) {
	if SpotName(SpotPTEInit) != "pte-init" || SpotName(SpotBufLookup) != "buf-lookup" {
		t.Error("spot names wrong")
	}
	if SpotName(200) != "?" {
		t.Error("unknown spot name")
	}
}

func TestCounterBumpClasses(t *testing.T) {
	k := New(OptConfig{})
	e := newEmitter(2)
	k.HandleIPI(e, rand.New(rand.NewSource(6)))
	counter, freq := 0, 0
	for _, r := range e.Refs {
		switch r.Class {
		case trace.ClassCounter:
			counter++
		case trace.ClassFreqShared:
			freq++
		}
	}
	if counter < 2 { // read-modify-write of v_intr
		t.Errorf("counter refs = %d", counter)
	}
	if freq == 0 {
		t.Error("no cpievents read")
	}
}

func TestIdleLoop(t *testing.T) {
	k := New(OptConfig{})
	e := newEmitter(0)
	k.IdleLoop(e, 17)
	for _, r := range e.Refs {
		if r.Kind != trace.KindIdle {
			t.Fatalf("idle loop emitted %v ref", r.Kind)
		}
	}
	// The idle loop polls the run queue every 8th iteration.
	if got := countOp(e.Refs, trace.OpRead); got != 3 {
		t.Errorf("idle reads = %d, want 3", got)
	}
}

func TestWarm(t *testing.T) {
	k := New(OptConfig{})
	e := newEmitter(0)
	rng := rand.New(rand.NewSource(7))
	k.Warm(e, rng, 0x100000, 4096, 1.0, false, trace.KindUser, trace.ClassUserData)
	if got := countOp(e.Refs, trace.OpRead); got != 256 {
		t.Errorf("full warm reads = %d, want 256 (one per line)", got)
	}
	e2 := newEmitter(0)
	k.Warm(e2, rng, 0x100000, 4096, 0, false, trace.KindUser, trace.ClassUserData)
	if e2.Len() != 0 {
		t.Error("zero-frac warm emitted refs")
	}
	e3 := newEmitter(0)
	k.Warm(e3, rng, 0x100000, 4096, 0.5, true, trace.KindOS, trace.ClassUserData)
	n := countOp(e3.Refs, trace.OpWrite)
	if n < 64 || n > 192 {
		t.Errorf("half warm writes = %d, want around 128", n)
	}
}

func TestAllocPageRecycles(t *testing.T) {
	k := New(OptConfig{})
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		p := k.AllocPage()
		if p%memory.PageSize != 0 {
			t.Fatalf("unaligned page %#x", p)
		}
		if seen[p] {
			t.Fatalf("page %#x allocated twice without free", p)
		}
		seen[p] = true
	}
	k.FreePage(FreePoolBase)
	if p := k.AllocPage(); p != FreePoolBase {
		t.Errorf("freed page not reused: got %#x", p)
	}
}

func TestNextBlockIDNeverZero(t *testing.T) {
	k := New(OptConfig{})
	k.blockSeq = ^uint32(0)
	if id := k.nextBlockID(); id == 0 {
		t.Error("block id wrapped to 0")
	}
}
