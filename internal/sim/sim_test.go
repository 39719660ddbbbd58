package sim

import (
	"context"
	"testing"

	"oscachesim/internal/memory"
	"oscachesim/internal/stats"
	"oscachesim/internal/trace"
)

// run simulates the given per-CPU ref slices on a default machine
// (optionally tweaked) and returns the result.
func run(t *testing.T, p Params, perCPU ...[]trace.Ref) *Result {
	t.Helper()
	for len(perCPU) < p.NumCPUs {
		perCPU = append(perCPU, nil)
	}
	srcs := make([]trace.Source, len(perCPU))
	for i, refs := range perCPU {
		for j := range refs {
			refs[j].CPU = uint8(i)
		}
		srcs[i] = trace.NewSliceSource(refs)
	}
	s, err := New(p, srcs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func osRead(addr uint64) trace.Ref {
	return trace.Ref{Addr: addr, Op: trace.OpRead, Kind: trace.KindOS}
}

func osWrite(addr uint64) trace.Ref {
	return trace.Ref{Addr: addr, Op: trace.OpWrite, Kind: trace.KindOS}
}

func TestParamsValidate(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("DefaultParams invalid: %v", err)
	}
	bad := DefaultParams()
	bad.NumCPUs = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero CPUs accepted")
	}
	bad = DefaultParams()
	bad.L2.LineSize = 8 // smaller than L1D's 16
	if err := bad.Validate(); err == nil {
		t.Error("L2 line < L1D line accepted")
	}
	bad = DefaultParams()
	bad.L1WriteBufDepth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero write buffer accepted")
	}
	bad = DefaultParams()
	bad.MSHREntries = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero MSHRs accepted")
	}
}

func TestBlockSchemeString(t *testing.T) {
	if BlockCached.String() != "cached" || BlockDMA.String() != "dma" {
		t.Error("scheme names wrong")
	}
}

func TestNewSourceCountMismatch(t *testing.T) {
	if _, err := New(DefaultParams(), nil); err == nil {
		t.Error("New accepted 0 sources for 4 CPUs")
	}
}

func TestColdReadLatency(t *testing.T) {
	res := run(t, DefaultParams(), []trace.Ref{osRead(0x10000)})
	// Uncontended memory read: 51 cycles total.
	if res.CPUTime[0] != 51 {
		t.Errorf("cold read time = %d, want 51", res.CPUTime[0])
	}
	if res.Counters.DReadMisses[trace.KindOS] != 1 {
		t.Errorf("misses = %d, want 1", res.Counters.DReadMisses[trace.KindOS])
	}
	if res.Counters.OSMissBy[stats.MissOther] != 1 {
		t.Errorf("other misses = %d, want 1", res.Counters.OSMissBy[stats.MissOther])
	}
}

func TestL1HitLatency(t *testing.T) {
	res := run(t, DefaultParams(), []trace.Ref{osRead(0x10000), osRead(0x10004)})
	// 51 (cold) + 1 (L1 hit, same 16-byte line).
	if res.CPUTime[0] != 52 {
		t.Errorf("time = %d, want 52", res.CPUTime[0])
	}
	if got := res.Counters.DReadMisses[trace.KindOS]; got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
}

func TestL2HitLatency(t *testing.T) {
	// Fill a line, evict it from L1 with a 32KB-conflicting line,
	// read it again: L2 hit.
	res := run(t, DefaultParams(), []trace.Ref{
		osRead(0x10000),           // cold: 51
		osRead(0x10000 + 32*1024), // conflicts in L1, cold in L2: 51
		osRead(0x10000),           // L1 miss, L2 hit: 12
	})
	if res.CPUTime[0] != 51+51+12 {
		t.Errorf("time = %d, want 114", res.CPUTime[0])
	}
}

func TestInstrFetch(t *testing.T) {
	res := run(t, DefaultParams(), []trace.Ref{
		{Addr: 0x1000, Op: trace.OpInstr, Kind: trace.KindOS},
		{Addr: 0x1004, Op: trace.OpInstr, Kind: trace.KindOS},
	})
	// Cold I-fetch: 1 exec + 50 stall; second in same line: 1 exec.
	c := res.Counters
	if c.Instrs[trace.KindOS] != 2 {
		t.Errorf("instrs = %d", c.Instrs[trace.KindOS])
	}
	if c.Time[trace.KindOS].Exec != 2 {
		t.Errorf("exec = %d, want 2", c.Time[trace.KindOS].Exec)
	}
	if c.Time[trace.KindOS].IMiss != 50 {
		t.Errorf("imiss = %d, want 50", c.Time[trace.KindOS].IMiss)
	}
}

func TestWriteBufferAbsorbsWrites(t *testing.T) {
	// A handful of writes to an owned line cost 1 cycle each.
	refs := []trace.Ref{osRead(0x10000)} // brings line in Exclusive
	for i := 0; i < 3; i++ {
		refs = append(refs, osWrite(0x10000+uint64(4*i)))
	}
	res := run(t, DefaultParams(), refs)
	if res.CPUTime[0] != 51+3 {
		t.Errorf("time = %d, want 54", res.CPUTime[0])
	}
	if res.Counters.DWrites[trace.KindOS] != 3 {
		t.Errorf("writes = %d", res.Counters.DWrites[trace.KindOS])
	}
}

func TestWriteBufferOverflowStalls(t *testing.T) {
	// A long burst of write misses to distinct lines must exceed the
	// 4-deep word buffer + 8-deep line buffer and stall.
	var refs []trace.Ref
	for i := 0; i < 64; i++ {
		refs = append(refs, osWrite(uint64(0x20000+i*64)))
	}
	res := run(t, DefaultParams(), refs)
	if res.Counters.Time[trace.KindOS].DWrite == 0 {
		t.Error("no write-buffer stall on a 64-line write-miss burst")
	}
}

func TestCoherenceMissClassification(t *testing.T) {
	addr := uint64(0x30000)
	cpu0 := []trace.Ref{
		osRead(addr),    // brings the line in
		osRead(0x40000), // spacer: gives CPU1 time
		osRead(0x50000), // spacer
		osRead(0x60000), // spacer
		osRead(addr),    // line was invalidated: coherence miss
	}
	cpu1 := []trace.Ref{
		{Addr: addr, Op: trace.OpWrite, Kind: trace.KindOS, Class: trace.ClassCounter},
	}
	res := run(t, DefaultParams(), cpu0, cpu1)
	c := res.Counters
	if c.OSMissBy[stats.MissCoherence] != 1 {
		t.Fatalf("coherence misses = %d, want 1 (counters: %+v)", c.OSMissBy[stats.MissCoherence], c.OSMissBy)
	}
	if c.OSCohBy[stats.CohInfreqComm] != 1 {
		t.Errorf("infreq-comm coherence misses = %d, want 1 (%v)", c.OSCohBy[stats.CohInfreqComm], c.OSCohBy)
	}
}

func TestLockMutualExclusion(t *testing.T) {
	lockAddr := uint64(0x70000)
	acq := trace.Ref{Addr: lockAddr, Op: trace.OpWrite, Kind: trace.KindOS, Class: trace.ClassLock, Sync: trace.SyncLockAcquire, SyncID: 1}
	rel := trace.Ref{Addr: lockAddr, Op: trace.OpWrite, Kind: trace.KindOS, Class: trace.ClassLock, Sync: trace.SyncLockRelease, SyncID: 1}
	work := func(n int) []trace.Ref {
		var refs []trace.Ref
		refs = append(refs, acq)
		for i := 0; i < n; i++ {
			refs = append(refs, osRead(0x80000+uint64(i*16)))
		}
		refs = append(refs, rel)
		return refs
	}
	res := run(t, DefaultParams(), work(10), work(10))
	// The second CPU must have waited: total sync time > 0.
	if res.Counters.Time[trace.KindOS].Sync == 0 {
		t.Error("no sync wait under lock contention")
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	barAddr := uint64(0x71000)
	bar := trace.Ref{Addr: barAddr, Op: trace.OpWrite, Kind: trace.KindOS, Class: trace.ClassBarrier, Sync: trace.SyncBarrier, SyncID: 9, Len: 4}
	// CPU0 does lots of work before the barrier; others arrive early.
	long := []trace.Ref{}
	for i := 0; i < 50; i++ {
		long = append(long, osRead(0x90000+uint64(i*64)))
	}
	long = append(long, bar)
	short := []trace.Ref{bar}
	res := run(t, DefaultParams(), long, short, short, short)
	// All CPUs end at the same (release) time.
	for i := 1; i < 4; i++ {
		if res.CPUTime[i] != res.CPUTime[0] {
			t.Errorf("cpu%d time %d != cpu0 time %d", i, res.CPUTime[i], res.CPUTime[0])
		}
	}
	if res.Counters.Time[trace.KindOS].Sync == 0 {
		t.Error("no barrier wait recorded")
	}
}

func TestDeadlockDetected(t *testing.T) {
	acq := func(id uint32) trace.Ref {
		return trace.Ref{Addr: 0x100 * uint64(id), Op: trace.OpWrite, Kind: trace.KindOS, Sync: trace.SyncLockAcquire, SyncID: id}
	}
	// CPU0 takes lock 1 and never releases; CPU1 wants it.
	p := DefaultParams()
	p.NumCPUs = 2
	srcs := []trace.Source{
		trace.NewSliceSource([]trace.Ref{acq(1)}),
		trace.NewSliceSource([]trace.Ref{{CPU: 1, Addr: 0x100, Op: trace.OpWrite, Kind: trace.KindOS, Sync: trace.SyncLockAcquire, SyncID: 1}}),
	}
	s, err := New(p, srcs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err == nil {
		t.Error("deadlocked trace ran to completion")
	}
}

func TestBlockMissClassification(t *testing.T) {
	var refs []trace.Ref
	// A block copy: read src lines (cold), write dst lines.
	for i := 0; i < 8; i++ {
		refs = append(refs, trace.Ref{
			Addr: 0xA0000 + uint64(i*16), Op: trace.OpRead, Kind: trace.KindOS,
			Block: 1, Role: trace.BlockSrc, Len: 128,
		})
		refs = append(refs, trace.Ref{
			Addr: 0xB0000 + uint64(i*16), Op: trace.OpWrite, Kind: trace.KindOS,
			Block: 1, Role: trace.BlockDst, Len: 128,
		})
	}
	res := run(t, DefaultParams(), refs)
	c := res.Counters
	if c.OSMissBy[stats.MissBlock] != 8 {
		t.Errorf("block misses = %d, want 8", c.OSMissBy[stats.MissBlock])
	}
	if c.Block.Ops != 1 {
		t.Errorf("block ops = %d, want 1", c.Block.Ops)
	}
	if c.Block.SrcLinesTotal != 8 || c.Block.SrcLinesCached != 0 {
		t.Errorf("src lines = %d/%d", c.Block.SrcLinesCached, c.Block.SrcLinesTotal)
	}
	if c.Block.SizeSmall != 1 {
		t.Errorf("size histogram: %+v", c.Block)
	}
}

func TestPrefetchHidesLatency(t *testing.T) {
	addr := uint64(0xC0000)
	var refs []trace.Ref
	refs = append(refs, trace.Ref{Addr: addr, Op: trace.OpPrefetch, Kind: trace.KindOS})
	// 60 cycles of other work, enough to cover the 51-cycle fill.
	for i := 0; i < 60; i++ {
		refs = append(refs, trace.Ref{Addr: 0x1000 + uint64(i%4)*4, Op: trace.OpInstr, Kind: trace.KindOS})
	}
	refs = append(refs, osRead(addr))
	res := run(t, DefaultParams(), refs)
	c := res.Counters
	if c.DReadMisses[trace.KindOS] != 0 {
		t.Errorf("fully-covered prefetch still counted a miss (%d)", c.DReadMisses[trace.KindOS])
	}
	if c.Prefetches != 1 {
		t.Errorf("prefetches = %d", c.Prefetches)
	}
	if c.Time[trace.KindOS].Pref != 0 {
		t.Errorf("pref stall = %d, want 0", c.Time[trace.KindOS].Pref)
	}
}

func TestLatePrefetchPartiallyHides(t *testing.T) {
	addr := uint64(0xC1000)
	// 0x2000 maps to a different set than addr in both caches.
	refs := []trace.Ref{
		osRead(0x2000), // prewarm a line (51 cycles)
		{Addr: addr, Op: trace.OpPrefetch, Kind: trace.KindOS},
		osRead(0x2000), // 1 cycle of work: the prefetch is late
		osRead(addr),
	}
	res := run(t, DefaultParams(), refs)
	c := res.Counters
	if c.DReadMisses[trace.KindOS] != 2 { // the cold prewarm + the late prefetch
		t.Errorf("misses = %d, want 2 (cold + late prefetch)", c.DReadMisses[trace.KindOS])
	}
	if c.LatePrefetches != 1 {
		t.Errorf("late prefetches = %d", c.LatePrefetches)
	}
	if c.Time[trace.KindOS].Pref == 0 {
		t.Error("no partial-overlap stall recorded")
	}
	if c.Time[trace.KindOS].Pref >= 51 {
		t.Errorf("pref stall %d not reduced below full miss latency", c.Time[trace.KindOS].Pref)
	}
}

func TestDMAStallsAndBypasses(t *testing.T) {
	p := DefaultParams()
	p.Block = BlockDMA
	src, dst := uint64(0xD0000), uint64(0xE0000)
	refs := []trace.Ref{
		{Addr: src, Aux: dst, Len: 4096, Op: trace.OpBlockDMA, Kind: trace.KindOS, Block: 1},
		osRead(dst), // first read of DMA-written data: reuse miss
	}
	res := run(t, p, refs)
	c := res.Counters
	// DMA stall: 19 + 512*10 = 5139 cycles minimum.
	if c.Time[trace.KindOS].DRead < 5139 {
		t.Errorf("DMA stall = %d, want >= 5139", c.Time[trace.KindOS].DRead)
	}
	if c.Block.OutsideReuse != 1 {
		t.Errorf("outside reuses = %d, want 1", c.Block.OutsideReuse)
	}
	if c.Bus.Transactions[6] == 0 { // bus.KindDMA
		t.Error("no DMA bus transaction recorded")
	}
	if c.OSMissBy[stats.MissBlock] != 0 {
		t.Errorf("DMA produced block misses: %d", c.OSMissBy[stats.MissBlock])
	}
}

func TestBypassSchemeReuses(t *testing.T) {
	p := DefaultParams()
	p.Block = BlockBypass
	var refs []trace.Ref
	// Block 1 writes dst lines (bypassed), then block 2 reads them as
	// its source: inside reuses.
	for i := 0; i < 4; i++ {
		refs = append(refs, trace.Ref{
			Addr: 0xF0000 + uint64(i*16), Op: trace.OpWrite, Kind: trace.KindOS,
			Block: 1, Role: trace.BlockDst, Len: 64,
		})
	}
	for i := 0; i < 4; i++ {
		refs = append(refs, trace.Ref{
			Addr: 0xF0000 + uint64(i*16), Op: trace.OpRead, Kind: trace.KindOS,
			Block: 2, Role: trace.BlockSrc, Len: 64,
		})
	}
	res := run(t, p, refs)
	c := res.Counters
	if c.Block.InsideReuse == 0 {
		t.Errorf("no inside reuses under bypass; counters: %+v", c.Block)
	}
}

func TestDisplacementTracking(t *testing.T) {
	victim := uint64(0x10000)
	conflicting := victim + 32*1024 // same L1 set
	refs := []trace.Ref{
		osRead(victim), // bring in the victim
		{Addr: conflicting, Op: trace.OpRead, Kind: trace.KindOS, Block: 1, Role: trace.BlockSrc, Len: 16},
		osRead(victim), // displaced by the block fill: outside displacement miss
	}
	res := run(t, DefaultParams(), refs)
	c := res.Counters
	if c.Block.OutsideDispl != 1 {
		t.Errorf("outside displacement misses = %d, want 1", c.Block.OutsideDispl)
	}
}

func TestUpdateProtocolAvoidsCoherenceMisses(t *testing.T) {
	addr := uint64(0x30000)
	attrs := memory.NewAttrTable()
	attrs.Set(addr, memory.PageAttr{Update: true})
	p := DefaultParams()
	p.Attrs = attrs
	cpu0 := []trace.Ref{
		osRead(addr),
		osRead(0x40000), osRead(0x50000), osRead(0x60000), // spacers
		osRead(addr), // under update protocol: still cached, hit
	}
	cpu1 := []trace.Ref{
		{Addr: addr, Op: trace.OpWrite, Kind: trace.KindOS, Class: trace.ClassFreqShared},
	}
	res := run(t, p, cpu0, cpu1)
	c := res.Counters
	if c.OSMissBy[stats.MissCoherence] != 0 {
		t.Errorf("coherence misses under update protocol = %d, want 0", c.OSMissBy[stats.MissCoherence])
	}
	if c.Bus.Transactions[4] == 0 { // bus.KindUpdate
		t.Error("no update broadcast recorded")
	}
}

func TestInvalidateProtocolCausesMissWhereUpdateDoesNot(t *testing.T) {
	// Identical traces, differing only in the page attribute; the
	// invalidate run must show strictly more coherence misses.
	addr := uint64(0x30000)
	mkRefs := func() ([]trace.Ref, []trace.Ref) {
		cpu0 := []trace.Ref{
			osRead(addr),
			osRead(0x40000), osRead(0x50000), osRead(0x60000),
			osRead(addr),
		}
		cpu1 := []trace.Ref{{Addr: addr, Op: trace.OpWrite, Kind: trace.KindOS, Class: trace.ClassFreqShared}}
		return cpu0, cpu1
	}
	c0, c1 := mkRefs()
	base := run(t, DefaultParams(), c0, c1)
	p := DefaultParams()
	attrs := memory.NewAttrTable()
	attrs.Set(addr, memory.PageAttr{Update: true})
	p.Attrs = attrs
	c0, c1 = mkRefs()
	upd := run(t, p, c0, c1)
	if base.Counters.OSMissBy[stats.MissCoherence] <= upd.Counters.OSMissBy[stats.MissCoherence] {
		t.Errorf("invalidate coherence misses (%d) not greater than update (%d)",
			base.Counters.OSMissBy[stats.MissCoherence], upd.Counters.OSMissBy[stats.MissCoherence])
	}
}

func TestHotSpotMissCounting(t *testing.T) {
	refs := []trace.Ref{
		{Addr: 0x12340, Op: trace.OpRead, Kind: trace.KindOS, Spot: 3},
	}
	res := run(t, DefaultParams(), refs)
	if res.Counters.OSHotSpotMisses != 1 {
		t.Errorf("hot spot misses = %d, want 1", res.Counters.OSHotSpotMisses)
	}
}

func TestModeAttribution(t *testing.T) {
	refs := []trace.Ref{
		{Addr: 0x1000, Op: trace.OpRead, Kind: trace.KindUser},
		{Addr: 0x2000, Op: trace.OpRead, Kind: trace.KindOS},
		{Addr: 0x3000, Op: trace.OpRead, Kind: trace.KindIdle},
	}
	res := run(t, DefaultParams(), refs)
	c := res.Counters
	for _, k := range []trace.Kind{trace.KindUser, trace.KindOS, trace.KindIdle} {
		if c.DReads[k] != 1 {
			t.Errorf("DReads[%v] = %d, want 1", k, c.DReads[k])
		}
		if c.Time[k].Total() == 0 {
			t.Errorf("no time attributed to %v", k)
		}
	}
}

func TestWriteForwarding(t *testing.T) {
	// A read of a just-written word forwards from the write buffer
	// instead of missing.
	refs := []trace.Ref{
		osWrite(0x13000),
		osRead(0x13000),
	}
	res := run(t, DefaultParams(), refs)
	if res.Counters.DReadMisses[trace.KindOS] != 0 {
		t.Errorf("read after buffered write counted a miss")
	}
}

func TestBusContentionBetweenCPUs(t *testing.T) {
	// All four CPUs streaming cold misses must contend for the bus:
	// total time exceeds the uncontended single-CPU time.
	mk := func(base uint64) []trace.Ref {
		var refs []trace.Ref
		for i := 0; i < 100; i++ {
			refs = append(refs, osRead(base+uint64(i)*64))
		}
		return refs
	}
	solo := run(t, DefaultParams(), mk(0x100000))
	four := run(t, DefaultParams(), mk(0x100000), mk(0x200000), mk(0x300000), mk(0x400000))
	if four.Counters.Cycles <= solo.Counters.Cycles {
		t.Errorf("no contention: four CPUs at %d cycles vs solo %d", four.Counters.Cycles, solo.Counters.Cycles)
	}
	if four.Counters.Bus.WaitCycles == 0 {
		t.Error("no bus wait cycles under four-way streaming")
	}
}

// TestSetProgress pins the live feed a Simulator samples into: after
// Run it is marked done and holds the run's final counters.
func TestSetProgress(t *testing.T) {
	p := DefaultParams()
	srcs := make([]trace.Source, p.NumCPUs)
	for cpu := range srcs {
		var refs []trace.Ref
		for i := 0; i < 1000; i++ {
			r := osRead(uint64(cpu<<20 + i*64))
			r.CPU = uint8(cpu)
			refs = append(refs, r)
		}
		srcs[cpu] = trace.NewSliceSource(refs)
	}
	s, err := New(p, srcs)
	if err != nil {
		t.Fatal(err)
	}
	var prog Progress
	s.SetProgress(&prog)
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	snap := prog.Snapshot()
	if !snap.Done {
		t.Error("progress not marked done after Run")
	}
	if snap.Refs != res.Refs || snap.Refs != 4000 {
		t.Errorf("progress refs %d, result refs %d, want 4000", snap.Refs, res.Refs)
	}
	if want := res.Counters.DReadMisses[trace.KindOS]; snap.OSReadMisses != want || want == 0 {
		t.Errorf("progress OS read misses %d, result %d", snap.OSReadMisses, want)
	}
	if snap.Cycles != res.Counters.Cycles {
		t.Errorf("progress cycles %d, result %d", snap.Cycles, res.Counters.Cycles)
	}
}
