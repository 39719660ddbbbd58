package sim

import (
	"context"
	"errors"
	"strings"
	"testing"

	"oscachesim/internal/trace"
)

// Targeted tests for the less-travelled simulator paths.

func TestByPrefBufferHit(t *testing.T) {
	p := DefaultParams()
	p.Block = BlockBypassPref
	addr := uint64(0xAA000)
	refs := []trace.Ref{
		// Block prefetch routes to the prefetch buffer.
		{Addr: addr, Op: trace.OpPrefetch, Kind: trace.KindOS, Block: 1, Role: trace.BlockSrc},
	}
	// Enough intervening work to complete the fill.
	for i := 0; i < 60; i++ {
		refs = append(refs, trace.Ref{Addr: 0x1000 + uint64(i%4)*4, Op: trace.OpInstr, Kind: trace.KindOS})
	}
	refs = append(refs, trace.Ref{Addr: addr, Op: trace.OpRead, Kind: trace.KindOS, Block: 1, Role: trace.BlockSrc, Len: 64})
	// Roll the 8-line FIFO prefetch buffer over with further block
	// prefetches so addr's entry is evicted...
	for i := 1; i <= 8; i++ {
		refs = append(refs, trace.Ref{Addr: addr + uint64(i)*16, Op: trace.OpPrefetch, Kind: trace.KindOS, Block: 1, Role: trace.BlockSrc})
		for j := 0; j < 60; j++ {
			refs = append(refs, trace.Ref{Addr: 0x1000 + uint64(j%4)*4, Op: trace.OpInstr, Kind: trace.KindOS})
		}
		refs = append(refs, trace.Ref{Addr: addr + uint64(i)*16, Op: trace.OpRead, Kind: trace.KindOS, Block: 1, Role: trace.BlockSrc, Len: 64})
	}
	// ...then a non-block read of the original line must MISS: the
	// buffer served the block read without installing the line in the
	// caches.
	refs = append(refs, osRead(addr))
	res := run(t, p, refs)
	c := res.Counters
	if c.DReadMisses[trace.KindOS] < 1 {
		t.Errorf("misses = %d; the post-block read should miss (no cache install)", c.DReadMisses[trace.KindOS])
	}
	if c.Prefetches != 9 {
		t.Errorf("prefetches = %d, want 9", c.Prefetches)
	}
	if c.Block.OutsideReuse == 0 {
		t.Error("the post-block miss was not counted as an outside reuse")
	}
}

func TestBypassWriteFlushesPerLine(t *testing.T) {
	p := DefaultParams()
	p.Block = BlockBypass
	var refs []trace.Ref
	// 4 L2 lines (32B each) of destination writes, word by word.
	for i := 0; i < 32; i++ {
		refs = append(refs, trace.Ref{
			Addr: 0xBB000 + uint64(i*4), Op: trace.OpWrite, Kind: trace.KindOS,
			Block: 1, Role: trace.BlockDst, Len: 128,
		})
	}
	res := run(t, p, refs)
	// Each 32-byte line flush is one word-write bus transaction; the
	// last line stays in the register (flushed only by a later op),
	// so expect 3 flushes.
	if got := res.Counters.Bus.Transactions[5]; got != 3 { // bus.KindWordWrite
		t.Errorf("line flushes = %d, want 3", got)
	}
}

func TestBarrierDefaultParticipants(t *testing.T) {
	// Len 0 means "all CPUs".
	bar := trace.Ref{Addr: 0xCC000, Op: trace.OpWrite, Kind: trace.KindOS, Sync: trace.SyncBarrier, SyncID: 1}
	res := run(t, DefaultParams(), []trace.Ref{bar}, []trace.Ref{bar}, []trace.Ref{bar}, []trace.Ref{bar})
	for i := 1; i < 4; i++ {
		if res.CPUTime[i] != res.CPUTime[0] {
			t.Errorf("cpu%d not synchronized", i)
		}
	}
}

func TestLockReleaseWithoutAcquireTolerated(t *testing.T) {
	rel := trace.Ref{Addr: 0xDD000, Op: trace.OpWrite, Kind: trace.KindOS, Sync: trace.SyncLockRelease, SyncID: 9}
	res := run(t, DefaultParams(), []trace.Ref{rel, osRead(0x1000)})
	if res.Refs != 2 {
		t.Errorf("refs = %d", res.Refs)
	}
}

func TestDeadlockErrorMessageNamesCulprits(t *testing.T) {
	p := DefaultParams()
	p.NumCPUs = 2
	acq := trace.Ref{Addr: 0x100, Op: trace.OpWrite, Kind: trace.KindOS, Sync: trace.SyncLockAcquire, SyncID: 7}
	srcs := []trace.Source{
		trace.NewSliceSource([]trace.Ref{acq}),
		trace.NewSliceSource([]trace.Ref{{CPU: 1, Addr: 0x100, Op: trace.OpWrite, Kind: trace.KindOS, Sync: trace.SyncLockAcquire, SyncID: 7}}),
	}
	s, err := New(p, srcs)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(context.Background())
	if err == nil {
		t.Fatal("no deadlock error")
	}
	if !errors.Is(err, ErrDeadlock) {
		t.Errorf("deadlock error does not match ErrDeadlock: %v", err)
	}
	if !strings.Contains(err.Error(), "lock 7") {
		t.Errorf("deadlock error does not name the lock: %v", err)
	}
}

func TestDeadlockErrorNamesBarrier(t *testing.T) {
	p := DefaultParams()
	p.NumCPUs = 2
	bar := trace.Ref{Addr: 0x200, Op: trace.OpWrite, Kind: trace.KindOS, Sync: trace.SyncBarrier, SyncID: 3, Len: 2}
	srcs := []trace.Source{
		trace.NewSliceSource([]trace.Ref{bar}),
		trace.NewSliceSource(nil), // never arrives
	}
	s, err := New(p, srcs)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(context.Background())
	if err == nil {
		t.Fatal("no deadlock error")
	}
	if !errors.Is(err, ErrDeadlock) {
		t.Errorf("deadlock error does not match ErrDeadlock: %v", err)
	}
	if !strings.Contains(err.Error(), "barrier 3") {
		t.Errorf("deadlock error does not name the barrier: %v", err)
	}
}

func TestModeOfClampsUnknownKinds(t *testing.T) {
	if modeOf(trace.Kind(7)) != int(trace.KindOS) {
		t.Error("unknown kind not clamped to OS")
	}
	if modeOf(trace.KindUser) != 0 || modeOf(trace.KindIdle) != 2 {
		t.Error("known kinds mis-mapped")
	}
}

// evictLog records the (filled, displaced) line pair of every
// EvL1Evict event.
type evictLog [][2]uint64

func (l *evictLog) Observe(ev Event) {
	if ev.Kind == EvL1Evict {
		*l = append(*l, [2]uint64{ev.Addr, ev.Victim})
	}
}

// TestL1EvictEvents: two lines that map to the same primary-cache set,
// read alternately, evict each other on every refill, and each
// eviction reaches the observer naming the filled and the displaced
// line.
func TestL1EvictEvents(t *testing.T) {
	lo, hi := uint64(0x8000), uint64(0x8000+32*1024)
	var refs []trace.Ref
	for i := 0; i < 6; i++ {
		refs = append(refs, osRead(lo), osRead(hi))
	}
	s, err := New(DefaultParams(), []trace.Source{
		trace.NewSliceSource(refs),
		trace.NewSliceSource(nil), trace.NewSliceSource(nil), trace.NewSliceSource(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	var log evictLog
	s.SetObserver(&log)
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	seen := map[[2]uint64]int{}
	for _, e := range log {
		seen[e]++
	}
	if seen[[2]uint64{hi, lo}] == 0 {
		t.Errorf("no eviction of %#x by %#x: %x", lo, hi, log)
	}
	if seen[[2]uint64{lo, hi}] == 0 {
		t.Errorf("no eviction of %#x by %#x: %x", hi, lo, log)
	}
	if len(seen) != 2 {
		t.Errorf("evictions beyond the ping-pong pair: %x", log)
	}
}

func TestValidateRejectsBadBusAndPrefBuf(t *testing.T) {
	p := DefaultParams()
	p.Bus.WidthBytes = 0
	if err := p.Validate(); err == nil {
		t.Error("bad bus accepted")
	}
	p = DefaultParams()
	p.Block = BlockBypassPref
	p.PrefBufLines = 0
	if err := p.Validate(); err == nil {
		t.Error("bypass+pref without buffer accepted")
	}
	p = DefaultParams()
	p.L1HitCycles = 0
	if err := p.Validate(); err == nil {
		t.Error("zero latency accepted")
	}
}

func TestUnknownSchemeString(t *testing.T) {
	if got := BlockScheme(9).String(); !strings.Contains(got, "9") {
		t.Errorf("unknown scheme = %q", got)
	}
}
