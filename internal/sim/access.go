package sim

import (
	"oscachesim/internal/bus"
	"oscachesim/internal/cache"
	"oscachesim/internal/coherence"
	"oscachesim/internal/stats"
	"oscachesim/internal/trace"
)

// --- Instruction fetch ------------------------------------------------

// instrFetch models one instruction: one execution cycle, plus
// I-hierarchy stall on an L1I miss. Instructions fill through the
// unified secondary cache like everything else.
func (s *Simulator) instrFetch(c *cpuState, r *trace.Ref, mode int) {
	s.c.Instrs[mode]++
	s.c.Time[mode].Exec++
	if r.Block != 0 {
		s.c.BlockOverhead.InstrExec++
	}
	c.time++
	if _, hit := c.l1i.Lookup(r.Addr); hit {
		return
	}
	// L1I miss: fetch the line through L2.
	var stall uint64
	if _, hit := c.l2.Lookup(r.Addr); hit {
		s.emit(Event{Kind: EvReadHit, CPU: c.id, Level: 2, Addr: r.Addr})
		stall = s.p.L2HitCycles - 1
	} else {
		stall = s.l2MissFill(c, r.Addr, bus.KindFill, 0)
	}
	c.l1i.Fill(r.Addr, coherence.Shared, 0)
	s.c.Time[mode].IMiss += stall
	c.time += stall
}

// --- Data read --------------------------------------------------------

// readAccess models a load. Loads are blocking: the processor stalls
// until the word arrives.
func (s *Simulator) readAccess(c *cpuState, r *trace.Ref, mode int) {
	s.advanceDrains(c)
	l1line := c.l1d.LineAddr(r.Addr)

	// 1. Primary-cache hit. The observer guard skips constructing the
	// Event entirely on the most-executed line of the simulator; with no
	// observer attached the hit path is a lookup and two increments.
	if _, hit := c.l1d.Lookup(r.Addr); hit {
		if s.obs != nil {
			s.emit(Event{Kind: EvReadHit, CPU: c.id, Level: 1, Addr: r.Addr})
		}
		s.c.Time[mode].Exec++
		c.time++
		s.noteBlockSrcTouch(c, r, true)
		return
	}
	s.noteBlockSrcTouch(c, r, false)

	// 2. Outstanding prefetch on this line.
	if pf, ok := c.pending[l1line]; ok {
		delete(c.pending, l1line)
		c.mshr.Retire(c.time)
		ctx := s.captureMissContext(c, r.Addr)
		if pf.toPrefBuf && c.prefBuf != nil {
			c.prefBuf.Fill(l1line, coherence.Shared, pf.block)
			// The buffer serves the block operation without touching
			// the caches, so first-time reuses of this line later are
			// the Section 4.1.3 reuse misses.
			c.bypassed[l1line] = pf.block
		} else {
			s.fillL1D(c, l1line, pf.block)
		}
		if pf.ready <= c.time {
			// Fully hidden: not a miss.
			s.c.Time[mode].Exec++
			c.time++
			return
		}
		// Partially hidden: counted as a miss, residual stall in the
		// Pref category.
		stall := pf.ready - c.time
		s.c.LatePrefetches++
		s.c.Time[mode].Pref += stall
		s.c.Time[mode].Exec++
		c.time += stall + 1
		s.recordReadMiss(c, r, mode, stall, ctx)
		return
	}

	// 3. Blk_ByPref prefetch buffer.
	if c.prefBuf != nil {
		if _, hit := c.prefBuf.Lookup(r.Addr); hit {
			s.c.Time[mode].Exec++
			c.time++
			return
		}
	}

	// 4. Write-buffer forwarding (reads bypass writes, forwarding on
	// an address match).
	if c.l1wb.Contains(r.Addr) || c.l2wb.Contains(r.Addr) {
		if s.obs != nil {
			lvl := 1
			if !c.l1wb.Contains(r.Addr) {
				lvl = 2
			}
			s.emit(Event{Kind: EvForward, CPU: c.id, Level: lvl, Addr: r.Addr})
		}
		s.c.Time[mode].Exec++
		c.time++
		return
	}
	if s.obs != nil {
		s.emit(Event{Kind: EvNoForward, CPU: c.id, Addr: r.Addr})
	}

	// 5. Cache-bypassing block loads (Blk_Bypass and the non-buffered
	// side of Blk_ByPref).
	if r.Block != 0 && s.bypassLoads() {
		s.bypassRead(c, r, mode)
		return
	}

	// 6. Normal fill path through L2.
	ctx := s.captureMissContext(c, r.Addr)
	var stall uint64
	if _, hit := c.l2.Lookup(r.Addr); hit {
		s.emit(Event{Kind: EvReadHit, CPU: c.id, Level: 2, Addr: r.Addr})
		stall = s.p.L2HitCycles - 1
	} else {
		stall = s.l2MissFill(c, r.Addr, bus.KindFill, r.Block)
	}
	s.fillL1D(c, l1line, r.Block)
	s.c.Time[mode].DRead += stall
	s.c.Time[mode].Exec++
	c.time += stall + 1
	s.recordReadMiss(c, r, mode, stall, ctx)
}

// bypassLoads reports whether block loads bypass the caches under the
// configured scheme.
func (s *Simulator) bypassLoads() bool {
	return s.p.Block == BlockBypass || s.p.Block == BlockBypassPref
}

// bypassRead services a block load through the bypass line registers.
func (s *Simulator) bypassRead(c *cpuState, r *trace.Ref, mode int) {
	l1line := c.l1d.LineAddr(r.Addr)
	l2line := c.l2.LineAddr(r.Addr)

	// The L1-level register holds the line currently operated on.
	if c.srcReg1 == l1line {
		s.c.Time[mode].Exec++
		c.time++
		return
	}
	ctx := s.captureMissContext(c, r.Addr)
	var stall uint64
	switch {
	case c.l2.State(r.Addr).Valid():
		// Line present in own L2: read it from there (no L1 fill).
		c.l2.Lookup(r.Addr) // refresh LRU
		s.emit(Event{Kind: EvReadHit, CPU: c.id, Level: 2, Addr: r.Addr})
		stall = s.p.L2HitCycles - 1
	case c.srcReg2 == l2line:
		// Present in the L2-level register; still a primary-cache
		// miss, just a cheap one.
		stall = s.p.L2HitCycles - 1
	default:
		// Fetch from memory (or a remote cache) into the registers,
		// leaving the caches untouched and tagging the lines as
		// bypassed for reuse tracking.
		stall = s.l2BusRead(c, r.Addr, bus.KindFill, false, r.Block)
		c.srcReg2 = l2line
		s.markBypassed(c, l2line, r.Block)
	}
	c.srcReg1 = l1line
	s.c.Time[mode].DRead += stall
	s.c.Time[mode].Exec++
	c.time += stall + 1
	s.recordReadMiss(c, r, mode, stall, ctx)
}

// markBypassed tags every L1 line inside the L2 line as bypassed by
// the block operation.
func (s *Simulator) markBypassed(c *cpuState, l2line uint64, block uint32) {
	for a := l2line; a < l2line+s.p.L2.LineSize; a += s.p.L1D.LineSize {
		if _, inL1 := c.l1d.Peek(a); !inL1 {
			c.bypassed[a] = block
		}
	}
}

// --- Data write -------------------------------------------------------

// writeAccess models a store: one cycle into the write-through primary
// cache plus the word-wide write buffer, stalling only on overflow.
func (s *Simulator) writeAccess(c *cpuState, r *trace.Ref, mode int) {
	s.advanceDrains(c)
	s.noteBlockDstTouch(c, r)

	// Cache-bypassing block stores (Blk_Bypass only; Blk_ByPref
	// caches destination writes).
	if r.Block != 0 && s.p.Block == BlockBypass {
		if !c.l1d.State(r.Addr).Valid() && !c.l2.State(r.Addr).Valid() {
			s.bypassWrite(c, r, mode)
			return
		}
	}

	// Write-back primary cache: a store whose line the local L2
	// already owns completes in the hierarchy without touching the
	// write buffer — the L2 line turns Modified on the spot, exactly
	// as if the buffered write had been absorbed. Stores to shared or
	// missing lines fall through to the write-through machinery so
	// every coherence decision still happens at L2.
	if s.p.L1WriteBack {
		l2line := c.l2.LineAddr(r.Addr)
		if st := c.l2.State(l2line); st == coherence.Modified || st == coherence.Exclusive {
			if _, hit := c.l1d.Lookup(r.Addr); !hit {
				s.fillL1D(c, c.l1d.LineAddr(r.Addr), r.Block)
			}
			if l, ok := c.l2.Peek(l2line); ok {
				l.State = coherence.Modified
			}
			if s.obs != nil {
				s.emit(Event{Kind: EvAbsorb, CPU: c.id, Addr: l2line})
			}
			s.c.Time[mode].Exec++
			c.time++
			return
		}
	}

	// Write-through write-allocate: a store miss installs the line in
	// the primary cache in the background (the data rides the L2
	// write-allocate that the drain engine performs), so consecutive
	// block operations find the previous destination cached — the
	// mechanism behind the Section 4.1.3 inside reuses.
	if _, hit := c.l1d.Lookup(r.Addr); !hit {
		s.fillL1D(c, c.l1d.LineAddr(r.Addr), r.Block)
	}
	var stall uint64
	if c.l1wb.Full() {
		stall = s.forceL1Space(c)
		s.c.Time[mode].DWrite += stall
		c.l1wb.RecordOverflow()
		if r.Block != 0 {
			s.c.BlockOverhead.WriteStall += stall
		}
	}
	c.l1wb.Push(cache.WriteBufferEntry{
		Addr:  r.Addr,
		Ready: c.time + stall,
		Tag:   uint8(r.Class),
		Block: r.Block,
	})
	s.drainMask[c.id>>6] |= 1 << (uint(c.id) & 63)
	s.drainAt[c.id] = 0
	if s.obs != nil {
		s.emit(Event{Kind: EvWBPush, CPU: c.id, Level: 1, Addr: r.Addr})
	}
	s.c.Time[mode].Exec++
	c.time += stall + 1
}

// bypassWrite accumulates a block store in the destination line
// registers, flushing full L2-level lines straight to the bus.
func (s *Simulator) bypassWrite(c *cpuState, r *trace.Ref, mode int) {
	l1line := c.l1d.LineAddr(r.Addr)
	l2line := c.l2.LineAddr(r.Addr)
	var stall uint64
	if c.dstReg2 != l2line {
		if c.dstDirty {
			stall = s.flushDstReg(c)
			if stall > 0 {
				s.c.Time[mode].DWrite += stall
				s.c.BlockOverhead.WriteStall += stall
			}
		}
		c.dstReg2 = l2line
	}
	c.dstReg1 = l1line
	c.dstDirty = true
	c.bypassed[l1line] = r.Block
	s.c.Time[mode].Exec++
	c.time += stall + 1
}

// flushDstReg posts the L2-level destination register to the bus as a
// line write. The single register means a second flush must wait for
// the first (the paper's Blk_Bypass write-stall growth).
func (s *Simulator) flushDstReg(c *cpuState) (stall uint64) {
	start := max(c.time, c.dstFlushFree)
	port := s.portFor(c.dstReg2)
	occ := port.LineOccupancy(s.p.L2.LineSize)
	grant := port.Reserve(start, occ, bus.KindWordWrite, s.p.L2.LineSize)
	// Remote copies of the line must be invalidated (the write goes
	// to memory).
	s.snoopInvalidate(c, c.dstReg2, trace.ClassGeneric)
	c.dstFlushFree = grant + occ
	c.dstDirty = false
	if start > c.time {
		return start - c.time
	}
	return 0
}

// --- Prefetch ---------------------------------------------------------

// prefetchAccess models a non-binding software prefetch: one execution
// cycle, a non-blocking fill scheduled through the lockup-free L2.
func (s *Simulator) prefetchAccess(c *cpuState, r *trace.Ref, mode int) {
	s.advanceDrains(c)
	s.c.Instrs[mode]++
	s.c.Time[mode].Exec++
	c.time++
	s.c.Prefetches++
	l1line := c.l1d.LineAddr(r.Addr)
	if _, hit := c.l1d.Peek(r.Addr); hit {
		return
	}
	if _, ok := c.pending[l1line]; ok {
		return
	}
	if c.prefBuf != nil {
		if _, hit := c.prefBuf.Peek(r.Addr); hit {
			return
		}
	}
	c.mshr.Retire(c.time)
	if c.mshr.Full() {
		// No free MSHR: the prefetch is dropped (non-binding).
		return
	}
	toPrefBuf := c.prefBuf != nil && r.Block != 0
	var ready uint64
	if _, hit := c.l2.Lookup(r.Addr); hit {
		ready = c.time + s.p.L2HitCycles
	} else {
		// Ordinary prefetches install into L2 as well and into L1
		// lazily at first use; Blk_ByPref source prefetches fill the
		// dedicated buffer only and leave the caches untouched.
		stall := s.l2BusRead(c, r.Addr, bus.KindPrefetch, !toPrefBuf, r.Block)
		ready = c.time + stall + 1
	}
	c.pending[l1line] = pendingFill{ready: ready, block: r.Block, toPrefBuf: toPrefBuf}
	c.mshr.Add(l1line, ready)
}

// --- DMA block transfer -------------------------------------------------

// dmaAccess models the Blk_Dma smart-controller transfer: the
// processor stalls while the bus pipelines the block from source to
// destination; caches are bypassed but kept coherent by snooping.
func (s *Simulator) dmaAccess(c *cpuState, r *trace.Ref, mode int) {
	s.advanceDrains(c)
	size := uint64(r.Len)
	if size == 0 {
		size = 1
	}
	beats := (size + 7) / 8
	per8 := s.p.DMACyclesPer8B
	if r.Aux == 0 {
		// A block zero has no source read phase: one bus beat per
		// 8 bytes instead of two.
		per8 = (per8 + 1) / 2
	}
	occ := s.p.DMASetupCycles + beats*per8

	// Snooped lines (in any cache) slow the transfer.
	var penalty uint64
	isCopy := r.Aux != 0
	forEachL2Line := func(base uint64, fn func(line uint64)) {
		for a := s.p.L2.LineSize * (base / s.p.L2.LineSize); a < base+size; a += s.p.L2.LineSize {
			fn(a)
		}
	}
	countSnoops := func(base uint64) {
		forEachL2Line(base, func(line uint64) {
			for _, o := range s.cpus {
				// Only remote caches slow the transfer; the local L2
				// is the controller performing it.
				if o != c && o.l2.State(line).Valid() {
					penalty += s.p.DMASnoopPenalty
				}
			}
		})
	}
	countSnoops(r.Addr)
	if isCopy {
		countSnoops(r.Aux)
	}

	// On a directory machine the whole transfer is reserved on the home
	// port of r.Addr's first line: the destination of a block zero, but
	// the source of a copy (whose destination is r.Aux). This is a
	// simplification: homes are interleaved per line, so a page-sized
	// transfer really spans every home. ROADMAP's block-transfer timing
	// item measures what spreading it over the destination lines' homes
	// would change.
	dmaPort := s.portFor(s.p.L2.LineSize * (r.Addr / s.p.L2.LineSize))
	grant := dmaPort.Reserve(c.time, occ+penalty, bus.KindDMA, size)
	complete := grant + occ + penalty
	stall := complete - c.time
	s.c.Time[mode].DRead += stall
	c.time = complete

	// Destination lines present in caches are updated in place (they
	// stay valid and later reads hit); absent lines are not allocated
	// and are tagged bypassed for reuse tracking. Source lines are
	// read without state change; absent ones tagged bypassed as well.
	dst := r.Aux
	if !isCopy {
		dst = r.Addr // block zero: the only operand is the destination
	}
	forEachL2Line(dst, func(line uint64) {
		for _, o := range s.cpus {
			if l, ok := o.l2.Peek(line); ok {
				// Memory is written by the DMA, so a dirty copy
				// becomes clean-shared.
				if l.State == coherence.Modified || l.State == coherence.Exclusive {
					prior := l.State
					l.State = coherence.Shared
					s.emit(Event{Kind: EvDowngrade, CPU: c.id, Holder: o.id, Addr: line, State: prior})
				}
			}
		}
		if s.directoryMode() {
			s.dirDMADowngrade(c, line)
		}
		if !c.l2.State(line).Valid() {
			s.markBypassed(c, line, r.Block)
		}
	})
	if isCopy {
		forEachL2Line(r.Addr, func(line uint64) {
			if !c.l2.State(line).Valid() {
				s.markBypassed(c, line, r.Block)
			}
		})
	}
	s.noteDMABlock(c, r, size)
}

// --- Fill helpers -------------------------------------------------------

// fillL1D installs a line into the primary data cache, maintaining the
// displacement and reuse shadow maps, and reports a displaced line to
// the observer.
func (s *Simulator) fillL1D(c *cpuState, addr uint64, blockID uint32) {
	l1line := c.l1d.LineAddr(addr)
	v := c.l1d.Fill(l1line, coherence.Shared, blockID)
	delete(c.evictedByBlock, l1line)
	delete(c.bypassed, l1line)
	if v.Valid && blockID != 0 {
		c.evictedByBlock[v.Addr] = blockID
	}
	if v.Valid && s.obs != nil {
		s.emit(Event{Kind: EvL1Evict, CPU: c.id, Addr: l1line, Victim: v.Addr})
	}
}

// l2MissFill performs a full L2 read-miss fill (bus transaction,
// snooping, victim handling) and returns the processor stall beyond
// the L1-hit cycle.
func (s *Simulator) l2MissFill(c *cpuState, addr uint64, kind bus.Kind, blockID uint32) uint64 {
	return s.l2BusRead(c, addr, kind, true, blockID)
}

// l2BusRead reads a line over the bus, optionally installing it in the
// local L2 (install=false is the bypass path). It returns the stall in
// cycles beyond the 1-cycle L1 access.
func (s *Simulator) l2BusRead(c *cpuState, addr uint64, kind bus.Kind, install bool, blockID uint32) uint64 {
	if s.directoryMode() {
		return s.dirBusRead(c, addr, kind, install, blockID)
	}
	l2line := c.l2.LineAddr(addr)
	snap := s.snapshot(c, l2line)
	act := coherence.ReadMiss(snap)

	occ := s.bus.LineOccupancy(s.p.L2.LineSize)
	grant := s.bus.Reserve(c.time, occ, kind, s.p.L2.LineSize)
	wait := grant - c.time

	latency := s.p.MemCycles
	if act.CacheToCache {
		latency = s.p.C2CCycles
	}
	// Apply remote transitions: holders drop to Shared.
	for _, o := range s.cpus {
		if o == c {
			continue
		}
		if l, ok := o.l2.Peek(l2line); ok {
			prior := l.State
			l.State = coherence.Shared
			s.emit(Event{Kind: EvDowngrade, CPU: c.id, Holder: o.id, Addr: l2line, State: prior})
		}
	}
	if install {
		s.fillL2(c, l2line, act.Next, blockID, false)
	}
	return wait + latency - 1
}

// fillL2 installs a line in the local secondary cache, handling the
// victim: dirty victims are written back over the bus, and inclusion
// is preserved by invalidating the victim's primary-cache lines.
// write distinguishes write-allocate fills from read fills for the
// observer.
func (s *Simulator) fillL2(c *cpuState, l2line uint64, st coherence.State, blockID uint32, write bool) {
	v := c.l2.Fill(l2line, st, blockID)
	delete(c.invalBy, l2line)
	if s.obs != nil {
		if v.Valid {
			s.emit(Event{Kind: EvEvict, CPU: c.id, Addr: v.Addr, State: v.State})
		}
		kind := EvFillRead
		if write {
			kind = EvFillWrite
		}
		s.emit(Event{Kind: kind, CPU: c.id, Addr: l2line, State: st})
	}
	if !v.Valid {
		if s.directoryMode() {
			s.dirRegisterFill(c, l2line, st)
		}
		return
	}
	if s.directoryMode() {
		// Precise replacement hint: the victim's home forgets this
		// holder; the new line's home records it.
		s.dirDropHolder(c, v.Addr)
		s.dirRegisterFill(c, l2line, st)
	}
	if v.State == coherence.Modified {
		port := s.portFor(v.Addr)
		occ := port.LineOccupancy(s.p.L2.LineSize)
		port.Reserve(c.time, occ, bus.KindWriteBack, s.p.L2.LineSize)
	}
	for a := v.Addr; a < v.Addr+s.p.L2.LineSize; a += s.p.L1D.LineSize {
		if _, present := c.l1d.Peek(a); present {
			c.l1d.Invalidate(a)
			if blockID != 0 {
				c.evictedByBlock[a] = blockID
			}
		}
		c.l1i.Invalidate(a)
	}
}

// snapshot snoops the other processors' secondary caches (or, on a
// directory machine, asks the home node, which knows precisely).
func (s *Simulator) snapshot(c *cpuState, l2line uint64) coherence.Snapshot {
	if s.directoryMode() {
		return s.dirSnapshot(c, l2line)
	}
	var snap coherence.Snapshot
	for _, o := range s.cpus {
		if o == c {
			continue
		}
		if l, ok := o.l2.Peek(l2line); ok {
			snap.RemotePresent = true
			if l.State == coherence.Modified {
				snap.RemoteDirty = true
			}
		}
	}
	return snap
}

// snoopInvalidate removes the line from every remote cache, recording
// the invalidating write's data class for coherence-miss attribution.
// On a directory machine the invalidations are precise, directed at
// the recorded holders only.
func (s *Simulator) snoopInvalidate(c *cpuState, l2line uint64, class trace.DataClass) {
	if s.directoryMode() {
		s.dirInvalidate(c, l2line, class)
		return
	}
	for _, o := range s.cpus {
		if o == c {
			continue
		}
		if st, ok := o.l2.Invalidate(l2line); ok {
			o.invalBy[l2line] = invalRecord{class: class}
			for a := l2line; a < l2line+s.p.L2.LineSize; a += s.p.L1D.LineSize {
				o.l1d.Invalidate(a)
			}
			s.emit(Event{Kind: EvInvalidate, CPU: c.id, Holder: o.id, Addr: l2line, State: st, Class: class})
		}
	}
}

// snoopUpdate applies a Firefly word-update: remote copies stay valid.
func (s *Simulator) snoopUpdate(c *cpuState, l2line uint64) (sharers bool) {
	for _, o := range s.cpus {
		if o == c {
			continue
		}
		if l, ok := o.l2.Peek(l2line); ok {
			sharers = true
			prior := l.State
			l.State = coherence.Shared
			s.emit(Event{Kind: EvDowngrade, CPU: c.id, Holder: o.id, Addr: l2line, State: prior})
		}
	}
	return sharers
}

// --- Miss classification ------------------------------------------------

// missContext snapshots the shadow-map state that classifies a read
// miss. It must be captured before any fill, because fills clear the
// shadow entries.
type missContext struct {
	reuse     bool
	displaced bool
	inval     bool
	invalCls  trace.DataClass
}

// captureMissContext reads (and consumes) the classification evidence
// for a primary-cache read miss at r.Addr.
func (s *Simulator) captureMissContext(c *cpuState, addr uint64) missContext {
	l1line := c.l1d.LineAddr(addr)
	l2line := c.l2.LineAddr(addr)
	var ctx missContext
	if bid, ok := c.bypassed[l1line]; ok && bid != 0 {
		ctx.reuse = true
		delete(c.bypassed, l1line)
	}
	if _, ok := c.evictedByBlock[l1line]; ok {
		ctx.displaced = true
		delete(c.evictedByBlock, l1line)
	}
	if rec, ok := c.invalBy[l2line]; ok {
		ctx.inval = true
		ctx.invalCls = rec.class
		delete(c.invalBy, l2line)
	}
	if s.obs != nil {
		s.emit(Event{Kind: EvMissContext, CPU: c.id, Addr: addr, CtxInval: ctx.inval, Class: ctx.invalCls})
	}
	return ctx
}

// recordReadMiss classifies one primary-cache read miss per the
// Table 2 / Table 5 taxonomies and the displacement/reuse taxonomy of
// Section 4.1.3, using the context captured before the fill.
func (s *Simulator) recordReadMiss(c *cpuState, r *trace.Ref, mode int, stall uint64, ctx missContext) {
	s.c.DReadMisses[mode]++
	inBlock := r.Block != 0
	if ctx.reuse {
		if inBlock {
			s.c.Block.InsideReuse++
		} else {
			s.c.Block.OutsideReuse++
		}
	}
	if ctx.displaced {
		if inBlock {
			s.c.Block.InsideDispl++
		} else {
			s.c.Block.OutsideDispl++
		}
		s.c.BlockOverhead.DisplStall += stall
	}

	if r.Kind != trace.KindOS {
		if s.obs != nil {
			s.emit(Event{Kind: EvReadMiss, CPU: c.id, Addr: r.Addr, Ref: *r, CtxInval: ctx.inval})
		}
		return
	}
	cls := stats.MissOther
	cohCls := stats.CohOther
	switch {
	case inBlock:
		cls = stats.MissBlock
		if r.Role == trace.BlockSrc {
			s.c.BlockOverhead.ReadStall += stall
		}
	case ctx.inval:
		cls = stats.MissCoherence
		cohCls = stats.CohClassOf(ctx.invalCls)
		s.c.OSCohBy[cohCls]++
	}
	s.c.OSMissBy[cls]++
	if s.obs != nil {
		s.emit(Event{
			Kind: EvReadMiss, CPU: c.id, Addr: r.Addr, Ref: *r,
			MissClass: cls, CohClass: cohCls, Classified: true, CtxInval: ctx.inval,
		})
	}
	if r.Spot != 0 {
		s.c.OSHotSpotMisses++
		if int(r.Spot) < len(s.c.OSSpotMisses) {
			s.c.OSSpotMisses[r.Spot]++
		}
	}
}

// --- Block-operation bookkeeping -----------------------------------------

// startBlock begins measuring a new block operation. The distinct-line
// maps are reused across operations (cleared, not reallocated): a
// workload performs tens of thousands of block operations, and two map
// allocations per operation was a steady hot-path leak.
func (s *Simulator) startBlock(c *cpuState, r *trace.Ref) {
	c.curBlock = r.Block
	if r.Block == 0 {
		return
	}
	s.c.Block.Ops++
	if c.blkSrcLines == nil {
		c.blkSrcLines = make(map[uint64]bool)
		c.blkDstLines = make(map[uint64]uint8)
	} else {
		clear(c.blkSrcLines)
		clear(c.blkDstLines)
	}
	c.blkBytes = uint64(r.Len)
	c.blkIsCopy = false
}

// finishBlock finalizes the measurements of the block operation the
// processor was executing.
func (s *Simulator) finishBlock(c *cpuState) {
	if c.curBlock == 0 {
		return
	}
	if c.blkIsCopy {
		s.c.Block.Copies++
	}
	switch size := c.blkBytes; {
	case size >= 4096:
		s.c.Block.SizePage++
	case size >= 1024:
		s.c.Block.SizeMid++
	default:
		s.c.Block.SizeSmall++
	}
	c.curBlock = 0
	clear(c.blkSrcLines)
	clear(c.blkDstLines)
}

// noteBlockSrcTouch records Table 3's row 1: whether each distinct
// source line was already in the primary cache at first touch.
func (s *Simulator) noteBlockSrcTouch(c *cpuState, r *trace.Ref, cached bool) {
	if r.Block == 0 || r.Role != trace.BlockSrc || c.blkSrcLines == nil {
		return
	}
	if r.Len != 0 && uint64(r.Len) > c.blkBytes {
		c.blkBytes = uint64(r.Len)
	}
	c.blkIsCopy = true
	l1line := c.l1d.LineAddr(r.Addr)
	if _, seen := c.blkSrcLines[l1line]; seen {
		return
	}
	c.blkSrcLines[l1line] = cached
	s.c.Block.SrcLinesTotal++
	if cached {
		s.c.Block.SrcLinesCached++
	}
}

// noteBlockDstTouch records Table 3's rows 2-3: the secondary-cache
// state of each distinct destination line at first touch.
func (s *Simulator) noteBlockDstTouch(c *cpuState, r *trace.Ref) {
	if r.Block == 0 || r.Role != trace.BlockDst || c.blkDstLines == nil {
		return
	}
	if r.Len != 0 && uint64(r.Len) > c.blkBytes {
		c.blkBytes = uint64(r.Len)
	}
	l2line := c.l2.LineAddr(r.Addr)
	if _, seen := c.blkDstLines[l2line]; seen {
		return
	}
	st := c.l2.State(l2line)
	var code uint8
	switch st {
	case coherence.Modified, coherence.Exclusive:
		code = 1
		s.c.Block.DstLinesL2Owned++
	case coherence.Shared:
		code = 2
		s.c.Block.DstLinesL2Shared++
	}
	c.blkDstLines[l2line] = code
	s.c.Block.DstLinesTotal++
}

// noteDMABlock records the block stats of a DMA-executed operation.
func (s *Simulator) noteDMABlock(c *cpuState, r *trace.Ref, size uint64) {
	if r.Block == 0 {
		return
	}
	c.blkBytes = size
	c.blkIsCopy = r.Aux != 0
}

// --- Write-buffer drain engines -------------------------------------------

// advanceDrains retires write-buffer entries whose service starts by
// the processor's current time. Buffer slots free when the downstream
// unit takes the entry.
func (s *Simulator) advanceDrains(c *cpuState) { s.probeDrains(c.id, c.time) }

// probeDrains advances processor id's write buffers to the given
// horizon unless its drain horizon lies beyond it — such a probe cannot
// make progress, and skipping it leaves the processor's state
// untouched. It then records the new horizon, dropping the processor
// from drainMask once both buffers are empty.
func (s *Simulator) probeDrains(id int, until uint64) {
	if s.drainAt[id] <= until {
		s.drainNow(id, until)
	}
}

// drainNow is probeDrains' out-of-line half, kept apart so that the
// horizon check inlines into every probe site.
func (s *Simulator) drainNow(id int, until uint64) {
	at := s.advanceDrainsUntil(s.cpus[id], until)
	s.drainAt[id] = at
	if at == never {
		s.drainMask[id>>6] &^= 1 << (uint(id) & 63)
	}
}

// advanceDrainsUntil drains c's write buffers up to the given horizon,
// which may be another processor's clock (global time). It returns c's
// drain horizon afterwards: the earliest service start among its
// buffer heads, or never once both buffers are empty.
func (s *Simulator) advanceDrainsUntil(c *cpuState, until uint64) uint64 {
	for {
		next := never
		progressed := false
		if e, ok := c.l2wb.Peek(); ok {
			start := max(c.wbFreeB, e.Ready)
			if start <= until {
				s.serviceL2WBHead(c)
				progressed = true
			} else {
				next = start
			}
		}
		if e, ok := c.l1wb.Peek(); ok {
			start := max(c.wbFreeA, e.Ready)
			if start <= until && s.serviceL1WBHead(c, false) {
				progressed = true
			} else {
				next = min(next, start)
			}
		}
		if !progressed {
			return next
		}
	}
}

// forceDrainStep forces one unit of drain progress regardless of time,
// used at end of simulation and for overflow stalls.
func (s *Simulator) forceDrainStep(c *cpuState) {
	if c.l1wb.Len() > 0 && s.serviceL1WBHead(c, true) {
		return
	}
	if c.l2wb.Len() > 0 {
		s.serviceL2WBHead(c)
	}
}

// forceL1Space drains until the word write buffer has a free slot and
// returns the stall cycles the processor suffers.
func (s *Simulator) forceL1Space(c *cpuState) uint64 {
	for c.l1wb.Full() {
		if !s.serviceL1WBHead(c, true) {
			// Engine A is blocked on a full L2WB; force it.
			s.serviceL2WBHead(c)
		}
	}
	// The slot freed when engine A took the head entry.
	if c.wbFreeA > c.time {
		return c.wbFreeA - c.time
	}
	return 0
}

// serviceL1WBHead retires one entry from the word write buffer into
// the secondary cache. It returns false if it could not proceed
// because the L2WB is full (head-of-line blocking) and force is false.
func (s *Simulator) serviceL1WBHead(c *cpuState, force bool) bool {
	e, ok := c.l1wb.Peek()
	if !ok {
		return false
	}
	start := max(c.wbFreeA, e.Ready)
	s.drainAt[c.id] = 0
	l2line := c.l2.LineAddr(e.Addr)
	st := c.l2.State(l2line)
	switch {
	case st == coherence.Modified || st == coherence.Exclusive:
		// Absorbed by the owned L2 line.
		c.l1wb.Pop()
		if l, okk := c.l2.Peek(l2line); okk {
			l.State = coherence.Modified
		}
		if s.obs != nil {
			s.emit(Event{Kind: EvWBRetire, CPU: c.id, Level: 1, Addr: e.Addr})
			s.emit(Event{Kind: EvAbsorb, CPU: c.id, Addr: l2line})
		}
		c.wbFreeA = start + s.p.L2WriteCycles
		return true
	default:
		// Needs the bus: Shared (invalidate or update) or miss
		// (write-allocate). Coalesce into an existing L2WB entry for
		// the same line.
		if c.l2wb.Contains(e.Addr) {
			c.l1wb.Pop()
			if s.obs != nil {
				s.emit(Event{Kind: EvWBRetire, CPU: c.id, Level: 1, Addr: e.Addr})
			}
			c.wbFreeA = start + s.p.L2WriteCycles
			return true
		}
		if c.l2wb.Full() {
			if !force {
				return false
			}
			// Head-of-line blocking: the slot frees only when the bus
			// engine takes the L2WB head, so that back-pressure
			// propagates into engine A's timeline (and from there into
			// the processor's write stall).
			bStart := s.serviceL2WBHead(c)
			start = max(start, bStart)
		}
		c.l1wb.Pop()
		c.l2wb.Push(cache.WriteBufferEntry{
			Addr:     e.Addr,
			Ready:    start + s.p.L2WriteCycles,
			NeedsBus: true,
			Tag:      e.Tag,
			Block:    e.Block,
		})
		if s.obs != nil {
			s.emit(Event{Kind: EvWBRetire, CPU: c.id, Level: 1, Addr: e.Addr})
			s.emit(Event{Kind: EvWBPush, CPU: c.id, Level: 2, Addr: e.Addr})
		}
		c.wbFreeA = start + s.p.L2WriteCycles
		return true
	}
}

// serviceL2WBHead performs the bus transaction of the oldest L2WB
// entry — an invalidation signal, an update broadcast, or a
// write-allocate fill — and returns the cycle the entry left the
// buffer (its service start), which is when its slot freed.
func (s *Simulator) serviceL2WBHead(c *cpuState) uint64 {
	e, ok := c.l2wb.Pop()
	if !ok {
		return c.wbFreeB
	}
	s.drainAt[c.id] = 0
	if s.obs != nil {
		s.emit(Event{Kind: EvWBRetire, CPU: c.id, Level: 2, Addr: e.Addr})
	}
	start := max(c.wbFreeB, e.Ready)
	l2line := c.l2.LineAddr(e.Addr)
	port := s.portFor(l2line)
	st := c.l2.State(l2line)
	class := trace.DataClass(e.Tag)
	// The Firefly update broadcast has no directory analogue; on a
	// directory machine the Update page attribute is ignored and every
	// shared write takes the invalidation path.
	updatePage := !s.directoryMode() && s.p.Attrs != nil && s.p.Attrs.Get(e.Addr).Update

	switch {
	case st == coherence.Modified || st == coherence.Exclusive:
		// The line became owned while the entry waited (e.g. a
		// coalesced earlier write allocated it): absorb.
		c.wbFreeB = start + s.p.L2WriteCycles
		if l, okk := c.l2.Peek(l2line); okk {
			l.State = coherence.Modified
		}
		if s.obs != nil {
			s.emit(Event{Kind: EvAbsorb, CPU: c.id, Addr: l2line})
		}
	case st == coherence.Shared && updatePage:
		// Firefly word-update broadcast: remote copies stay valid,
		// memory is written through.
		occ := 2 * port.ControlOccupancy()
		grant := port.Reserve(start, occ, bus.KindUpdate, 4)
		sharers := s.snoopUpdate(c, l2line)
		if l, okk := c.l2.Peek(l2line); okk && !sharers {
			l.State = coherence.Exclusive
		}
		if s.obs != nil {
			s.emit(Event{Kind: EvUpdate, CPU: c.id, Addr: l2line, Sharers: sharers})
		}
		c.wbFreeB = grant + occ
	case st == coherence.Shared:
		// Invalidation-only upgrade (an ownership request at the home
		// node on a directory machine).
		occ := port.ControlOccupancy()
		grant := port.Reserve(start, occ, bus.KindUpgrade, 0)
		s.snoopInvalidate(c, l2line, class)
		if l, okk := c.l2.Peek(l2line); okk {
			l.State = coherence.Modified
		}
		if s.obs != nil {
			s.emit(Event{Kind: EvUpgrade, CPU: c.id, Addr: l2line})
		}
		if s.directoryMode() {
			s.dirSetOwner(c, l2line)
		}
		c.wbFreeB = grant + occ
	default:
		// Write miss: write-allocate with a read-exclusive fill
		// (invalidate protocol) or a fill plus update (update pages).
		snap := s.snapshot(c, l2line)
		var act coherence.Action
		if updatePage {
			act = coherence.WriteMiss(coherence.Update, snap)
		} else {
			act = coherence.WriteMiss(coherence.Invalidate, snap)
		}
		occ := port.LineOccupancy(s.p.L2.LineSize)
		grant := port.Reserve(start, occ, bus.KindOf(act.Bus, true), s.p.L2.LineSize)
		latency := s.p.MemCycles
		if act.CacheToCache {
			latency = s.p.C2CCycles
		}
		if act.RemoteNext == coherence.Invalid {
			s.snoopInvalidate(c, l2line, class)
		} else if snap.RemotePresent {
			// Firefly write miss: after the fill, the written word is
			// broadcast so sharers (and memory) stay current.
			s.snoopUpdate(c, l2line)
			uocc := 2 * port.ControlOccupancy()
			port.Reserve(grant+occ, uocc, bus.KindUpdate, 4)
		}
		s.fillL2(c, l2line, act.Next, e.Block, true)
		_ = latency
		// The split-transaction bus pipelines write-allocate fills:
		// the buffer engine is free again once the bus transfer is
		// done, not when the fill data lands.
		c.wbFreeB = grant + occ + s.p.L2WriteCycles
	}
	return start
}
