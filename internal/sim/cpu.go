package sim

import (
	"oscachesim/internal/cache"
	"oscachesim/internal/stats"
	"oscachesim/internal/trace"
)

// invalRecord remembers why an L2 line was taken away from this
// processor, for the coherence-miss classification of Table 5.
type invalRecord struct {
	class trace.DataClass
}

// cpuState is one simulated processor with its private hierarchy.
type cpuState struct {
	id  int
	src trace.Source
	// win[pos:n] are the processor's next references, read ahead of
	// execution by one batch read of src (see next).
	pos, n int
	// time is the processor's local clock in CPU cycles.
	time uint64
	done bool
	// blocked marks a processor waiting on a lock or barrier.
	blocked bool

	l1i *cache.Cache
	l1d *cache.Cache
	l2  *cache.Cache

	// l1wb is the word-wide L1-to-L2 write buffer; l2wb is the
	// line-wide L2-to-bus buffer.
	l1wb *cache.WriteBuffer
	l2wb *cache.WriteBuffer
	// wbFreeA/wbFreeB are when the two drain engines (L1WB->L2 and
	// L2WB->bus) next become free.
	wbFreeA uint64
	wbFreeB uint64

	// pending tracks outstanding prefetch fills by L1 line address.
	pending map[uint64]pendingFill
	mshr    *cache.MSHR

	// prefBuf is the Blk_ByPref 8-line source prefetch buffer.
	prefBuf *cache.Cache

	// Bypass line registers (Blk_Bypass): the L1-level source and
	// destination registers and the L2-level pair.
	srcReg1, dstReg1 uint64 // L1-line-aligned addresses, ^0 = empty
	srcReg2, dstReg2 uint64 // L2-line-aligned
	dstDirty         bool   // L2-level dst register holds unflushed data
	dstFlushFree     uint64 // when the posted dst flush engine is free

	// invalBy records, per L2 line, the data class of the remote
	// write that invalidated it here (coherence-miss classification).
	invalBy map[uint64]invalRecord
	// evictedByBlock records, per L1 line, the block operation whose
	// fill displaced it (displacement-miss tracking, Section 4.1.3).
	evictedByBlock map[uint64]uint32
	// bypassed records, per L1 line, the block operation that touched
	// the line while bypassing the caches (reuse tracking).
	bypassed map[uint64]uint32

	// Per-block-operation measurement state (Table 3): distinct lines
	// seen so far in the current op.
	curBlock    uint32
	blkSrcLines map[uint64]bool  // L1-line -> was cached at first touch
	blkDstLines map[uint64]uint8 // L2-line -> 0 absent, 1 owned, 2 shared
	blkBytes    uint64
	blkIsCopy   bool

	refs uint64

	win [refWindow]trace.Ref
}

// refWindow is the number of references one batch read fetches into a
// processor's window. The read-ahead stays within the processor's own
// stream, so it changes no executed reference and no order; what it
// changes is the simulator's own memory traffic. With many interleaved
// per-CPU streams the hardware prefetcher cannot follow them, and a
// reference-at-a-time fetch takes each new trace line as a serial
// demand miss; one copy of 32 refs (1280 B, ~20 cache lines) puts
// those misses in flight together. Windows of 16 and 64 measured
// within noise of 32 on the 64-CPU machine (EXPERIMENTS.md, "Reference
// delivery").
const refWindow = 32

// next returns the processor's next reference, or nil at the end of
// its stream. The reference is executed in place: the pointer addresses
// c's window and stays valid only until c's next call to next, which
// may refill the window. next is small enough to inline into step; the
// batch read lives out of line in refill.
func (c *cpuState) next() *trace.Ref {
	if c.pos == c.n {
		return c.refill()
	}
	c.pos++
	return &c.win[c.pos-1]
}

// refill reads the processor's next batch into its window and returns
// the batch's first reference (consumed), or nil when the stream is
// exhausted.
func (c *cpuState) refill() *trace.Ref {
	c.pos, c.n = 0, c.src.Read(c.win[:])
	if c.n == 0 {
		return nil
	}
	c.pos = 1
	return &c.win[0]
}

// pendingFill is an in-flight prefetch.
type pendingFill struct {
	ready uint64
	block uint32
	// toPrefBuf routes the fill to the Blk_ByPref prefetch buffer
	// instead of the caches.
	toPrefBuf bool
}

const emptyReg = ^uint64(0)

func newCPU(id int, p Params, src trace.Source) *cpuState {
	c := &cpuState{
		id:             id,
		src:            src,
		l1i:            cache.New(p.L1I),
		l1d:            cache.New(p.L1D),
		l2:             cache.New(p.L2),
		l1wb:           cache.NewWriteBuffer("l1wb", p.L1WriteBufDepth, 4),
		l2wb:           cache.NewWriteBuffer("l2wb", p.L2WriteBufDepth, p.L2.LineSize),
		pending:        make(map[uint64]pendingFill),
		mshr:           cache.NewMSHR("l2mshr", p.MSHREntries),
		srcReg1:        emptyReg,
		dstReg1:        emptyReg,
		srcReg2:        emptyReg,
		dstReg2:        emptyReg,
		invalBy:        make(map[uint64]invalRecord),
		evictedByBlock: make(map[uint64]uint32),
		bypassed:       make(map[uint64]uint32),
	}
	if p.Block == BlockBypassPref {
		c.prefBuf = cache.New(cache.Config{
			Name:     "prefbuf",
			Size:     uint64(p.PrefBufLines) * p.L1D.LineSize,
			LineSize: p.L1D.LineSize,
			Assoc:    p.PrefBufLines,
		})
	}
	return c
}

// modeOf converts a trace kind to a stats mode index.
func modeOf(k trace.Kind) int {
	if int(k) >= stats.NumModes {
		return int(trace.KindOS)
	}
	return int(k)
}
