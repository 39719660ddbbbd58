package kernel

import (
	"math/rand"

	"oscachesim/internal/memory"
	"oscachesim/internal/trace"
)

// BlockOp describes one block operation request (Section 4): a copy
// (Src != 0) or a zero fill (Src == 0) of Size bytes into Dst.
type BlockOp struct {
	Src, Dst uint64
	Size     uint64
	// SrcClass/DstClass annotate what kind of data the blocks hold
	// (buffer-cache pages, user pages, ...).
	SrcClass trace.DataClass
	DstClass trace.DataClass
	// WrittenLater records whether the source or destination block is
	// written after the operation in this workload. Copies whose
	// blocks are never written again are the read-only copies of
	// Table 4, which deferred copying elides entirely.
	WrittenLater bool
}

// IsCopy reports whether the operation moves data (vs zeroing).
func (op BlockOp) IsCopy() bool { return op.Src != 0 }

// wordsPerLine is how many machine words one primary-cache line holds.
const blockLine = 16
const wordsPerLine = blockLine / memory.WordSize

// Block emits one block operation under the kernel's configured
// scheme and returns its block id. The reference stream differs per
// scheme exactly as the paper's systems do:
//
//   - default: an unrolled word-copy loop through the caches;
//   - BlockPrefetch: the same loop with software-pipelined prefetches
//     of the source block (prefetch instructions add ~5% to the
//     block-operation instruction count, Section 4.1.1);
//   - BlockDMA: a short setup sequence plus one OpBlockDMA
//     pseudo-reference — the processor-side loop disappears;
//   - DeferredCopy (sub-page copies only): the copy is remapped, not
//     performed; read-only copies never happen, written ones pay a
//     trap plus the copy at first write.
func (k *Kernel) Block(e *Emitter, rng *rand.Rand, op BlockOp) uint32 {
	if op.Size == 0 {
		return 0
	}
	if op.IsCopy() {
		k.dcopy.BlockCopies++
		if op.Size < memory.PageSize {
			k.dcopy.SmallCopies++
			if !op.WrittenLater {
				k.dcopy.ReadOnlySmallCopies++
			}
			if k.Opt.DeferredCopy {
				return k.deferredCopy(e, rng, op)
			}
		}
	}
	if k.Opt.BlockDMA {
		return k.blockDMA(e, op)
	}
	return k.blockLoop(e, rng, op)
}

// blockLoop emits the processor copy/zero loop.
func (k *Kernel) blockLoop(e *Emitter, rng *rand.Rand, op BlockOp) uint32 {
	id := k.nextBlockID()
	pc := codeBlockOps + uint64(pad(rng, 8))*4

	// Loop prologue.
	pc = e.code(pc, 6, trace.KindOS, id, 0)
	loopTop := pc

	lines := (op.Size + blockLine - 1) / blockLine
	dist := uint64(k.Opt.BlockPrefDist)
	if k.Opt.BlockPrefetch && op.IsCopy() {
		// Prolog of the software pipeline: prefetch the first lines.
		for i := uint64(0); i < dist && i < lines; i++ {
			e.prefetch(op.Src+i*blockLine, id, 0)
		}
	}

	copying := op.IsCopy()
	for i := uint64(0); i < lines; i++ {
		// One line of the loop, written as one block: the pipelined
		// prefetch, two loop instructions, then per word the source
		// read (copies only) and the destination write, with one more
		// instruction after every second word.
		prefetch := k.Opt.BlockPrefetch && copying && i+dist < lines
		words := min(wordsPerLine, int((op.Size-i*blockLine+memory.WordSize-1)/memory.WordSize))
		line := e.Grow(b2i(prefetch) + 2 + words*(1+b2i(copying)) + words/2)
		j := 0
		if prefetch {
			line[j] = trace.Ref{Addr: op.Src + (i+dist)*blockLine, CPU: e.CPU, Op: trace.OpPrefetch, Kind: trace.KindOS, Block: id}
			j++
		}
		// The loop body re-executes the same code.
		instr := trace.Ref{Addr: loopTop, CPU: e.CPU, Op: trace.OpInstr, Kind: trace.KindOS, Block: id}
		for range 2 {
			line[j] = instr
			instr.Addr += 4
			j++
		}
		for w := 0; w < words; w++ {
			off := i*blockLine + uint64(w*memory.WordSize)
			if copying {
				line[j] = trace.Ref{
					Addr: op.Src + off, CPU: e.CPU, Op: trace.OpRead, Kind: trace.KindOS,
					Class: op.SrcClass, Block: id, Role: trace.BlockSrc, Len: uint32(op.Size),
				}
				j++
			}
			line[j] = trace.Ref{
				Addr: op.Dst + off, CPU: e.CPU, Op: trace.OpWrite, Kind: trace.KindOS,
				Class: op.DstClass, Block: id, Role: trace.BlockDst, Len: uint32(op.Size),
			}
			j++
			if w%2 == 1 {
				line[j] = instr
				instr.Addr += 4
				j++
			}
		}
		pc = instr.Addr
	}
	// Epilogue.
	e.code(pc, 4, trace.KindOS, id, 0)
	return id
}

// blockDMA emits the Blk_Dma dispatch: a short setup sequence and the
// DMA pseudo-reference that stalls the processor while the bus
// pipelines the transfer.
func (k *Kernel) blockDMA(e *Emitter, op BlockOp) uint32 {
	id := k.nextBlockID()
	e.code(codeBlockOps+0x200, 12, trace.KindOS, id, 0)
	ref := trace.Ref{
		Op: trace.OpBlockDMA, Kind: trace.KindOS, Block: id,
		Len: uint32(op.Size),
	}
	if op.IsCopy() {
		ref.Addr, ref.Aux = op.Src, op.Dst
	} else {
		ref.Addr = op.Dst
	}
	e.Emit(ref)
	return id
}

// deferredCopy remaps instead of copying. Read-only copies are elided
// for good; copies written later pay a protection trap plus the real
// copy at first-write time (emitted immediately after the trap here —
// the first write follows the remap closely in these workloads).
func (k *Kernel) deferredCopy(e *Emitter, rng *rand.Rand, op BlockOp) uint32 {
	k.dcopy.DeferredElided++
	// Remap overhead: mark the pages read-only, adjust mappings.
	pc := e.code(codeBlockOps+0x400, 18, trace.KindOS, 0, 0)
	for p := uint64(0); p < uint64(memory.PagesIn(op.Dst, op.Size)); p++ {
		e.write(PTEAddr(int(op.Dst/memory.PageSize), int(p)), trace.ClassPageTable)
	}
	if !op.WrittenLater {
		return 0
	}
	// First write: protection trap, then the real copy.
	k.dcopy.DeferredPerformed++
	e.code(pc, 30, trace.KindOS, 0, 0)
	return k.blockLoopOrDMA(e, rng, op)
}

// blockLoopOrDMA performs the forced copy under the machine's block
// scheme.
func (k *Kernel) blockLoopOrDMA(e *Emitter, rng *rand.Rand, op BlockOp) uint32 {
	if k.Opt.BlockDMA {
		return k.blockDMA(e, op)
	}
	return k.blockLoop(e, rng, op)
}

// Warm touches a prefix of [base, base+size) covering roughly frac of
// its lines, to model the block having been used recently (reads fill
// the caches shared; writes leave the lines dirty in L2 — the "already
// cached" and "dirty or exclusive" populations of Table 3). The warm
// region is contiguous, as real partial use is: the cold remainder of
// the block stays fully uncached at every level, which is what makes
// the cold side of a block operation pay full memory latency.
func (k *Kernel) Warm(e *Emitter, rng *rand.Rand, base, size uint64, frac float64, write bool, kind trace.Kind, class trace.DataClass) {
	if frac <= 0 {
		return
	}
	warm := uint64(float64(size)*frac) &^ (blockLine - 1)
	// Jitter the boundary by a line or two so populations are not
	// perfectly deterministic.
	warm += uint64(pad(rng, 3)) * blockLine
	if warm > size {
		warm = size
	}
	op := trace.OpRead
	if write {
		op = trace.OpWrite
	}
	r := trace.Ref{Addr: base, CPU: e.CPU, Op: op, Kind: kind, Class: class}
	refs := e.Grow(int((warm + blockLine - 1) / blockLine))
	for i := range refs {
		refs[i] = r
		r.Addr += blockLine
	}
}
