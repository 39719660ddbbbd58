// Package trace defines the memory-reference trace model that the whole
// simulator consumes: a typed stream of instruction and data references
// annotated with the information the paper's hardware performance monitor
// and kernel instrumentation provided (executing mode, data-structure
// class, block-operation membership, synchronization events, miss
// hot-spot identity).
//
// The simulator in internal/sim only ever sees values of type Ref, so any
// producer — a synthetic workload generator, a file reader, or a test —
// can drive it.
package trace

import "fmt"

// Kind tells which execution mode issued a reference. The paper's
// analysis splits everything into user, operating-system and idle time.
type Kind uint8

const (
	// KindUser marks references issued by application code.
	KindUser Kind = iota
	// KindOS marks references issued by the operating system.
	KindOS
	// KindIdle marks references issued by the idle loop.
	KindIdle
)

// String returns the conventional short name of the kind.
func (k Kind) String() string {
	switch k {
	case KindUser:
		return "user"
	case KindOS:
		return "os"
	case KindIdle:
		return "idle"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Op is the operation a reference performs.
type Op uint8

const (
	// OpInstr is an instruction fetch.
	OpInstr Op = iota
	// OpRead is a data read (load).
	OpRead
	// OpWrite is a data write (store).
	OpWrite
	// OpPrefetch is a non-binding software prefetch of a data line.
	OpPrefetch
	// OpBlockDMA is a pseudo-reference describing an entire block
	// operation executed by the DMA-like smart cache controller of the
	// Blk_Dma scheme: the processor stalls while the bus pipelines the
	// transfer. Aux holds the destination address (0 for a block zero)
	// and Len the block size in bytes.
	OpBlockDMA
)

// String returns the conventional short name of the operation.
func (o Op) String() string {
	switch o {
	case OpInstr:
		return "instr"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpPrefetch:
		return "prefetch"
	case OpBlockDMA:
		return "blockdma"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// IsData reports whether the operation touches the data cache hierarchy.
func (o Op) IsData() bool { return o != OpInstr }

// DataClass identifies the kernel (or user) data structure a reference
// touches. The paper's instrumentation mapped nearly every data access
// back to a source-level data structure; the coherence-miss breakdown of
// its Table 5 and the optimization targets of Sections 5 and 6 are
// defined in terms of these classes.
type DataClass uint8

const (
	// ClassGeneric is ordinary data with no special role.
	ClassGeneric DataClass = iota
	// ClassUserData is application data (matrices, compiler heaps...).
	ClassUserData
	// ClassBarrier is a barrier synchronization variable.
	ClassBarrier
	// ClassCounter is an infrequently-communicated variable: an event
	// counter updated frequently by many processors but read rarely
	// (e.g. vmmeter.v_intr).
	ClassCounter
	// ClassFreqShared is a frequently-shared variable with (partial)
	// producer-consumer behaviour (e.g. freelist.size, cpievents).
	ClassFreqShared
	// ClassLock is a kernel lock word.
	ClassLock
	// ClassPageTable is a page-table entry.
	ClassPageTable
	// ClassProcTable is a process-table entry.
	ClassProcTable
	// ClassRunQueue is scheduler run-queue state.
	ClassRunQueue
	// ClassBufferCache is a file-system buffer-cache header or page.
	ClassBufferCache
	// ClassTimer is the high-resolution timer / callout structures.
	ClassTimer
	// ClassSysent is the system-call dispatch table.
	ClassSysent
	// ClassFreeList is the physical free-page list.
	ClassFreeList
	// ClassStack is kernel-stack data.
	ClassStack
)

// String returns the short name of the data class.
func (c DataClass) String() string {
	names := [...]string{
		ClassGeneric:     "generic",
		ClassUserData:    "userdata",
		ClassBarrier:     "barrier",
		ClassCounter:     "counter",
		ClassFreqShared:  "freqshared",
		ClassLock:        "lock",
		ClassPageTable:   "pagetable",
		ClassProcTable:   "proctable",
		ClassRunQueue:    "runqueue",
		ClassBufferCache: "buffercache",
		ClassTimer:       "timer",
		ClassSysent:      "sysent",
		ClassFreeList:    "freelist",
		ClassStack:       "stack",
	}
	if int(c) < len(names) {
		return names[c]
	}
	return fmt.Sprintf("DataClass(%d)", uint8(c))
}

// BlockRole says which side of a block operation a reference belongs to.
type BlockRole uint8

const (
	// BlockNone means the reference is not part of a block operation.
	BlockNone BlockRole = iota
	// BlockSrc is a read of the source block.
	BlockSrc
	// BlockDst is a write of the destination block.
	BlockDst
)

// SyncOp marks synchronization semantics carried by a reference. The
// simulator re-enforces these at simulation time so that mutual
// exclusion and barrier semantics survive the timing changes the
// optimizations introduce (paper Section 2.2).
type SyncOp uint8

const (
	// SyncNone is an ordinary reference.
	SyncNone SyncOp = iota
	// SyncLockAcquire acquires the lock identified by SyncID.
	SyncLockAcquire
	// SyncLockRelease releases the lock identified by SyncID.
	SyncLockRelease
	// SyncBarrier arrives at the barrier identified by SyncID; the
	// processor resumes when all participants have arrived. The low
	// byte of the participant count travels in Len.
	SyncBarrier
)

// Ref is one traced reference. The zero value is a harmless instruction
// fetch of address zero by CPU 0.
type Ref struct {
	// Addr is the physical address accessed. For OpBlockDMA it is the
	// source block address (or the destination for a block zero).
	Addr uint64
	// Aux carries the destination address of an OpBlockDMA copy
	// (zero for a block zero).
	Aux uint64
	// Len is the access size in bytes; for OpBlockDMA it is the block
	// length, for SyncBarrier the participant count.
	Len uint32
	// Block is the block-operation identity this reference belongs to
	// (0 = none). Consecutive block operations on overlapping data —
	// the fork-chain pattern of Section 4.1.3 — get distinct ids.
	Block uint32
	// SyncID identifies the lock or barrier for synchronizing refs.
	SyncID uint32
	// Spot is the miss-hot-spot identity (0 = none) used by the
	// Section 6 prefetching study.
	Spot uint16
	// CPU is the issuing processor.
	CPU uint8
	// Op is the operation performed.
	Op Op
	// Kind is the execution mode.
	Kind Kind
	// Class is the data-structure class accessed.
	Class DataClass
	// Role is the block-operation role of the reference.
	Role BlockRole
	// Sync carries synchronization semantics.
	Sync SyncOp
}

// Line returns the address of the cache line of size lineSize (a power
// of two) containing the reference's address.
func (r Ref) Line(lineSize uint64) uint64 { return r.Addr &^ (lineSize - 1) }

// String renders a compact human-readable form, used by tracedump and
// in test failure messages.
func (r Ref) String() string {
	s := fmt.Sprintf("cpu%d %s %s %#x", r.CPU, r.Kind, r.Op, r.Addr)
	if r.Op == OpBlockDMA {
		s += fmt.Sprintf("->%#x len=%d", r.Aux, r.Len)
	}
	if r.Block != 0 {
		s += fmt.Sprintf(" blk=%d/%v", r.Block, r.Role)
	}
	if r.Sync != SyncNone {
		s += fmt.Sprintf(" sync=%d id=%d", r.Sync, r.SyncID)
	}
	if r.Spot != 0 {
		s += fmt.Sprintf(" spot=%d", r.Spot)
	}
	if r.Class != ClassGeneric {
		s += " " + r.Class.String()
	}
	return s
}

// Source produces a stream of references for one processor. Read
// copies the stream's next references into a prefix of dst, which must
// not be empty, and returns how many it copied: at least one while the
// stream has data left, 0 only at its end (and on every later call).
// Sources need not be safe for concurrent use.
//
// A batch read is how the simulator fetches references: one copy of
// many consecutive refs lets their memory loads overlap, where a
// reference at a time leaves each trace-line miss on the critical path.
type Source interface {
	Read(dst []Ref) int
}

// SliceSource adapts an in-memory slice of references to the Source
// interface.
type SliceSource struct {
	refs []Ref
	pos  int
}

// NewSliceSource returns a Source that replays refs in order.
func NewSliceSource(refs []Ref) *SliceSource { return &SliceSource{refs: refs} }

// Read implements Source.
func (s *SliceSource) Read(dst []Ref) int {
	n := copy(dst, s.refs[s.pos:])
	s.pos += n
	return n
}

// SplitByCPU reads a trace file to its end and partitions its merged
// reference stream into per-processor streams, preserving each
// processor's program order. It is how a trace file captured as one
// stream (cmd/tracedump writes one) is fed back to the per-processor
// simulator. A read error of the file, or a reference issued by a
// processor the machine does not have, is returned instead of a partial
// split.
func SplitByCPU(src *FileSource, numCPUs int) ([][]Ref, error) {
	per := make([][]Ref, numCPUs)
	var buf [256]Ref
	for n := src.Read(buf[:]); n > 0; n = src.Read(buf[:]) {
		for _, r := range buf[:n] {
			if int(r.CPU) >= numCPUs {
				return nil, fmt.Errorf("trace: reference issued by cpu %d, but the machine has %d processors", r.CPU, numCPUs)
			}
			per[r.CPU] = append(per[r.CPU], r)
		}
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	return per, nil
}
