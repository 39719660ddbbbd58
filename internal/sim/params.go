// Package sim is the cycle-level simulator of the paper's machine: four
// 200-MHz processors, each with a 16-KB direct-mapped instruction
// cache, a 32-KB direct-mapped write-through primary data cache with
// 16-byte lines, and a 256-KB direct-mapped lockup-free write-back
// unified secondary cache with 32-byte lines; a 4-deep word-wide write
// buffer between the primary and secondary caches and an 8-deep
// 32-byte-wide write buffer between the secondary cache and the bus;
// reads bypass writes; Illinois cache coherence under release
// consistency on an 8-byte-wide 40-MHz split-transaction bus. Without
// contention a processor reads a word in 1, 12 and 51 cycles from the
// primary cache, secondary cache and memory respectively; all
// contention, including cache-port and bus access, is simulated
// (paper Section 2.4).
//
// The simulator consumes one trace.Source per processor and re-enforces
// the synchronization semantics annotated in the trace, so mutual
// exclusion and barrier ordering survive the timing changes the
// optimizations introduce.
package sim

import (
	"fmt"

	"oscachesim/internal/bus"
	"oscachesim/internal/cache"
	"oscachesim/internal/memory"
)

// BlockScheme selects the hardware handling of block-operation
// references (Section 4.2). The software sides of the schemes —
// prefetch instructions, DMA pseudo-references — are chosen by the
// workload generator; the scheme here must match what the trace
// contains.
type BlockScheme uint8

const (
	// BlockCached is the Base machine: block operations use the
	// caches like everything else.
	BlockCached BlockScheme = iota
	// BlockBypass adds line-wide bypass registers beside each cache
	// level; block loads and stores bypass the caches unless the line
	// is already present (Blk_Bypass).
	BlockBypass
	// BlockBypassPref is BlockBypass plus an 8-line prefetch buffer
	// for the source block; destination writes are cached
	// (Blk_ByPref).
	BlockBypassPref
	// BlockDMA performs block operations with the smart
	// secondary-cache controller: the trace carries one OpBlockDMA
	// pseudo-reference per operation and the processor stalls while
	// the bus pipelines the transfer (Blk_Dma).
	BlockDMA
)

// String names the scheme.
func (s BlockScheme) String() string {
	names := [...]string{"cached", "bypass", "bypass+pref", "dma"}
	if int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("BlockScheme(%d)", uint8(s))
}

// CoherenceKind selects the machine's coherence mechanism.
type CoherenceKind uint8

const (
	// CoherenceSnoop is the paper's machine: a single snooping bus
	// running Illinois MESI, with the selective Firefly update
	// optimization available per page. Snooping caps the machine at
	// MaxSnoopCPUs processors.
	CoherenceSnoop CoherenceKind = iota
	// CoherenceDirectory replaces the snooping bus with per-processor
	// home nodes and a full-map directory (invalidation protocol; the
	// per-page Update attribute is ignored). Lifts the CPU bound to
	// MaxDirectoryCPUs.
	CoherenceDirectory
)

// String names the coherence mechanism.
func (k CoherenceKind) String() string {
	switch k {
	case CoherenceSnoop:
		return "snoop"
	case CoherenceDirectory:
		return "directory"
	default:
		return fmt.Sprintf("CoherenceKind(%d)", uint8(k))
	}
}

// ParseCoherence converts a coherence name ("snoop", "directory") to
// its identifier.
func ParseCoherence(name string) (CoherenceKind, error) {
	switch name {
	case "snoop", "mesi", "bus":
		return CoherenceSnoop, nil
	case "directory", "dir":
		return CoherenceDirectory, nil
	default:
		return 0, fmt.Errorf("sim: unknown coherence kind %q (want snoop or directory)", name)
	}
}

// CPU-count ceilings by coherence mechanism. A snooping bus stops
// scaling long before 64 processors electrically, but 64 is where the
// simulator's original interface capped it; the directory machine is
// bounded only by the trace format's uint8 CPU field.
const (
	MaxSnoopCPUs     = 64
	MaxDirectoryCPUs = 256
)

// Params configures the simulated machine.
type Params struct {
	// NumCPUs is the processor count (4 in the paper). The ceiling
	// depends on Coherence: MaxSnoopCPUs or MaxDirectoryCPUs.
	NumCPUs int
	// Coherence selects snooping MESI/Firefly (the default) or the
	// home-node directory protocol.
	Coherence CoherenceKind
	// L1WriteBack makes the primary data cache write-back for lines
	// the local L2 already owns (Exclusive/Modified): such stores
	// complete in one cycle without entering the write buffer. Stores
	// to shared or missing lines still use the write-through path, so
	// coherence decisions stay at L2. False is the paper's pure
	// write-through machine.
	L1WriteBack bool
	// L1I, L1D, L2 are the cache geometries.
	L1I cache.Config
	L1D cache.Config
	L2  cache.Config
	// L1WriteBufDepth is the word-wide L1-to-L2 buffer depth (4).
	L1WriteBufDepth int
	// L2WriteBufDepth is the line-wide L2-to-bus buffer depth (8).
	L2WriteBufDepth int
	// L1HitCycles, L2HitCycles, MemCycles are the uncontended word-read
	// latencies (1, 12, 51).
	L1HitCycles uint64
	L2HitCycles uint64
	MemCycles   uint64
	// C2CCycles is the latency of a cache-to-cache supply.
	C2CCycles uint64
	// L2WriteCycles is the secondary-cache port occupancy of retiring
	// one buffered word write.
	L2WriteCycles uint64
	// Bus is the bus geometry.
	Bus bus.Params
	// MSHREntries bounds outstanding misses per processor (the
	// lockup-free secondary cache).
	MSHREntries int
	// Block selects the block-operation hardware scheme.
	Block BlockScheme
	// PrefBufLines is the Blk_ByPref source prefetch buffer size (8).
	PrefBufLines int
	// DMASetupCycles is the fixed start cost of a DMA block transfer
	// (19 in the paper).
	DMASetupCycles uint64
	// DMACyclesPer8B is the pipelined transfer cost per 8 bytes in
	// CPU cycles (2 bus cycles = 10 in the paper's best case).
	DMACyclesPer8B uint64
	// DMASnoopPenalty is the extra bus time per line found in a cache
	// during a DMA transfer (reads/updates slow the transfer down).
	DMASnoopPenalty uint64
	// Attrs carries the per-page protocol-selection and read-only
	// bits; nil means all pages default (invalidate protocol).
	// Excluded from the wire encoding (cluster compute forwarding):
	// core.Run rederives it from hashed config fields on the worker.
	Attrs *memory.AttrTable `json:"-"`
	// SyncGrantCycles is the hand-off latency of a contended lock or
	// the release of a barrier.
	SyncGrantCycles uint64
}

// DefaultParams returns the paper's Base machine.
func DefaultParams() Params {
	return Params{
		NumCPUs:         4,
		L1I:             cache.Config{Name: "L1I", Size: 16 * 1024, LineSize: 16, Assoc: 1},
		L1D:             cache.Config{Name: "L1D", Size: 32 * 1024, LineSize: 16, Assoc: 1},
		L2:              cache.Config{Name: "L2", Size: 256 * 1024, LineSize: 32, Assoc: 1},
		L1WriteBufDepth: 4,
		L2WriteBufDepth: 8,
		L1HitCycles:     1,
		L2HitCycles:     12,
		MemCycles:       51,
		C2CCycles:       45,
		L2WriteCycles:   2,
		Bus:             bus.DefaultParams(),
		MSHREntries:     8,
		Block:           BlockCached,
		PrefBufLines:    8,
		DMASetupCycles:  19,
		DMACyclesPer8B:  10,
		DMASnoopPenalty: 2,
		SyncGrantCycles: 8,
	}
}

// FieldError reports one invalid machine parameter: which field, the
// offending value, and why it was rejected. Validate returns the
// first violation as a *FieldError so callers (the v1 API decoder,
// the CLIs) can point at the exact knob instead of echoing a blob.
type FieldError struct {
	// Field is the dotted parameter path, e.g. "L1D.LineSize".
	Field string
	// Value is the rejected value, rendered.
	Value string
	// Reason explains the constraint that failed.
	Reason string
}

// Error formats the violation.
func (e *FieldError) Error() string {
	return fmt.Sprintf("sim: %s = %s: %s", e.Field, e.Value, e.Reason)
}

func fieldErr(field string, value any, reason string) error {
	return &FieldError{Field: field, Value: fmt.Sprint(value), Reason: reason}
}

// validateCache checks one cache geometry, attributing each violation
// to the named field.
func validateCache(name string, c cache.Config) error {
	if c.Size == 0 {
		return fieldErr(name+".Size", c.Size, "cache size must be positive")
	}
	if c.LineSize == 0 {
		return fieldErr(name+".LineSize", c.LineSize, "line size must be positive")
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fieldErr(name+".LineSize", c.LineSize, "line size must be a power of two")
	}
	if c.Assoc <= 0 {
		return fieldErr(name+".Assoc", c.Assoc, "associativity must be positive")
	}
	if c.Size%(c.LineSize*uint64(c.Assoc)) != 0 {
		return fieldErr(name+".Size", c.Size,
			fmt.Sprintf("size must be a multiple of line size × associativity (%d×%d)", c.LineSize, c.Assoc))
	}
	sets := c.Size / (c.LineSize * uint64(c.Assoc))
	if sets&(sets-1) != 0 {
		return fieldErr(name+".Assoc", c.Assoc,
			fmt.Sprintf("associativity must divide the cache into a power-of-two set count (got %d sets)", sets))
	}
	return nil
}

// Validate checks the machine description. Violations are returned
// as *FieldError values naming the offending field.
func (p Params) Validate() error {
	if p.Coherence > CoherenceDirectory {
		return fieldErr("Coherence", uint8(p.Coherence), "unknown coherence kind")
	}
	maxCPUs := MaxSnoopCPUs
	if p.Coherence == CoherenceDirectory {
		maxCPUs = MaxDirectoryCPUs
	}
	if p.NumCPUs <= 0 || p.NumCPUs > maxCPUs {
		return fieldErr("NumCPUs", p.NumCPUs,
			fmt.Sprintf("processor count must be in [1, %d] for %s coherence", maxCPUs, p.Coherence))
	}
	for _, nc := range []struct {
		name string
		c    cache.Config
	}{{"L1I", p.L1I}, {"L1D", p.L1D}, {"L2", p.L2}} {
		if err := validateCache(nc.name, nc.c); err != nil {
			return err
		}
		// The mirror above must stay in sync with the cache package's
		// own invariants; a config it accepts must construct.
		if err := nc.c.Validate(); err != nil {
			return fieldErr(nc.name, nc.c, err.Error())
		}
	}
	if p.L2.LineSize < p.L1D.LineSize {
		return fieldErr("L2.LineSize", p.L2.LineSize,
			fmt.Sprintf("secondary line must not be smaller than the primary line (%d)", p.L1D.LineSize))
	}
	if p.L1WriteBufDepth <= 0 {
		return fieldErr("L1WriteBufDepth", p.L1WriteBufDepth, "write buffer depth must be positive")
	}
	if p.L2WriteBufDepth <= 0 {
		return fieldErr("L2WriteBufDepth", p.L2WriteBufDepth, "write buffer depth must be positive")
	}
	if p.L1HitCycles == 0 {
		return fieldErr("L1HitCycles", p.L1HitCycles, "latency must be positive")
	}
	if p.L2HitCycles == 0 {
		return fieldErr("L2HitCycles", p.L2HitCycles, "latency must be positive")
	}
	if p.MemCycles == 0 {
		return fieldErr("MemCycles", p.MemCycles, "latency must be positive")
	}
	if err := p.Bus.Validate(); err != nil {
		return fieldErr("Bus", p.Bus, err.Error())
	}
	if p.MSHREntries <= 0 {
		return fieldErr("MSHREntries", p.MSHREntries, "MSHR entry count must be positive")
	}
	if p.Block == BlockBypassPref && p.PrefBufLines <= 0 {
		return fieldErr("PrefBufLines", p.PrefBufLines, "bypass+pref needs a prefetch buffer")
	}
	return nil
}
