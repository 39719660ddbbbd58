// Package monitor models the hardware performance monitor and the
// escape-reference instrumentation of the paper's Sections 2.1-2.2.
//
// The original setup attached one hardware probe to each of the four
// processors. A probe captured every reference that missed the
// processor's primary instruction cache — which means instruction
// fetches that hit in the 16-KB L1I were invisible. To reconstruct the
// full instruction stream anyway, the authors instrumented every basic
// block with an "escape" load: a data read of an odd address in the
// operating-system code segment encoding the basic block's identity
// (real instruction fetches are even-aligned, so escapes are
// unambiguous). Each probe buffered about a million references; when a
// buffer neared filling, a non-maskable interrupt halted all
// processors within a few instructions, a workstation drained the
// buffers, and the processors were restarted — giving an unbounded
// continuous trace at the cost of periodic halts.
//
// This package reproduces that pipeline in simulation:
//
//   - Instrument rewrites a reference stream the way the modified
//     kernel was rewritten: basic blocks get an escape load, and the
//     instruction fetches themselves are dropped (the probe cannot see
//     them);
//   - Probe models the per-processor trace buffer and its
//     fill/interrupt/drain cycle;
//   - Reconstruct rebuilds the full instruction+data stream from the
//     captured escapes and a basic-block table, which is the analysis
//     the authors ran before feeding traces to their simulator.
//
// The round-trip property — Reconstruct(Capture(Instrument(t))) equals
// t up to the documented instrumentation overhead — is what makes the
// monitored traces trustworthy inputs for the study.
package monitor

import (
	"fmt"

	"oscachesim/internal/trace"
)

// EscapeBase is the odd-address window inside the kernel code segment
// used for escape loads. Escape address = EscapeBase + 2*blockID + 1,
// which is always odd and therefore distinguishable from real
// (even-aligned) instruction fetches.
const EscapeBase uint64 = 0x000f_0000

// EscapeAddr returns the escape-load address encoding a basic block.
func EscapeAddr(blockID uint32) uint64 { return EscapeBase + uint64(blockID)*2 + 1 }

// IsEscape reports whether an address is an escape load and decodes
// the basic-block id.
func IsEscape(addr uint64) (uint32, bool) {
	if addr < EscapeBase || addr&1 == 0 {
		return 0, false
	}
	id := (addr - EscapeBase - 1) / 2
	if id > 1<<30 {
		return 0, false
	}
	return uint32(id), true
}

// BlockTable maps basic-block identities to their instruction fetch
// sequences, as the authors' instrumentation records did. It is built
// during Instrument and consumed during Reconstruct.
type BlockTable struct {
	blocks map[uint32][]trace.Ref
	// index finds a block id for an instruction run signature, so
	// repeated executions of the same block share one id.
	index  map[string]uint32
	nextID uint32
}

// NewBlockTable returns an empty table.
func NewBlockTable() *BlockTable {
	return &BlockTable{
		blocks: make(map[uint32][]trace.Ref),
		index:  make(map[string]uint32),
	}
}

// Blocks returns the number of distinct basic blocks recorded.
func (t *BlockTable) Blocks() int { return len(t.blocks) }

// intern returns the id for an instruction run, creating it if new.
func (t *BlockTable) intern(run []trace.Ref) uint32 {
	key := runKey(run)
	if id, ok := t.index[key]; ok {
		return id
	}
	t.nextID++
	id := t.nextID
	t.index[key] = id
	block := make([]trace.Ref, len(run))
	copy(block, run)
	t.blocks[id] = block
	return id
}

// Lookup returns the instruction refs of a block.
func (t *BlockTable) Lookup(id uint32) ([]trace.Ref, bool) {
	b, ok := t.blocks[id]
	return b, ok
}

// runKey builds a signature for an instruction run. Address sequence
// and tags determine identity; CPU does not (the same kernel block
// runs on every processor).
func runKey(run []trace.Ref) string {
	k := make([]byte, 0, len(run)*12)
	for _, r := range run {
		k = append(k,
			byte(r.Addr), byte(r.Addr>>8), byte(r.Addr>>16), byte(r.Addr>>24), byte(r.Addr>>32),
			byte(r.Kind), byte(r.Spot), byte(r.Spot>>8),
			byte(r.Block), byte(r.Block>>8), byte(r.Block>>16), byte(r.Block>>24))
	}
	return string(k)
}

// InstrumentStats reports the cost of instrumentation.
type InstrumentStats struct {
	// Instrs is the original instruction count.
	Instrs int
	// Escapes is the number of escape loads inserted — one per basic
	// block execution. The paper measured the instrumentation growing
	// the code by 30.1% on average.
	Escapes int
	// DataRefs is the number of data references passed through.
	DataRefs int
}

// Overhead returns the instruction-count overhead fraction of the
// instrumentation (escapes are executed instructions too).
func (s InstrumentStats) Overhead() float64 {
	if s.Instrs == 0 {
		return 0
	}
	return float64(s.Escapes) / float64(s.Instrs)
}

// Instrument rewrites one processor's reference stream the way the
// instrumented kernel executed: each maximal run of consecutive
// instruction fetches (a basic block execution) is replaced by an
// escape load naming the block, followed by the stream's data
// references. The instruction fetches disappear — the probe cannot see
// L1I hits — but the escape plus the block table preserve them.
func Instrument(refs []trace.Ref, table *BlockTable) ([]trace.Ref, InstrumentStats) {
	var out []trace.Ref
	var stats InstrumentStats
	var run []trace.Ref
	flush := func() {
		if len(run) == 0 {
			return
		}
		id := table.intern(run)
		esc := trace.Ref{
			Addr:  EscapeAddr(id),
			CPU:   run[0].CPU,
			Op:    trace.OpRead,
			Kind:  run[0].Kind,
			Class: trace.ClassGeneric,
		}
		out = append(out, esc)
		stats.Escapes++
		stats.Instrs += len(run)
		run = run[:0]
	}
	for _, r := range refs {
		if r.Op == trace.OpInstr {
			run = append(run, r)
			continue
		}
		flush()
		out = append(out, r)
		stats.DataRefs++
	}
	flush()
	return out, stats
}

// InstrumentKeepInstrs rewrites a stream the way the instrumented
// kernel actually *executed* (as opposed to what the probe saw):
// every basic block gains its escape load but the instruction fetches
// remain, since the real processor still runs them. Simulating this
// stream against the original quantifies the instrumentation
// perturbation the authors checked for in Section 2.2.
func InstrumentKeepInstrs(refs []trace.Ref, table *BlockTable) ([]trace.Ref, InstrumentStats) {
	var out []trace.Ref
	var stats InstrumentStats
	var run []trace.Ref
	flush := func() {
		if len(run) == 0 {
			return
		}
		id := table.intern(run)
		out = append(out, trace.Ref{
			Addr:  EscapeAddr(id),
			CPU:   run[0].CPU,
			Op:    trace.OpRead,
			Kind:  run[0].Kind,
			Class: trace.ClassGeneric,
		})
		out = append(out, run...)
		stats.Escapes++
		stats.Instrs += len(run)
		run = run[:0]
	}
	for _, r := range refs {
		if r.Op == trace.OpInstr {
			run = append(run, r)
			continue
		}
		flush()
		out = append(out, r)
		stats.DataRefs++
	}
	flush()
	return out, stats
}

// Record is one captured probe entry: the 32-bit address, a 20-bit
// timestamp, and the read/write bit of the original hardware format.
type Record struct {
	Addr  uint64
	Time  uint32 // 20-bit wrapping timestamp
	Write bool
	Ref   trace.Ref // full reference, carried for reconstruction
}

// Probe is one per-processor trace buffer.
type Probe struct {
	capacity  int
	highWater int
	buf       []Record
	// Dumps counts buffer-drain interrupts; HaltedRecords counts
	// records captured across all dump cycles.
	Dumps         int
	TotalCaptured int
	clock         uint32
}

// NewProbe returns a probe with the given buffer capacity; the
// high-water interrupt fires at 15/16 of capacity, mirroring the
// "near filling" trigger.
func NewProbe(capacity int) *Probe {
	if capacity <= 0 {
		panic(fmt.Sprintf("monitor: bad probe capacity %d", capacity))
	}
	return &Probe{capacity: capacity, highWater: capacity - capacity/16}
}

// Capture appends one reference and reports whether the buffer has
// reached its high-water mark (the NMI condition).
func (p *Probe) Capture(r trace.Ref) (interrupt bool) {
	p.clock = (p.clock + 1) & 0xFFFFF
	p.buf = append(p.buf, Record{
		Addr:  r.Addr,
		Time:  p.clock,
		Write: r.Op == trace.OpWrite,
		Ref:   r,
	})
	p.TotalCaptured++
	return len(p.buf) >= p.highWater
}

// Drain empties the buffer, returning the captured records — the
// workstation dump of the original setup.
func (p *Probe) Drain() []Record {
	out := p.buf
	p.buf = nil
	p.Dumps++
	return out
}

// Len returns the current buffer occupancy.
func (p *Probe) Len() int { return len(p.buf) }

// CaptureSession drives a set of per-processor streams through probes
// with the halt/drain/restart protocol: when any probe hits its
// high-water mark, every processor stops (within a few instructions on
// the real machine) and all buffers drain. The returned per-CPU record
// streams are continuous — the protocol's whole point.
func CaptureSession(perCPU [][]trace.Ref, capacity int) ([][]Record, []*Probe) {
	probes := make([]*Probe, len(perCPU))
	for i := range probes {
		probes[i] = NewProbe(capacity)
	}
	out := make([][]Record, len(perCPU))
	pos := make([]int, len(perCPU))
	for {
		done := true
		interrupt := false
		// Round-robin capture approximates the processors running
		// concurrently between dumps.
		for c, refs := range perCPU {
			if pos[c] >= len(refs) {
				continue
			}
			done = false
			if probes[c].Capture(refs[pos[c]]) {
				interrupt = true
			}
			pos[c]++
		}
		if interrupt || done {
			for c := range probes {
				if probes[c].Len() > 0 {
					out[c] = append(out[c], probes[c].Drain()...)
				}
			}
		}
		if done {
			return out, probes
		}
	}
}

// Reconstruct rebuilds the full reference stream of one processor from
// its captured records: escape loads expand back into the basic
// block's instruction fetches (re-stamped with the capturing CPU), and
// every other record passes through.
func Reconstruct(records []Record, table *BlockTable) ([]trace.Ref, error) {
	var out []trace.Ref
	for _, rec := range records {
		if id, ok := IsEscape(rec.Addr); ok && rec.Ref.Op == trace.OpRead {
			block, found := table.Lookup(id)
			if !found {
				return nil, fmt.Errorf("monitor: escape names unknown block %d", id)
			}
			for _, ins := range block {
				ins.CPU = rec.Ref.CPU
				out = append(out, ins)
			}
			continue
		}
		out = append(out, rec.Ref)
	}
	return out, nil
}
