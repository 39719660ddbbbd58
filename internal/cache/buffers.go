package cache

import "fmt"

// WriteBufferEntry is one pending write sitting in a write buffer.
type WriteBufferEntry struct {
	// Addr is the (word- or line-aligned) address being written.
	Addr uint64
	// Ready is the simulator cycle at which the downstream level can
	// start servicing this entry.
	Ready uint64
	// NeedsBus marks entries that must perform a bus transaction
	// (write misses and invalidation signals), which is what makes the
	// L2-to-bus buffer overflow under block operations (Section 4.1.2).
	NeedsBus bool
	// Tag carries the data class of the write (trace.DataClass), used
	// to attribute the coherence misses the write causes on remote
	// processors.
	Tag uint8
	// Block is the block-operation id of the write (0 = none), used
	// to tag write-allocate fills for displacement tracking.
	Block uint32
}

// WriteBuffer is a fixed-capacity FIFO of pending writes. The machine
// has two: a 4-deep word-wide buffer between L1 and L2, and an 8-deep
// 32-byte-wide buffer between L2 and the bus. Reads bypass the buffers
// but must forward from them on an address match (release consistency
// with read-bypass-write, Section 2.4).
//
// Entry storage is allocated once at construction and reused for the
// buffer's whole life: Push/Pop never allocate, which keeps the
// simulator's write path off the heap.
type WriteBuffer struct {
	name     string
	granule  uint64 // match granularity in bytes (word or line)
	granMask uint64 // granule-1, precomputed for the hot Contains path
	entries  []WriteBufferEntry
	cap      int
	// peak occupancy and overflow stalls are reported by the stall
	// accounting of Figure 1.
	peak      int
	overflows uint64
}

// NewWriteBuffer returns an empty buffer of the given capacity that
// matches addresses at the given granule (a power of two).
func NewWriteBuffer(name string, capacity int, granule uint64) *WriteBuffer {
	if capacity <= 0 || granule == 0 || granule&(granule-1) != 0 {
		panic(fmt.Sprintf("cache: bad write buffer %q cap=%d granule=%d", name, capacity, granule))
	}
	return &WriteBuffer{
		name:     name,
		granule:  granule,
		granMask: granule - 1,
		entries:  make([]WriteBufferEntry, 0, capacity),
		cap:      capacity,
	}
}

// Len returns the current occupancy.
func (b *WriteBuffer) Len() int { return len(b.entries) }

// Cap returns the capacity.
func (b *WriteBuffer) Cap() int { return b.cap }

// Full reports whether a Push would overflow.
func (b *WriteBuffer) Full() bool { return len(b.entries) >= b.cap }

// Push appends an entry; the caller must have drained space first.
// Pushing into a full buffer panics — the simulator models the
// processor stall instead of ever doing that.
func (b *WriteBuffer) Push(e WriteBufferEntry) {
	if b.Full() {
		panic(fmt.Sprintf("cache: push into full write buffer %q", b.name))
	}
	e.Addr &^= b.granMask
	b.entries = append(b.entries, e)
	if len(b.entries) > b.peak {
		b.peak = len(b.entries)
	}
}

// Peek returns the oldest entry without removing it.
func (b *WriteBuffer) Peek() (WriteBufferEntry, bool) {
	if len(b.entries) == 0 {
		return WriteBufferEntry{}, false
	}
	return b.entries[0], true
}

// Pop removes and returns the oldest entry.
func (b *WriteBuffer) Pop() (WriteBufferEntry, bool) {
	if len(b.entries) == 0 {
		return WriteBufferEntry{}, false
	}
	e := b.entries[0]
	copy(b.entries, b.entries[1:])
	b.entries = b.entries[:len(b.entries)-1]
	return e, true
}

// Contains reports whether a pending write matches addr at the
// buffer's granule; reads must forward from (or wait for) such entries
// instead of bypassing them.
func (b *WriteBuffer) Contains(addr uint64) bool {
	key := addr &^ b.granMask
	for i := range b.entries {
		if b.entries[i].Addr == key {
			return true
		}
	}
	return false
}

// RecordOverflow counts one processor stall caused by pushing against a
// full buffer.
func (b *WriteBuffer) RecordOverflow() { b.overflows++ }

// Overflows returns how many overflow stalls were recorded.
func (b *WriteBuffer) Overflows() uint64 { return b.overflows }

// Peak returns the high-water occupancy.
func (b *WriteBuffer) Peak() int { return b.peak }

// Reset returns the buffer to its just-constructed state: entries,
// peak occupancy and overflow counts all clear. Pooled buffers are
// reused across runs, so a partial reset would leak one run's stall
// statistics into the next run's Figure 1 accounting.
func (b *WriteBuffer) Reset() {
	b.entries = b.entries[:0]
	b.peak = 0
	b.overflows = 0
}

// MSHR tracks the outstanding misses that make the secondary cache
// lockup-free (Kroft-style). Each entry maps a line address to the
// cycle its fill completes; later requests for the same line merge into
// the existing entry instead of issuing a second bus transaction.
//
// The file is small (8 entries on the paper's machine), so it is stored
// as a flat array scanned linearly: no per-miss map allocation, and
// Retire compacts in place.
type MSHR struct {
	name    string
	cap     int
	pending []mshrEntry
	merges  uint64
}

type mshrEntry struct {
	line  uint64
	ready uint64
}

// NewMSHR returns an MSHR file with the given number of entries.
func NewMSHR(name string, capacity int) *MSHR {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: bad MSHR capacity %d", capacity))
	}
	return &MSHR{name: name, cap: capacity, pending: make([]mshrEntry, 0, capacity)}
}

// Lookup returns the completion cycle of an outstanding miss on line,
// if one exists, and counts the merge.
func (m *MSHR) Lookup(line uint64) (uint64, bool) {
	for i := range m.pending {
		if m.pending[i].line == line {
			m.merges++
			return m.pending[i].ready, true
		}
	}
	return 0, false
}

// Full reports whether all entries are occupied.
func (m *MSHR) Full() bool { return len(m.pending) >= m.cap }

// Add records an outstanding miss on line completing at ready. Adding
// to a full MSHR panics; the simulator stalls instead.
func (m *MSHR) Add(line, ready uint64) {
	if m.Full() {
		panic(fmt.Sprintf("cache: MSHR %q overflow", m.name))
	}
	m.pending = append(m.pending, mshrEntry{line: line, ready: ready})
}

// Retire removes entries that completed at or before now.
func (m *MSHR) Retire(now uint64) {
	kept := m.pending[:0]
	for _, e := range m.pending {
		if e.ready > now {
			kept = append(kept, e)
		}
	}
	m.pending = kept
}

// Len returns the number of outstanding misses.
func (m *MSHR) Len() int { return len(m.pending) }

// Merges returns how many requests merged into outstanding misses.
func (m *MSHR) Merges() uint64 { return m.merges }
