package coherence

// Directory-based coherence: the invalidation protocol of a
// distributed-directory machine (DASH-style). Memory lines are
// interleaved across per-processor home nodes (see
// memory.HomeMap); each home keeps a DirEntry per cached line — a
// full-map sharer vector plus the identity of the one processor, if
// any, holding the line Exclusive or Modified. As with the snooping
// tables above, this file is pure decision logic: the simulator owns
// the directory storage and the cache-line arrays and applies the
// returned actions.
//
// The directory protocol is invalidation-only: the Firefly selective
// update optimization is a broadcast technique and has no efficient
// directory analogue, so the per-page Update attribute is ignored
// when a machine selects CoherenceDirectory.

import "math/bits"

// NoOwner marks a DirEntry with no Exclusive/Modified holder.
const NoOwner = -1

// sharerWords sizes SharerSet for 256 processors, the trace format's
// CPU ceiling.
const sharerWords = 4

// SharerSet is a full-map bit vector of processor ids holding a line.
// The zero value is empty.
type SharerSet struct {
	bits [sharerWords]uint64
}

// Add records processor i as a holder.
func (s *SharerSet) Add(i int) { s.bits[i>>6] |= 1 << (uint(i) & 63) }

// Remove clears processor i.
func (s *SharerSet) Remove(i int) { s.bits[i>>6] &^= 1 << (uint(i) & 63) }

// Contains reports whether processor i holds the line.
func (s *SharerSet) Contains(i int) bool { return s.bits[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count returns the number of holders.
func (s *SharerSet) Count() int {
	n := 0
	for _, w := range s.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether no processor holds the line.
func (s *SharerSet) Empty() bool {
	for _, w := range s.bits {
		if w != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for each holder in ascending processor order. fn
// may mutate a different SharerSet; mutating s itself during
// iteration is not supported (iterate a copy instead).
func (s *SharerSet) ForEach(fn func(i int)) {
	for wi, w := range s.bits {
		for ; w != 0; w &= w - 1 {
			fn(wi*64 + bits.TrailingZeros64(w))
		}
	}
}

// Members returns the holders in ascending order (nil when empty).
func (s *SharerSet) Members() []int {
	if s.Empty() {
		return nil
	}
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// DirEntry is one line's record at its home node: the full sharer
// vector (which includes the owner, when there is one) and the owner
// itself. Owner tracks the Exclusive/Modified holder; the silent
// E->M upgrade needs no directory transaction because ownership is
// already recorded. EmptyDirEntry is the state of an uncached line —
// the zero value is NOT valid because Owner 0 names processor 0.
type DirEntry struct {
	Owner   int
	Sharers SharerSet
}

// EmptyDirEntry returns the record of an uncached line.
func EmptyDirEntry() DirEntry { return DirEntry{Owner: NoOwner} }

// RemoteHolders reports whether any processor other than req holds
// the line.
func (e *DirEntry) RemoteHolders(req int) bool {
	n := e.Sharers.Count()
	if e.Sharers.Contains(req) {
		n--
	}
	return n > 0
}

// DirAction is the outcome of a directory decision at the home node.
type DirAction struct {
	// Next is the requesting cache's resulting line state.
	Next State
	// OwnerSupply: the current owner's cache supplies the data
	// (cache-to-cache through the home, the three-hop path).
	OwnerSupply bool
	// MemoryWrite: the owner's dirty copy is reflected to memory as
	// part of the transaction.
	MemoryWrite bool
	// Invalidate: every holder other than the requester must
	// invalidate its copy.
	Invalidate bool
	// Downgrade: the owner (if any) drops to Shared, keeping its
	// copy.
	Downgrade bool
}

// DirReadMiss returns the action for a read miss arriving at the
// home node. ownerDirty reports the owner's cache state (Modified or
// not); it is meaningful only when the entry has a remote owner.
func DirReadMiss(e DirEntry, req int, ownerDirty bool) DirAction {
	a := DirAction{Next: Exclusive}
	if e.RemoteHolders(req) {
		a.Next = Shared
		if e.Owner != NoOwner && e.Owner != req {
			a.OwnerSupply = true
			a.Downgrade = true
			a.MemoryWrite = ownerDirty
		}
	}
	return a
}

// ApplyFill records req receiving the line in state next.
func (e *DirEntry) ApplyFill(req int, next State) {
	e.Sharers.Add(req)
	switch next {
	case Exclusive, Modified:
		e.Owner = req
	default:
		if e.Owner == req {
			e.Owner = NoOwner
		}
	}
}

// ApplyDowngrade records the owner dropping to Shared (it keeps its
// copy; memory is now current).
func (e *DirEntry) ApplyDowngrade() { e.Owner = NoOwner }

// ApplyInvalidate records processor i losing its copy.
func (e *DirEntry) ApplyInvalidate(i int) {
	e.Sharers.Remove(i)
	if e.Owner == i {
		e.Owner = NoOwner
	}
}

// ApplyEvict records processor i silently dropping its copy (clean
// replacement hint or dirty writeback — the directory treats both as
// precise removals, keeping the sharer vector exact).
func (e *DirEntry) ApplyEvict(i int) { e.ApplyInvalidate(i) }

// ApplyOwner records processor i as the sole Exclusive/Modified
// holder after an upgrade.
func (e *DirEntry) ApplyOwner(i int) {
	e.Owner = i
	e.Sharers.Add(i)
}
