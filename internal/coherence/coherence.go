// Package coherence implements the two snooping cache-coherence
// protocols of the simulated machine as pure decision tables: the
// Illinois protocol (a MESI variant with cache-to-cache supply), which
// is the machine's default, and the Firefly update protocol, which the
// Section 5.2 "selective update" optimization applies to a small core
// of shared variables chosen page-by-page via a TLB attribute bit.
//
// The package is deliberately stateless: given a miss, the page's
// protocol and a snapshot of remote ownership, it returns the bus
// transaction to perform and the resulting states. The simulator in
// internal/sim owns the actual line-state arrays and applies these
// decisions, which keeps the protocol logic independently testable
// against the published state machines. Write hits and evictions the
// simulator decides inline; internal/check is their independent
// oracle.
package coherence

import "fmt"

// State is a cache-line coherence state (MESI).
type State uint8

const (
	// Invalid: the line is not present.
	Invalid State = iota
	// Shared: present, clean, possibly in other caches too.
	Shared
	// Exclusive: present, clean, in no other cache (Illinois
	// "valid-exclusive"). Writable without a bus transaction.
	Exclusive
	// Modified: present, dirty, in no other cache.
	Modified
)

// String returns the single-letter MESI name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Valid reports whether the state holds data.
func (s State) Valid() bool { return s != Invalid }

// Dirty reports whether the line must be written back on eviction.
func (s State) Dirty() bool { return s == Modified }

// Protocol selects between the machine's two coherence protocols.
type Protocol uint8

const (
	// Invalidate is the Illinois MESI protocol (the default).
	Invalidate Protocol = iota
	// Update is the Firefly update protocol, applied per page by the
	// selective-update optimization.
	Update
)

// String names the protocol.
func (p Protocol) String() string {
	if p == Update {
		return "update"
	}
	return "invalidate"
}

// BusOp is the snooping-bus transaction a protocol decision requires.
type BusOp uint8

const (
	// BusNone: no bus transaction (pure cache hit).
	BusNone BusOp = iota
	// BusRead: read a line, other caches may supply and stay Shared.
	BusRead
	// BusReadExcl: read a line for ownership, invalidating others.
	BusReadExcl
	// BusUpgrade: invalidation-only signal for a Shared line being
	// written under the invalidate protocol (no data transfer).
	BusUpgrade
	// BusUpdate: word-update broadcast for a Shared line being written
	// under the update protocol (word, not line, on the bus).
	BusUpdate
	// BusWriteBack: eviction of a Modified line to memory.
	BusWriteBack
)

// String names the bus operation.
func (b BusOp) String() string {
	names := [...]string{"none", "read", "readexcl", "upgrade", "update", "writeback"}
	if int(b) < len(names) {
		return names[b]
	}
	return fmt.Sprintf("BusOp(%d)", uint8(b))
}

// Snapshot describes what the rest of the system holds for a line at
// decision time; the simulator assembles it by snooping the other
// caches.
type Snapshot struct {
	// RemotePresent: at least one other cache holds the line.
	RemotePresent bool
	// RemoteDirty: some other cache holds the line Modified.
	RemoteDirty bool
}

// Action is the outcome of a protocol decision.
type Action struct {
	// Bus is the transaction placed on the bus (BusNone for hits that
	// need none).
	Bus BusOp
	// Next is the requesting cache's resulting line state.
	Next State
	// RemoteNext is the state remote holders transition to. It is
	// meaningful only when the line was remotely present.
	RemoteNext State
	// CacheToCache: the data is supplied by a remote cache rather
	// than memory (Illinois supplies from a cache whenever one holds
	// the line; Firefly likewise).
	CacheToCache bool
	// MemoryWrite: memory is updated as part of the transaction (a
	// dirty remote supplier reflects the line to memory, or an update
	// broadcast writes memory through).
	MemoryWrite bool
}

// ReadMiss returns the action for a load that misses locally. Both
// protocols behave identically on read misses: if a remote cache holds
// the line it supplies the data and everyone ends Shared (a dirty
// supplier also updates memory); otherwise memory supplies it and the
// requester loads it Exclusive (the Illinois/Firefly "valid-exclusive"
// optimization, enabled by the shared-line bus signal).
func ReadMiss(snap Snapshot) Action {
	if snap.RemotePresent {
		return Action{
			Bus:          BusRead,
			Next:         Shared,
			RemoteNext:   Shared,
			CacheToCache: true,
			MemoryWrite:  snap.RemoteDirty,
		}
	}
	return Action{Bus: BusRead, Next: Exclusive}
}

// WriteMiss returns the action for a store that misses locally.
func WriteMiss(p Protocol, snap Snapshot) Action {
	if p == Update {
		// Firefly write miss: fetch the line (remote supply if held)
		// and broadcast the written word; sharers keep their copies.
		a := Action{Bus: BusRead, Next: Modified}
		if snap.RemotePresent {
			a.Next = Shared
			a.RemoteNext = Shared
			a.CacheToCache = true
			a.MemoryWrite = true // the update writes memory through
		}
		return a
	}
	// Illinois write miss: read-exclusive, everyone else invalidates;
	// a dirty holder supplies the line and memory is updated.
	a := Action{Bus: BusReadExcl, Next: Modified, RemoteNext: Invalid}
	if snap.RemotePresent {
		a.CacheToCache = true
		a.MemoryWrite = snap.RemoteDirty
	}
	return a
}
