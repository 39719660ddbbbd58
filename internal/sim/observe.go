package sim

import (
	"oscachesim/internal/coherence"
	"oscachesim/internal/stats"
	"oscachesim/internal/trace"
)

// This file is the simulator's observation surface: a typed event
// stream covering every coherence-state transition, miss
// classification and write-buffer movement, plus read-only inspection
// hooks over the cache arrays. internal/check drives its differential
// oracle and invariant engine from exactly these events; the hooks let
// it compare the simulator's real state against its independent model
// after every transition. With no observer attached the event plumbing
// is a nil check per site and costs nothing measurable.

// EventKind enumerates the observable simulator actions.
type EventKind uint8

const (
	// EvRef: a trace reference begins execution on Event.CPU.
	EvRef EventKind = iota
	// EvReadHit: a data read (or instruction fetch) hit in the level
	// given by Event.Level (1 = primary, 2 = secondary).
	EvReadHit
	// EvForward: a read was satisfied by forwarding from a write
	// buffer.
	EvForward
	// EvNoForward: a read checked both write buffers and matched
	// neither (it proceeds to the fill path).
	EvNoForward
	// EvMissContext: the miss-classification evidence for a read miss
	// was consumed (CtxInval and Class carry the invalidation record).
	EvMissContext
	// EvReadMiss: a primary-cache read miss was recorded; for OS
	// references MissClass/CohClass carry the recorded taxonomy.
	EvReadMiss
	// EvFillRead: an L2 line was installed by a read fill in
	// Event.State.
	EvFillRead
	// EvFillWrite: an L2 line was installed by a write-allocate fill.
	EvFillWrite
	// EvEvict: an L2 victim in Event.State was evicted.
	EvEvict
	// EvInvalidate: Event.Holder's copy was invalidated by a snoop
	// from Event.CPU; Class is the invalidating write's data class and
	// State the holder's prior state.
	EvInvalidate
	// EvDowngrade: Event.Holder's copy dropped to Shared (prior state
	// in Event.State).
	EvDowngrade
	// EvAbsorb: a buffered write was absorbed by an owned L2 line,
	// which is now Modified.
	EvAbsorb
	// EvUpgrade: a Shared line was upgraded to Modified by an
	// invalidation-only bus signal.
	EvUpgrade
	// EvUpdate: a Firefly word-update broadcast completed; Sharers
	// reports whether remote copies remained.
	EvUpdate
	// EvWBPush: an entry entered the write buffer at Event.Level.
	EvWBPush
	// EvWBRetire: an entry left the write buffer at Event.Level.
	EvWBRetire
	// EvDirUpdate: a home-node directory entry changed (directory
	// coherence only). Addr is the line, Owner the new owner
	// (coherence.NoOwner for none) and SharerCount the new holder
	// count. Emitted after the entry mutation and all cache-state
	// changes of the transaction, so the DirectoryEntry hook and the
	// cache arrays are consistent with the event.
	EvDirUpdate
	// EvL1Evict: a primary-data-cache fill of line Addr displaced the
	// valid line Victim (Section 6's conflict census counts these by
	// the data structures the two lines belong to).
	EvL1Evict
)

// String names the event kind.
func (k EventKind) String() string {
	names := [...]string{
		"ref", "readhit", "forward", "noforward", "misscontext",
		"readmiss", "fillread", "fillwrite", "evict", "invalidate",
		"downgrade", "absorb", "upgrade", "update", "wbpush", "wbretire",
		"dirupdate", "l1evict",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return "EventKind(?)"
}

// Event is one observable simulator action. Field meaning depends on
// Kind; see the EventKind constants.
type Event struct {
	Kind EventKind
	// CPU is the acting processor.
	CPU int
	// Holder is the remote processor affected by a snoop.
	Holder int
	// Level is the cache or write-buffer level (1 or 2).
	Level int
	// Addr is the affected address (line-aligned for coherence events).
	Addr uint64
	// Victim is the displaced primary-cache line (EvL1Evict).
	Victim uint64
	// State is the installed or prior coherence state, kind-specific.
	State coherence.State
	// Class is a data class (EvInvalidate: the invalidating write's;
	// EvMissContext: the consumed record's).
	Class trace.DataClass
	// MissClass / CohClass carry the recorded classification of an OS
	// read miss (EvReadMiss with Classified true).
	MissClass  stats.MissClass
	CohClass   stats.CohClass
	Classified bool
	// CtxInval reports whether invalidation evidence was present
	// (EvMissContext) or consumed for this miss (EvReadMiss).
	CtxInval bool
	// Sharers reports whether remote sharers remained (EvUpdate).
	Sharers bool
	// Owner is the directory entry's new owner (EvDirUpdate;
	// coherence.NoOwner when the line has no Exclusive/Modified
	// holder).
	Owner int
	// SharerCount is the directory entry's new holder count
	// (EvDirUpdate).
	SharerCount int
	// Ref is the reference being executed (EvRef, EvReadMiss).
	Ref trace.Ref
	// RefIndex is the global ordinal of the reference in flight when
	// the event fired (1-based; references from all CPUs share the
	// counter).
	RefIndex uint64
}

// Observer receives the simulator's event stream. Observe is called
// synchronously from the simulation loop, immediately after the state
// change it describes has been applied, so inspection hooks see the
// post-transition state.
type Observer interface {
	Observe(Event)
}

// SetObserver attaches an observer to the simulator. It must be called
// before Run. A nil observer detaches.
func (s *Simulator) SetObserver(o Observer) { s.obs = o }

// SetProgress attaches a live progress feed that Run samples every few
// hundred references and marks done when it finishes. It must be called
// before Run. A nil feed detaches.
func (s *Simulator) SetProgress(p *Progress) { s.progress = p }

// emit delivers an event to the attached observer, stamping the global
// reference ordinal.
func (s *Simulator) emit(ev Event) {
	if s.obs == nil {
		return
	}
	ev.RefIndex = s.refs
	s.obs.Observe(ev)
}

// --- Inspection hooks -------------------------------------------------

// NumCPUs returns the simulated processor count.
func (s *Simulator) NumCPUs() int { return len(s.cpus) }

// L2State returns cpu's secondary-cache coherence state for addr
// (Invalid when absent). It does not disturb replacement state.
func (s *Simulator) L2State(cpu int, addr uint64) coherence.State {
	return s.cpus[cpu].l2.State(addr)
}

// L1DHas reports whether cpu's primary data cache holds addr.
func (s *Simulator) L1DHas(cpu int, addr uint64) bool {
	_, ok := s.cpus[cpu].l1d.Peek(addr)
	return ok
}

// Params returns the machine parameters the simulator was built with.
func (s *Simulator) Params() Params { return s.p }

// DirectoryEntry returns the home-node directory record for the line
// containing addr: the owner (coherence.NoOwner for none) and the
// holders in ascending CPU order. ok is false when the machine is not
// directory-coherent. An uncached line returns (NoOwner, nil, true).
func (s *Simulator) DirectoryEntry(addr uint64) (owner int, holders []int, ok bool) {
	if s.p.Coherence != CoherenceDirectory {
		return coherence.NoOwner, nil, false
	}
	line := s.cpus[0].l2.LineAddr(addr)
	e, present := s.dir[line]
	if !present {
		return coherence.NoOwner, nil, true
	}
	return e.Owner, e.Sharers.Members(), true
}
