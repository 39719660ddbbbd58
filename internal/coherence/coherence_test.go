package coherence

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestStateString(t *testing.T) {
	cases := map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M"}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("State %d String = %q, want %q", s, got, want)
		}
	}
	if got := State(9).String(); !strings.Contains(got, "9") {
		t.Errorf("unknown state string = %q", got)
	}
}

func TestStatePredicates(t *testing.T) {
	if Invalid.Valid() {
		t.Error("Invalid.Valid() = true")
	}
	for _, s := range []State{Shared, Exclusive, Modified} {
		if !s.Valid() {
			t.Errorf("%v.Valid() = false", s)
		}
	}
	if !Modified.Dirty() {
		t.Error("Modified.Dirty() = false")
	}
	for _, s := range []State{Invalid, Shared, Exclusive} {
		if s.Dirty() {
			t.Errorf("%v.Dirty() = true", s)
		}
	}
}

func TestProtocolString(t *testing.T) {
	if Invalidate.String() != "invalidate" || Update.String() != "update" {
		t.Error("protocol names wrong")
	}
}

func TestBusOpString(t *testing.T) {
	for op, want := range map[BusOp]string{
		BusNone: "none", BusRead: "read", BusReadExcl: "readexcl",
		BusUpgrade: "upgrade", BusUpdate: "update", BusWriteBack: "writeback",
	} {
		if got := op.String(); got != want {
			t.Errorf("BusOp %d = %q, want %q", op, got, want)
		}
	}
}

func TestReadMissFromMemory(t *testing.T) {
	a := ReadMiss(Snapshot{})
	if a.Bus != BusRead || a.Next != Exclusive || a.CacheToCache || a.MemoryWrite {
		t.Errorf("ReadMiss(no remote) = %+v; want exclusive memory fill", a)
	}
}

func TestReadMissRemoteClean(t *testing.T) {
	a := ReadMiss(Snapshot{RemotePresent: true})
	if !a.CacheToCache || a.Next != Shared || a.RemoteNext != Shared || a.MemoryWrite {
		t.Errorf("ReadMiss(remote clean) = %+v", a)
	}
}

func TestReadMissRemoteDirty(t *testing.T) {
	a := ReadMiss(Snapshot{RemotePresent: true, RemoteDirty: true})
	if !a.CacheToCache || !a.MemoryWrite || a.Next != Shared {
		t.Errorf("ReadMiss(remote dirty) = %+v", a)
	}
}

func TestWriteMissInvalidate(t *testing.T) {
	a := WriteMiss(Invalidate, Snapshot{})
	if a.Bus != BusReadExcl || a.Next != Modified || a.CacheToCache {
		t.Errorf("WriteMiss(invalidate, alone) = %+v", a)
	}
	a = WriteMiss(Invalidate, Snapshot{RemotePresent: true, RemoteDirty: true})
	if !a.CacheToCache || !a.MemoryWrite || a.RemoteNext != Invalid {
		t.Errorf("WriteMiss(invalidate, dirty remote) = %+v", a)
	}
}

func TestWriteMissUpdate(t *testing.T) {
	a := WriteMiss(Update, Snapshot{RemotePresent: true})
	if a.Next != Shared || a.RemoteNext != Shared || !a.CacheToCache {
		t.Errorf("WriteMiss(update, sharers) = %+v", a)
	}
	a = WriteMiss(Update, Snapshot{})
	if a.Next != Modified {
		t.Errorf("WriteMiss(update, alone) = %+v", a)
	}
}

// Protocol invariants, property-checked across the full input space:
//
//  1. Under the invalidate protocol, after a write-miss decision the
//     requester is Modified and remote holders are Invalid — never two
//     writable copies.
//  2. Under either protocol, a decision never leaves the requester
//     Invalid after an access.
//  3. Cache-to-cache supply only happens when a remote cache held the
//     line.
func TestProtocolInvariants(t *testing.T) {
	f := func(proto uint8, present, dirty bool) bool {
		p := Protocol(proto % 2)
		snap := Snapshot{RemotePresent: present, RemoteDirty: present && dirty}

		wm := WriteMiss(p, snap)
		if p == Invalidate && (wm.Next != Modified || wm.RemoteNext != Invalid) {
			return false
		}
		if wm.Next == Invalid {
			return false
		}
		if wm.CacheToCache && !snap.RemotePresent {
			return false
		}

		rm := ReadMiss(snap)
		if rm.Next == Invalid || rm.Next == Modified {
			return false
		}
		if rm.CacheToCache != snap.RemotePresent {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
