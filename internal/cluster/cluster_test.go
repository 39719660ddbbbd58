package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"oscachesim/internal/core"
	"oscachesim/internal/scenario"
	"oscachesim/internal/sim"
)

func TestRingDistributesAndIsStable(t *testing.T) {
	r := NewRing(0)
	for _, n := range []string{"w1", "w2", "w3"} {
		r.Add(n)
	}
	counts := map[string]int{}
	owners := map[string]string{}
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("key-%d", i)
		own, ok := r.Owner(key)
		if !ok {
			t.Fatal("empty ring?")
		}
		counts[own]++
		owners[key] = own
	}
	for n, c := range counts {
		if c < 500 || c > 1800 {
			t.Fatalf("grossly uneven split: %s owns %d of 3000 (%v)", n, c, counts)
		}
	}
	// Removing one node must not move keys between surviving nodes.
	r.Remove("w2")
	for key, prev := range owners {
		now, _ := r.Owner(key)
		if prev != "w2" && now != prev {
			t.Fatalf("key %s moved %s -> %s though its owner survived", key, prev, now)
		}
		if prev == "w2" && now == "w2" {
			t.Fatalf("key %s still routed to removed node", key)
		}
	}
}

func TestRingSequenceMatchesFailover(t *testing.T) {
	r := NewRing(0)
	for _, n := range []string{"w1", "w2", "w3"} {
		r.Add(n)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		seq := r.Sequence(key, 3)
		if len(seq) != 3 {
			t.Fatalf("want 3 distinct nodes, got %v", seq)
		}
		// The second node of the sequence is where a ring without the
		// first would route the key — the failover invariant.
		r2 := NewRing(0)
		for _, n := range []string{"w1", "w2", "w3"} {
			if n != seq[0] {
				r2.Add(n)
			}
		}
		if own, _ := r2.Owner(key); own != seq[1] {
			t.Fatalf("key %s: sequence says %v but owner-after-loss is %s", key, seq, own)
		}
	}
}

func TestMembershipLifecycle(t *testing.T) {
	m := NewMembership(time.Second)
	now := time.Unix(1000, 0)
	m.now = func() time.Time { return now }

	if known := m.Register("w1", "http://w1"); known {
		t.Fatal("fresh node reported known")
	}
	m.Register("w2", "http://w2")
	if got := m.AliveCount(); got != 2 {
		t.Fatalf("alive = %d, want 2", got)
	}
	if !m.Heartbeat("w1", NodeStats{QueueDepth: 3}) {
		t.Fatal("heartbeat for known node rejected")
	}
	if m.Heartbeat("ghost", NodeStats{}) {
		t.Fatal("heartbeat for unknown node accepted")
	}

	// w2 goes silent past the timeout: one sweep loses it.
	now = now.Add(1500 * time.Millisecond)
	m.Heartbeat("w1", NodeStats{})
	lost := m.Sweep()
	if len(lost) != 1 || lost[0] != "w2" {
		t.Fatalf("lost = %v, want [w2]", lost)
	}
	if got := m.AliveCount(); got != 1 {
		t.Fatalf("alive = %d after loss, want 1", got)
	}
	// Its keys re-route to the survivor.
	seq := m.Sequence("anything", 2)
	if len(seq) != 1 || seq[0].ID != "w1" {
		t.Fatalf("sequence after loss = %v", seq)
	}

	// A heartbeat resurrects the suspect.
	if !m.Heartbeat("w2", NodeStats{}) {
		t.Fatal("suspect node lost from the table")
	}
	if got := m.AliveCount(); got != 2 {
		t.Fatalf("alive = %d after resurrection, want 2", got)
	}

	// Silent long enough: declared dead, still visible in the table.
	now = now.Add(10 * time.Second)
	m.Sweep() // alive -> suspect
	now = now.Add(10 * time.Second)
	m.Sweep() // suspect -> dead
	for _, row := range m.Snapshot() {
		if row.State != NodeDead {
			t.Fatalf("node %s state %s, want dead", row.ID, row.State)
		}
	}
}

func TestMarkSuspectReroutesImmediately(t *testing.T) {
	m := NewMembership(time.Hour) // sweep will never fire
	m.Register("w1", "http://w1")
	m.Register("w2", "http://w2")
	m.MarkSuspect("w1")
	if got := m.AliveCount(); got != 1 {
		t.Fatalf("alive = %d after MarkSuspect, want 1", got)
	}
	seq := m.Sequence("key", 2)
	if len(seq) != 1 || seq[0].ID != "w2" {
		t.Fatalf("sequence = %v, want only w2", seq)
	}
}

func TestComputeRequestRoundTrip(t *testing.T) {
	base := sim.DefaultParams()
	base.NumCPUs = 8
	base.Coherence = sim.CoherenceDirectory
	spec, err := scenario.Preset("sharing")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []core.RunConfig{
		{Workload: "TRFD_4", System: core.BCPref, Scale: 3, Seed: 7},
		{Workload: "TRFD+Make", System: core.Base, Machine: &base, DeferredCopy: true},
		{Scenario: spec, System: core.BCohRelUp, Seed: 2, UpdateSet: []uint64{}},
		{Workload: "TRFD_4", System: core.BCohRelUp, UpdateSet: []uint64{3, 5}, PrefDist: 4, PureUpdate: true},
	}
	for i, cfg := range cfgs {
		creq, err := EncodeConfig(cfg)
		if err != nil {
			t.Fatalf("cfg[%d]: EncodeConfig: %v", i, err)
		}
		body, err := json.Marshal(creq)
		if err != nil {
			t.Fatalf("cfg[%d]: Marshal: %v", i, err)
		}
		// Decode the way the worker does: unknown fields are errors.
		var wire ComputeRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&wire); err != nil {
			t.Fatalf("cfg[%d]: strict decode of %s: %v", i, body, err)
		}
		got, err := wire.Config()
		if err != nil {
			t.Fatalf("cfg[%d]: Config: %v", i, err)
		}
		if got.CanonicalKey() != cfg.CanonicalKey() {
			t.Fatalf("cfg[%d]: key drifted across the wire: %s", i, body)
		}
		if (got.UpdateSet == nil) != (cfg.UpdateSet == nil) {
			t.Errorf("cfg[%d]: update set nil-ness lost across the wire: %s", i, body)
		}
	}
}

func TestComputeRequestRejectsUnforwardable(t *testing.T) {
	if _, err := EncodeConfig(core.RunConfig{Workload: "TRFD_4",
		Monitor: func(*sim.Simulator) {}}); err == nil {
		t.Fatal("monitored config encoded")
	}
}

func TestComputeRequestDetectsKeyMismatch(t *testing.T) {
	creq, err := EncodeConfig(core.RunConfig{Workload: "TRFD_4", System: core.Base})
	if err != nil {
		t.Fatal(err)
	}
	creq.Key = "not-the-real-key"
	if _, err := creq.Config(); err == nil {
		t.Fatal("key mismatch accepted")
	}
}
