package monitor

import (
	"reflect"
	"testing"
	"testing/quick"

	"oscachesim/internal/kernel"
	"oscachesim/internal/trace"
	"oscachesim/internal/workload"
)

func TestEscapeAddressesAreOdd(t *testing.T) {
	for id := uint32(0); id < 1000; id += 7 {
		addr := EscapeAddr(id)
		if addr&1 == 0 {
			t.Fatalf("EscapeAddr(%d) = %#x is even", id, addr)
		}
		got, ok := IsEscape(addr)
		if !ok || got != id {
			t.Fatalf("IsEscape(EscapeAddr(%d)) = %d, %v", id, got, ok)
		}
	}
}

func TestIsEscapeRejectsRealAddresses(t *testing.T) {
	// Even addresses (real instruction fetches) are never escapes.
	for _, addr := range []uint64{0, 4, EscapeBase, EscapeBase + 2, 0x100000} {
		if _, ok := IsEscape(addr); ok {
			t.Errorf("IsEscape(%#x) accepted an even address", addr)
		}
	}
	// Odd addresses below the escape window are not escapes.
	if _, ok := IsEscape(3); ok {
		t.Error("IsEscape(3) accepted an address below the window")
	}
}

// TestEscapeRoundTripProperty: any block id round-trips through the
// address encoding.
func TestEscapeRoundTripProperty(t *testing.T) {
	f := func(id uint32) bool {
		id %= 1 << 24
		got, ok := IsEscape(EscapeAddr(id))
		return ok && got == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func mkStream() []trace.Ref {
	// Two executions of the same basic block around data accesses.
	block := []trace.Ref{
		{Addr: 0x100000, Op: trace.OpInstr, Kind: trace.KindOS},
		{Addr: 0x100004, Op: trace.OpInstr, Kind: trace.KindOS},
		{Addr: 0x100008, Op: trace.OpInstr, Kind: trace.KindOS},
	}
	var refs []trace.Ref
	refs = append(refs, block...)
	refs = append(refs, trace.Ref{Addr: 0x20000, Op: trace.OpRead, Kind: trace.KindOS, Class: trace.ClassCounter})
	refs = append(refs, block...)
	refs = append(refs, trace.Ref{Addr: 0x20004, Op: trace.OpWrite, Kind: trace.KindOS, Class: trace.ClassCounter})
	return refs
}

func TestInstrumentSharesBlockIDs(t *testing.T) {
	table := NewBlockTable()
	out, stats := Instrument(mkStream(), table)
	if table.Blocks() != 1 {
		t.Errorf("Blocks() = %d, want 1 (same block twice)", table.Blocks())
	}
	if stats.Escapes != 2 || stats.Instrs != 6 || stats.DataRefs != 2 {
		t.Errorf("stats = %+v", stats)
	}
	// Output: escape, read, escape, write.
	if len(out) != 4 {
		t.Fatalf("instrumented stream = %d refs, want 4", len(out))
	}
	if id0, ok := IsEscape(out[0].Addr); !ok || id0 == 0 {
		t.Errorf("first ref not an escape: %v", out[0])
	}
	if out[1].Op != trace.OpRead || out[3].Op != trace.OpWrite {
		t.Errorf("data refs out of order: %v", out)
	}
	for _, r := range out {
		if r.Op == trace.OpInstr {
			t.Fatal("instruction fetch leaked into the probe stream")
		}
	}
}

func TestInstrumentOverhead(t *testing.T) {
	table := NewBlockTable()
	_, stats := Instrument(mkStream(), table)
	// 2 escapes / 6 instructions = 33%, near the paper's 30.1%.
	if o := stats.Overhead(); o < 0.2 || o > 0.5 {
		t.Errorf("Overhead = %v", o)
	}
	if (InstrumentStats{}).Overhead() != 0 {
		t.Error("zero-stats overhead not 0")
	}
}

func TestReconstructRoundTrip(t *testing.T) {
	orig := mkStream()
	table := NewBlockTable()
	instrumented, _ := Instrument(orig, table)
	recs := make([]Record, len(instrumented))
	for i, r := range instrumented {
		recs[i] = Record{Addr: r.Addr, Ref: r}
	}
	got, err := Reconstruct(recs, table)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Fatalf("round trip mismatch:\ngot  %v\nwant %v", got, orig)
	}
}

func TestReconstructUnknownBlock(t *testing.T) {
	recs := []Record{{Addr: EscapeAddr(12345), Ref: trace.Ref{Addr: EscapeAddr(12345), Op: trace.OpRead}}}
	if _, err := Reconstruct(recs, NewBlockTable()); err == nil {
		t.Error("unknown escape reconstructed without error")
	}
}

func TestProbeInterruptAndDrain(t *testing.T) {
	p := NewProbe(32)
	fired := false
	for i := 0; i < 30; i++ {
		if p.Capture(trace.Ref{Addr: uint64(i)}) {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("high-water interrupt never fired")
	}
	n := p.Len()
	recs := p.Drain()
	if len(recs) != n || p.Len() != 0 {
		t.Errorf("Drain returned %d, left %d", len(recs), p.Len())
	}
	if p.Dumps != 1 {
		t.Errorf("Dumps = %d", p.Dumps)
	}
}

func TestProbeBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewProbe(0) did not panic")
		}
	}()
	NewProbe(0)
}

func TestCaptureSessionContinuity(t *testing.T) {
	// Streams far larger than the buffers: the session must still
	// capture every reference, across multiple dump cycles.
	perCPU := make([][]trace.Ref, 4)
	for c := range perCPU {
		for i := 0; i < 500; i++ {
			perCPU[c] = append(perCPU[c], trace.Ref{Addr: uint64(c)<<32 | uint64(i), CPU: uint8(c), Op: trace.OpRead})
		}
	}
	records, probes := CaptureSession(perCPU, 64)
	for c := range perCPU {
		if len(records[c]) != len(perCPU[c]) {
			t.Fatalf("cpu%d: captured %d of %d refs", c, len(records[c]), len(perCPU[c]))
		}
		for i, rec := range records[c] {
			if rec.Ref != perCPU[c][i] {
				t.Fatalf("cpu%d record %d out of order", c, i)
			}
		}
		if probes[c].Dumps < 2 {
			t.Errorf("cpu%d: only %d dumps for a 500-ref stream in a 64-entry buffer", c, probes[c].Dumps)
		}
	}
}

// TestFullPipelineOnWorkload is the paper's methodology end to end on
// a real workload build: instrument, capture through the probes,
// reconstruct, and compare with the original streams.
func TestFullPipelineOnWorkload(t *testing.T) {
	b := workload.Build(workload.Shell, kernel.OptConfig{}, 2, 13)
	table := NewBlockTable()
	instrumented := make([][]trace.Ref, len(b.PerCPU))
	var totalOverhead InstrumentStats
	for c, refs := range b.PerCPU {
		out, stats := Instrument(refs, table)
		instrumented[c] = out
		totalOverhead.Instrs += stats.Instrs
		totalOverhead.Escapes += stats.Escapes
	}
	records, _ := CaptureSession(instrumented, 1<<16)
	for c := range records {
		got, err := Reconstruct(records[c], table)
		if err != nil {
			t.Fatalf("cpu%d: %v", c, err)
		}
		if !reflect.DeepEqual(got, b.PerCPU[c]) {
			t.Fatalf("cpu%d: reconstruction does not match the original stream (%d vs %d refs)",
				c, len(got), len(b.PerCPU[c]))
		}
	}
	// The paper reports ~30% code growth from instrumentation; our
	// synthetic blocks are in the same regime.
	if o := totalOverhead.Overhead(); o < 0.05 || o > 0.6 {
		t.Errorf("instrumentation overhead = %.1f%%, implausible", 100*o)
	}
}
