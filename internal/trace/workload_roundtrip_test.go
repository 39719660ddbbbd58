package trace_test

// An external test exercising the binary codec on a realistic,
// full-sized workload trace rather than synthetic records: every field
// combination the generator produces must round-trip bit-exactly, and
// the delta encoding must actually compress the stream.

import (
	"bytes"
	"testing"

	"oscachesim/internal/kernel"
	"oscachesim/internal/trace"
	"oscachesim/internal/workload"
)

// encode writes refs as one chunked trace.
func encode(t *testing.T, refs []trace.Ref) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewChunkWriter(&buf, 0)
	for _, r := range refs {
		if err := w.WriteRef(r); err != nil {
			t.Fatalf("WriteRef: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWorkloadTraceRoundTrip(t *testing.T) {
	b := workload.Build(workload.TRFDMake, kernel.OptConfig{BlockPrefetch: true}, 3, 21)
	for cpu, refs := range b.PerCPU {
		enc := encode(t, refs)
		// The varint delta encoding should beat the in-memory record
		// size by a wide margin on real streams.
		if raw := len(refs) * 16; len(enc) >= raw {
			t.Errorf("cpu%d: %d refs encoded to %d bytes (no compression)", cpu, len(refs), len(enc))
		}
		src, err := trace.OpenSource(bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		var got []trace.Ref
		buf := make([]trace.Ref, 1000)
		for n := src.Read(buf); n > 0; n = src.Read(buf) {
			got = append(got, buf[:n]...)
		}
		if err := src.Err(); err != nil {
			t.Fatalf("cpu%d: %v", cpu, err)
		}
		if len(got) != len(refs) {
			t.Fatalf("cpu%d: decoded %d refs, want %d", cpu, len(got), len(refs))
		}
		for i, want := range refs {
			if got[i] != want {
				t.Fatalf("cpu%d ref %d: got %+v want %+v", cpu, i, got[i], want)
			}
		}
	}
}

func TestWorkloadDMATraceRoundTrip(t *testing.T) {
	b := workload.Build(workload.Shell, kernel.OptConfig{BlockDMA: true, Privatize: true, Relocate: true, HotSpotPrefetch: true}, 2, 5)
	var all []trace.Ref
	for _, refs := range b.PerCPU {
		all = append(all, refs...)
	}
	src, err := trace.OpenSource(bytes.NewReader(encode(t, all)))
	if err != nil {
		t.Fatal(err)
	}
	s := trace.Summarize(src)
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if int(s.Total) != len(all) {
		t.Errorf("summarized %d of %d refs", s.Total, len(all))
	}
	if s.DMAOps == 0 {
		t.Error("DMA build round-tripped with no DMA ops")
	}
	if s.Prefetch == 0 {
		t.Error("hot-spot-prefetch build round-tripped with no prefetches")
	}
}
