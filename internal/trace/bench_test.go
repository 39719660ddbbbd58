package trace

import "testing"

// benchWindow is the simulator's batch size: each processor fetches its
// references 32 at a time (internal/sim refWindow).
const benchWindow = 32

// BenchmarkSliceSourceRead measures one 32-ref batch read from an
// in-memory trace, the source of every fully built run. An op is one
// Read; the source rewinds at the end of its slice.
func BenchmarkSliceSourceRead(b *testing.B) {
	src := NewSliceSource(testRefs(1 << 13))
	var dst [benchWindow]Ref
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if src.Read(dst[:]) == 0 {
			src.pos = 0
			src.Read(dst[:])
		}
	}
}

// BenchmarkChunkSourceRead measures one 32-ref batch read from a
// streamed trace: the consumer end of a one-CPU chunk pipeline fed
// chunks of the generator's default size (8192 refs), so the cost
// includes receiving each chunk and returning it to the pool. The
// chunk is filled once; each later send takes the same array back from
// the pool. An op is one Read.
func BenchmarkChunkSourceRead(b *testing.B) {
	const chunkRefs = 1 << 13
	p := NewChunkPipeline(1, chunkRefs)
	src := p.Source(0)
	p.Send(0, append(GetBatch(chunkRefs), testRefs(chunkRefs)...))
	var dst [benchWindow]Ref
	left := chunkRefs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if left == 0 {
			p.Send(0, GetBatch(chunkRefs)[:chunkRefs])
			left = chunkRefs
		}
		left -= src.Read(dst[:])
	}
}
