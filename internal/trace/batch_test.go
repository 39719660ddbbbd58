package trace

import (
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// TestRefSize pins the in-memory size of a reference. The trace pool's
// memory bound (maxPooledRefs in pool.go) and EXPERIMENTS.md's
// "40 bytes per trace.Ref" are stated in terms of it: a layout change
// must update both.
func TestRefSize(t *testing.T) {
	if got := unsafe.Sizeof(Ref{}); got != 40 {
		t.Fatalf("unsafe.Sizeof(Ref{}) = %d, want 40 (update pool.go and EXPERIMENTS.md)", got)
	}
}

// batchSizes are the dst lengths the batch-read contract tests cycle
// through: single refs, sizes around the chunk length used below, and
// one larger than any chunk.
var batchSizes = []int{1, 3, 8, 7, 32, 2, 100}

// readAll drains src with batch reads of cycling sizes, checking the
// contract on the way: every Read returns at least one reference until
// the stream ends, never more than asked, and 0 — repeatedly — once it
// has ended. want is the full stream.
func readAll(t *testing.T, src Source, want []Ref) {
	t.Helper()
	var got []Ref
	for i := 0; ; i++ {
		dst := make([]Ref, batchSizes[i%len(batchSizes)])
		n := src.Read(dst)
		if n < 0 || n > len(dst) {
			t.Fatalf("Read(len %d) = %d", len(dst), n)
		}
		if n == 0 {
			if len(got) < len(want) {
				t.Fatalf("Read returned 0 after %d of %d refs", len(got), len(want))
			}
			break
		}
		got = append(got, dst[:n]...)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batch reads delivered %d refs, differing from the %d-ref stream", len(got), len(want))
	}
	for range 3 {
		if n := src.Read(make([]Ref, 4)); n != 0 {
			t.Fatalf("Read after the end = %d, want 0", n)
		}
	}
}

// next reads a single reference from src, or reports the end of the
// stream.
func next(src Source) (Ref, bool) {
	var r [1]Ref
	return r[0], src.Read(r[:]) == 1
}

// collect drains src into a slice.
func collect(src Source) []Ref {
	var out []Ref
	buf := make([]Ref, 64)
	for n := src.Read(buf); n > 0; n = src.Read(buf) {
		out = append(out, buf[:n]...)
	}
	return out
}

func TestSliceSourceRead(t *testing.T) {
	refs := testRefs(61)
	readAll(t, NewSliceSource(refs), refs)
	readAll(t, NewSliceSource(nil), nil)

	// Reads of different sizes share one position.
	s := NewSliceSource(refs)
	if r, _ := next(s); r != refs[0] {
		t.Fatalf("first ref = %+v, want %+v", r, refs[0])
	}
	readAll(t, s, refs[1:])
}

func TestFileSourceRead(t *testing.T) {
	refs := testRefs(61)
	src := openChunked(t, encodeChunked(t, refs, 8))
	readAll(t, src, refs)
	if err := src.Err(); err != nil {
		t.Fatalf("clean end: Err = %v", err)
	}
	if src.cur != nil {
		t.Fatal("exhausted FileSource still holds its chunk buffer")
	}
}

// TestChunkSourceReadStaysInChunk pins the batch read's pipeline
// contract: a Read larger than the queued chunk returns that chunk's
// remainder without waiting for the next one while the pipeline is
// still open, blocks only when it has nothing to return, and gives the
// spent chunk back to the trace pool exactly once.
func TestChunkSourceReadStaysInChunk(t *testing.T) {
	p := NewChunkPipeline(1, 0)
	chunk := mkChunk(0, 100, 5)
	base := unsafe.SliceData(chunk)
	p.Send(0, chunk)
	src := p.Source(0)

	// pooled counts the free-list entries backed by the sent chunk.
	pooled := func() int {
		refPool.Lock()
		defer refPool.Unlock()
		n := 0
		for _, b := range refPool.batches {
			if unsafe.SliceData(b[:1]) == base {
				n++
			}
		}
		return n
	}

	dst := make([]Ref, 32)
	got := make(chan int, 1)
	go func() { got <- src.Read(dst[:2]) }()
	select {
	case n := <-got:
		if n != 2 || dst[0].Addr != 100 || dst[1].Addr != 101 {
			t.Fatalf("first Read = %d refs %v", n, dst[:n])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Read blocked with a chunk queued")
	}
	if pooled() != 0 {
		t.Fatal("chunk pooled while refs of it are undelivered")
	}
	go func() { got <- src.Read(dst) }()
	select {
	case n := <-got:
		if n != 3 || dst[0].Addr != 102 || dst[2].Addr != 104 {
			t.Fatalf("second Read = %d refs %v, want the chunk's 3-ref remainder", n, dst[:n])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Read blocked for the next chunk instead of returning the remainder")
	}
	if n := pooled(); n != 1 {
		t.Fatalf("spent chunk pooled %d times, want 1", n)
	}

	// Nothing left to return: the next Read blocks until a chunk or the
	// end of the stream arrives, and the end does not pool again.
	go func() { got <- src.Read(dst) }()
	select {
	case n := <-got:
		t.Fatalf("Read returned %d with nothing queued on an open pipeline", n)
	case <-time.After(50 * time.Millisecond):
	}
	p.Close()
	if n := <-got; n != 0 {
		t.Fatalf("Read after Close = %d, want 0", n)
	}
	if n := pooled(); n != 1 {
		t.Fatalf("spent chunk pooled %d times after the end, want 1", n)
	}
}

func TestChunkSourceReadAll(t *testing.T) {
	refs := testRefs(61)
	p := NewChunkPipeline(1, 16)
	go func() {
		for i := 0; i < len(refs); i += 8 {
			c := GetBatch(8)
			c = append(c, refs[i:min(i+8, len(refs))]...)
			p.Send(0, c)
		}
		p.Close()
	}()
	readAll(t, p.Source(0), refs)
}
