package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// encodeChunked is a test helper: encode refs into an in-memory
// chunked trace with the given chunk granularity.
func encodeChunked(t testing.TB, refs []Ref, chunkRefs int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewChunkWriter(&buf, chunkRefs)
	for _, r := range refs {
		if err := w.WriteRef(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeChunked reads every chunk, returning the refs and the first
// error (io.EOF is the clean end and reported as nil).
func decodeChunked(enc []byte) ([]Ref, error) {
	r := NewChunkReader(bytes.NewReader(enc))
	var out []Ref
	var buf []Ref
	for {
		chunk, err := r.ReadChunk(buf[:0])
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, chunk...)
		buf = chunk
	}
}

// openChunked opens an in-memory chunked trace through OpenSource.
func openChunked(t testing.TB, enc []byte) *FileSource {
	t.Helper()
	src, err := OpenSource(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("OpenSource: %v", err)
	}
	return src
}

// testRefs builds a stream whose addresses exercise the per-CPU delta
// chains across chunk boundaries.
func testRefs(n int) []Ref {
	refs := make([]Ref, n)
	for i := range refs {
		refs[i] = Ref{
			Addr:  0x10000 + uint64(i)*48,
			CPU:   uint8(i % 4),
			Op:    Op(i % 3),
			Kind:  Kind(i % 3),
			Class: DataClass(i % 9),
		}
		if i%5 == 0 {
			refs[i].Block = uint32(i + 1)
			refs[i].Len = 4096
		}
		if i%7 == 0 {
			refs[i].Aux = uint64(i) * 0x1000
		}
	}
	return refs
}

func TestChunkedRoundTrip(t *testing.T) {
	refs := testRefs(100)
	enc := encodeChunked(t, refs, 7) // 15 chunks, ragged tail
	got, err := decodeChunked(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(refs) {
		t.Fatalf("decoded %d refs, want %d", len(got), len(refs))
	}
	for i := range refs {
		if got[i] != refs[i] {
			t.Fatalf("ref %d: got %+v, want %+v", i, got[i], refs[i])
		}
	}
}

func TestChunkedEmptyTrace(t *testing.T) {
	enc := encodeChunked(t, nil, 0)
	if got, err := decodeChunked(enc); err != nil || len(got) != 0 {
		t.Fatalf("empty trace: refs=%d err=%v", len(got), err)
	}
	if _, err := decodeChunked(nil); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("no header: err=%v, want ErrBadMagic", err)
	}
	if _, err := decodeChunked([]byte("osctrc\x00\x01rest")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("flat-format header: err=%v, want ErrBadMagic", err)
	}
}

func TestFileSource(t *testing.T) {
	refs := testRefs(50)
	src := openChunked(t, encodeChunked(t, refs, 8))
	for i, want := range refs {
		got, ok := next(src)
		if !ok {
			t.Fatalf("ref %d: stream ended early (err=%v)", i, src.Err())
		}
		if got != want {
			t.Fatalf("ref %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, ok := next(src); ok {
		t.Fatal("refs past the end")
	}
	if err := src.Err(); err != nil {
		t.Fatalf("clean end: Err=%v", err)
	}
}

func TestFileSourceCorruption(t *testing.T) {
	enc := encodeChunked(t, testRefs(30), 10)
	// Flip a payload byte of the second chunk: the source must deliver
	// chunk one, then stop with a corruption error instead of panicking
	// or fabricating references.
	bad := bytes.Clone(enc)
	bad[len(bad)-3] ^= 0xff
	src := openChunked(t, bad)
	n := len(collect(src))
	if err := src.Err(); !errors.Is(err, ErrCorruptChunk) {
		t.Fatalf("Err=%v, want ErrCorruptChunk", err)
	}
	if n%10 != 0 || n >= 30 {
		t.Fatalf("delivered %d refs before the corrupt chunk", n)
	}
}

func TestChunkedCorruptionDetected(t *testing.T) {
	refs := testRefs(40)
	enc := encodeChunked(t, refs, 16)
	cases := map[string]func([]byte){
		"magic":       func(b []byte) { b[0] ^= 0x01 },
		"count":       func(b []byte) { b[8] ^= 0x01 },
		"crc":         func(b []byte) { b[10] ^= 0x01 },
		"payload":     func(b []byte) { b[20] ^= 0x80 },
		"lastPayload": func(b []byte) { b[len(b)-1] ^= 0x40 },
	}
	for name, corrupt := range cases {
		bad := bytes.Clone(enc)
		corrupt(bad)
		if _, err := decodeChunked(bad); err == nil {
			t.Errorf("%s corruption decoded cleanly", name)
		}
	}
}

func TestChunkedTruncationDetected(t *testing.T) {
	refs := testRefs(24)
	enc := encodeChunked(t, refs, 8)
	for cut := 0; cut < len(enc); cut++ {
		got, err := decodeChunked(enc[:cut])
		if err == nil {
			// A cut exactly at a chunk boundary is a clean shorter
			// trace; anything recovered must be a prefix.
			for i := range got {
				if got[i] != refs[i] {
					t.Fatalf("cut %d: ref %d diverged", cut, i)
				}
			}
			if len(got)%8 != 0 {
				t.Fatalf("cut %d: clean decode of %d refs not at a chunk boundary", cut, len(got))
			}
		}
	}
}

func TestWriteChunkPreservesOrder(t *testing.T) {
	refs := testRefs(30)
	var buf bytes.Buffer
	w := NewChunkWriter(&buf, 1000) // large: only explicit cuts
	for _, r := range refs[:10] {
		if err := w.WriteRef(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.WriteChunk(refs[10:25]); err != nil {
		t.Fatal(err)
	}
	for _, r := range refs[25:] {
		if err := w.WriteRef(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 30 {
		t.Fatalf("Count = %d, want 30", w.Count())
	}
	got, err := decodeChunked(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(refs) {
		t.Fatalf("decoded %d refs, want %d", len(got), len(refs))
	}
	for i := range refs {
		if got[i] != refs[i] {
			t.Fatalf("ref %d: got %+v, want %+v", i, got[i], refs[i])
		}
	}
}

// TestSniffFormat pins how OpenSource tells inputs apart by their
// header: a chunked trace opens, a file in the retired flat format is
// refused with a hint to regenerate it, and anything else is refused as
// not a trace.
func TestSniffFormat(t *testing.T) {
	if _, err := OpenSource(bytes.NewReader(encodeChunked(t, testRefs(3), 0))); err != nil {
		t.Fatalf("chunked: %v", err)
	}
	flat := append(flatMagic[:], 0, 0, 0x10)
	_, err := OpenSource(bytes.NewReader(flat))
	if !errors.Is(err, ErrBadMagic) || !strings.Contains(err.Error(), "regenerate the file with tracedump") {
		t.Fatalf("flat: err=%v, want ErrBadMagic with a regeneration hint", err)
	}
	for _, in := range []string{"", "short", "not a trace file"} {
		_, err := OpenSource(strings.NewReader(in))
		if !errors.Is(err, ErrBadMagic) || strings.Contains(err.Error(), "flat") {
			t.Fatalf("%q: err=%v, want plain ErrBadMagic", in, err)
		}
	}
}

// TestSplitByCPUReportsReadError pins that a damaged trace file fails
// the split instead of yielding a short trace: a truncated file and a
// CRC failure each come back as ErrCorruptChunk.
func TestSplitByCPUReportsReadError(t *testing.T) {
	enc := encodeChunked(t, testRefs(40), 16)
	crc := bytes.Clone(enc)
	crc[len(crc)-1] ^= 0x40
	for name, bad := range map[string][]byte{
		"truncated": enc[:len(enc)*3/5],
		"crc":       crc,
	} {
		per, err := SplitByCPU(openChunked(t, bad), 4)
		if !errors.Is(err, ErrCorruptChunk) || per != nil {
			t.Errorf("%s: split=%v err=%v, want ErrCorruptChunk", name, per, err)
		}
	}
}
