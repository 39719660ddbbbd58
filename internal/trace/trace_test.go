package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{KindUser: "user", KindOS: "os", KindIdle: "idle", Kind(9): "Kind(9)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestOpString(t *testing.T) {
	cases := map[Op]string{
		OpInstr: "instr", OpRead: "read", OpWrite: "write",
		OpPrefetch: "prefetch", OpBlockDMA: "blockdma", Op(7): "Op(7)",
	}
	for o, want := range cases {
		if got := o.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", o, got, want)
		}
	}
}

func TestOpIsData(t *testing.T) {
	if OpInstr.IsData() {
		t.Error("OpInstr.IsData() = true, want false")
	}
	for _, o := range []Op{OpRead, OpWrite, OpPrefetch, OpBlockDMA} {
		if !o.IsData() {
			t.Errorf("%v.IsData() = false, want true", o)
		}
	}
}

func TestDataClassString(t *testing.T) {
	if got := ClassLock.String(); got != "lock" {
		t.Errorf("ClassLock.String() = %q", got)
	}
	if got := DataClass(200).String(); !strings.Contains(got, "200") {
		t.Errorf("out-of-range class string = %q", got)
	}
}

func TestRefLine(t *testing.T) {
	r := Ref{Addr: 0x1234}
	if got := r.Line(16); got != 0x1230 {
		t.Errorf("Line(16) = %#x, want 0x1230", got)
	}
	if got := r.Line(64); got != 0x1200 {
		t.Errorf("Line(64) = %#x, want 0x1200", got)
	}
}

func TestRefString(t *testing.T) {
	r := Ref{Addr: 0x100, CPU: 2, Op: OpBlockDMA, Aux: 0x200, Len: 4096, Block: 7, Role: BlockSrc, Kind: KindOS}
	s := r.String()
	for _, want := range []string{"cpu2", "blockdma", "0x100", "0x200", "blk=7"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	r2 := Ref{Addr: 0x40, Op: OpRead, Sync: SyncLockAcquire, SyncID: 3, Class: ClassLock, Spot: 5}
	s2 := r2.String()
	for _, want := range []string{"sync=1", "id=3", "spot=5", "lock"} {
		if !strings.Contains(s2, want) {
			t.Errorf("String() = %q, missing %q", s2, want)
		}
	}
}

func TestSliceSource(t *testing.T) {
	refs := []Ref{{Addr: 1}, {Addr: 2}, {Addr: 3}}
	s := NewSliceSource(refs)
	if got := collect(s); !reflect.DeepEqual(got, refs) {
		t.Errorf("collect = %v, want %v", got, refs)
	}
	if _, ok := next(s); ok {
		t.Error("Read after exhaustion returned a reference")
	}
}

func randomRef(rng *rand.Rand) Ref {
	r := Ref{
		Addr:  rng.Uint64() & 0xffff_ffff,
		CPU:   uint8(rng.Intn(4)),
		Op:    Op(rng.Intn(5)),
		Kind:  Kind(rng.Intn(3)),
		Class: DataClass(rng.Intn(14)),
		Role:  BlockRole(rng.Intn(3)),
		Sync:  SyncOp(rng.Intn(4)),
	}
	if rng.Intn(2) == 0 {
		r.Block = rng.Uint32() >> 16
	}
	if r.Sync != SyncNone {
		r.SyncID = uint32(rng.Intn(1000)) + 1
	}
	if rng.Intn(4) == 0 {
		r.Spot = uint16(rng.Intn(100)) + 1
	}
	if r.Op == OpBlockDMA {
		r.Aux = rng.Uint64() & 0xffff_ffff
		r.Len = uint32(rng.Intn(4096)) + 1
	}
	return r
}

// encode writes refs as a chunked trace with the default chunk size,
// checking the writer's count.
func encode(t testing.TB, refs []Ref) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewChunkWriter(&buf, 0)
	for _, r := range refs {
		if err := w.WriteRef(r); err != nil {
			t.Fatalf("WriteRef: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if w.Count() != uint64(len(refs)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(refs))
	}
	return buf.Bytes()
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	refs := make([]Ref, 3*DefaultChunkRefs+5)
	for i := range refs {
		refs[i] = randomRef(rng)
	}
	src := openChunked(t, encode(t, refs))
	for i, want := range refs {
		got, ok := next(src)
		if !ok {
			t.Fatalf("ref %d: stream ended (err=%v)", i, src.Err())
		}
		if got != want {
			t.Fatalf("ref %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, ok := next(src); ok || src.Err() != nil {
		t.Errorf("after last ref: more=%t err=%v, want a clean end", ok, src.Err())
	}
}

func TestCodecEmptyTrace(t *testing.T) {
	src := openChunked(t, encode(t, nil))
	if _, ok := next(src); ok || src.Err() != nil {
		t.Errorf("empty trace: ref=%t err=%v, want a clean end", ok, src.Err())
	}
}

func TestCodecBadMagic(t *testing.T) {
	for _, in := range []string{"this is not a trace file", "shrt"} {
		if _, err := OpenSource(strings.NewReader(in)); !errors.Is(err, ErrBadMagic) {
			t.Errorf("%q: err = %v, want ErrBadMagic", in, err)
		}
	}
}

func TestCodecTruncated(t *testing.T) {
	refs := make([]Ref, 10)
	for i := range refs {
		refs[i] = Ref{Addr: uint64(i) * 0x1000, Block: 99999}
	}
	// Chop mid-record.
	enc := encode(t, refs)
	src := openChunked(t, enc[:len(enc)-2])
	if got := collect(src); len(got) != 0 {
		t.Errorf("truncated single-chunk trace delivered %d refs", len(got))
	}
	if src.Err() == nil {
		t.Error("truncated trace ended cleanly, want a corruption error")
	}
}

// TestReaderSource checks that OpenSource turns any io.Reader holding a
// chunked trace into a Source of its references.
func TestReaderSource(t *testing.T) {
	want := []Ref{{Addr: 0x10, Op: OpRead}, {Addr: 0x20, Op: OpWrite}}
	got := collect(openChunked(t, encode(t, want)))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

// Property: the codec round-trips any Ref whose fields are within their
// encodable ranges.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(addr uint64, cpu uint8, op, kind, class, role, sync uint8, block, syncID uint32, spot uint16, ln uint32, aux uint64) bool {
		want := Ref{
			Addr:   addr,
			CPU:    cpu,
			Op:     Op(op % 5),
			Kind:   Kind(kind % 3),
			Class:  DataClass(class % 14),
			Role:   BlockRole(role % 3),
			Sync:   SyncOp(sync % 4),
			Block:  block,
			SyncID: syncID,
			Spot:   spot,
			Len:    ln,
			Aux:    aux,
		}
		got, err := decodeChunked(encode(t, []Ref{want}))
		return err == nil && len(got) == 1 && got[0] == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	refs := []Ref{
		{Op: OpInstr, Kind: KindOS},
		{Op: OpRead, Kind: KindOS, Class: ClassLock, Block: 1},
		{Op: OpWrite, Kind: KindOS, Block: 1},
		{Op: OpRead, Kind: KindUser, Class: ClassUserData},
		{Op: OpPrefetch, Kind: KindOS},
		{Op: OpBlockDMA, Kind: KindOS, Block: 2, Len: 4096},
		{Op: OpRead, Kind: KindOS, Sync: SyncLockAcquire, SyncID: 1, Class: ClassLock},
	}
	s := Summarize(NewSliceSource(refs))
	if s.Total != 7 {
		t.Errorf("Total = %d, want 7", s.Total)
	}
	if s.DataReads != 3 || s.Writes != 1 || s.Instrs != 1 || s.Prefetch != 1 || s.DMAOps != 1 {
		t.Errorf("op counts: %+v", s)
	}
	if s.BlockOps != 2 {
		t.Errorf("BlockOps = %d, want 2", s.BlockOps)
	}
	if s.BlockRefs != 3 {
		t.Errorf("BlockRefs = %d, want 3", s.BlockRefs)
	}
	if s.Syncs != 1 {
		t.Errorf("Syncs = %d, want 1", s.Syncs)
	}
	if s.ByKind[KindUser] != 1 {
		t.Errorf("ByKind[user] = %d, want 1", s.ByKind[KindUser])
	}
	if s.ByClass[ClassLock] != 2 {
		t.Errorf("ByClass[lock] = %d, want 2", s.ByClass[ClassLock])
	}
}

func TestSplitByCPU(t *testing.T) {
	refs := []Ref{
		{Addr: 1, CPU: 0}, {Addr: 2, CPU: 1}, {Addr: 3, CPU: 0},
		{Addr: 4, CPU: 3}, {Addr: 5, CPU: 1},
	}
	per, err := SplitByCPU(openChunked(t, encode(t, refs)), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 4 {
		t.Fatalf("split into %d streams", len(per))
	}
	if len(per[0]) != 2 || per[0][0].Addr != 1 || per[0][1].Addr != 3 {
		t.Errorf("cpu0 stream = %v", per[0])
	}
	if len(per[1]) != 2 || per[1][0].Addr != 2 || per[1][1].Addr != 5 {
		t.Errorf("cpu1 stream = %v", per[1])
	}
	if len(per[2]) != 0 || len(per[3]) != 1 {
		t.Errorf("cpu2/3 streams = %v / %v", per[2], per[3])
	}

	// A reference from a processor the machine lacks is an error naming
	// both numbers, not a reference folded into another stream.
	refs = append(refs, Ref{Addr: 6, CPU: 9, Sync: SyncLockAcquire, SyncID: 3})
	per, err = SplitByCPU(openChunked(t, encode(t, refs)), 4)
	if err == nil {
		t.Fatalf("split = %v, want an error for cpu 9", per)
	}
	for _, want := range []string{"cpu 9", "4 processors"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("err = %q, missing %q", err, want)
		}
	}
}
