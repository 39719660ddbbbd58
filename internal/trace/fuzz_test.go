package trace

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzCodecRoundTrip encodes two arbitrary references (two, so the
// per-CPU address delta chain is exercised) into one chunk and decodes
// them back. The writer masks the enum fields to their header bit
// widths, so the comparison applies the same masks.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0),
		uint64(0), uint32(0), uint32(0), uint16(0), uint32(0), uint64(0), uint64(0))
	f.Add(uint8(3), uint8(1), uint8(2), uint8(5), uint8(1), uint8(2),
		uint64(0x10f000), uint32(7), uint32(99), uint16(11), uint32(4096), uint64(0x20f000), uint64(0xfffffffffffff000))
	f.Add(uint8(255), uint8(7), uint8(3), uint8(15), uint8(3), uint8(3),
		^uint64(0), ^uint32(0), ^uint32(0), ^uint16(0), ^uint32(0), ^uint64(0), uint64(1))
	f.Fuzz(func(t *testing.T, cpu, op, kind, class, role, sync uint8,
		addr uint64, block, syncID uint32, spot uint16, length uint32, aux, addr2 uint64) {
		in := []Ref{
			{
				Addr: addr, CPU: cpu, Op: Op(op), Kind: Kind(kind),
				Class: DataClass(class), Role: BlockRole(role), Sync: SyncOp(sync),
				Block: block, SyncID: syncID, Spot: spot, Len: length, Aux: aux,
			},
			{Addr: addr2, CPU: cpu, Op: Op(op & 1)},
		}
		got, err := decodeChunked(encodeChunked(t, in, 0))
		if err != nil || len(got) != len(in) {
			t.Fatalf("decoded %d refs, err %v; want %d", len(got), err, len(in))
		}
		for i, want := range in {
			// The header stores the enums in fixed-width bit fields.
			want.Op &= 7
			want.Kind &= 3
			want.Class &= 15
			want.Role &= 3
			want.Sync &= 3
			if got[i] != want {
				t.Fatalf("ref %d round-trip:\n got %+v\nwant %+v", i, got[i], want)
			}
		}
	})
}

// FuzzChunkCodec exercises the chunked delta codec three ways from one
// input: a clean encode→decode round trip must reproduce the exact
// references; a single-byte corruption must never panic and, when it
// decodes at all, must still yield the original references (the CRC and
// header validation otherwise reject it); a truncation must never panic
// and may only recover a chunk-aligned prefix.
func FuzzChunkCodec(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint64(0x1000), uint64(0), uint16(0), uint8(0), uint16(0))
	f.Add(uint8(9), uint8(3), uint64(0xfffffffffffff000), uint64(0x2000), uint16(11), uint8(0x80), uint16(5))
	f.Add(uint8(20), uint8(255), uint64(1), ^uint64(0), uint16(999), uint8(1), uint16(999))
	f.Fuzz(func(t *testing.T, n, cpuSeed uint8, addrSeed, auxSeed uint64, pos uint16, xor uint8, trunc uint16) {
		count := int(n%24) + 1
		refs := make([]Ref, count)
		for i := range refs {
			refs[i] = Ref{
				Addr:  addrSeed + uint64(i)*(auxSeed|1),
				CPU:   cpuSeed + uint8(i%3),
				Op:    Op(i) & 7,
				Kind:  Kind(i) & 3,
				Class: DataClass(i) & 15,
				Role:  BlockRole(i) & 3,
				Sync:  SyncOp(i>>1) & 3,
			}
			if i%4 == 1 {
				refs[i].Aux = auxSeed
				refs[i].Len = uint32(addrSeed)
			}
			if i%4 == 2 {
				refs[i].Block = uint32(auxSeed >> 5)
				refs[i].Spot = uint16(addrSeed >> 3)
			}
			if i%4 == 3 {
				refs[i].SyncID = uint32(addrSeed >> 7)
			}
		}
		enc := encodeChunked(t, refs, 5) // multi-chunk for count > 5

		// 1. Round trip.
		got, err := decodeChunked(enc)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if len(got) != count {
			t.Fatalf("round trip: %d refs, want %d", len(got), count)
		}
		for i := range refs {
			if got[i] != refs[i] {
				t.Fatalf("round trip ref %d: got %+v, want %+v", i, got[i], refs[i])
			}
		}

		// 2. Single-byte corruption: must error or decode unchanged,
		// never panic.
		if xor != 0 {
			bad := append([]byte(nil), enc...)
			bad[int(pos)%len(bad)] ^= xor
			if mangled, err := decodeChunked(bad); err == nil {
				if len(mangled) != count {
					t.Fatalf("corruption decoded cleanly to %d refs, want %d", len(mangled), count)
				}
				for i := range refs {
					if mangled[i] != refs[i] {
						t.Fatalf("corruption decoded cleanly to different ref %d", i)
					}
				}
			}
		}

		// 3. Truncation: must error or recover a chunk-aligned prefix,
		// never panic.
		cut := int(trunc) % (len(enc) + 1)
		if prefix, err := decodeChunked(enc[:cut]); err == nil {
			if len(prefix) > count {
				t.Fatalf("truncation decoded %d refs from %d", len(prefix), count)
			}
			for i := range prefix {
				if prefix[i] != refs[i] {
					t.Fatalf("truncated decode diverged at ref %d", i)
				}
			}
		}
	})
}

// FuzzDecodeRobust feeds arbitrary bytes to the trace reader: it must
// terminate with a clean end or a clean error (never panic, never
// loop), and inputs that do not start with the trace magic must report
// ErrBadMagic.
func FuzzDecodeRobust(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not a trace file at all"))
	f.Add(encodeChunked(f, nil, 0))
	f.Add(encodeChunked(f, []Ref{
		{Addr: 0x1000, CPU: 0, Op: OpRead, Kind: KindOS, Class: ClassLock, Block: 3, Len: 4096},
		{Addr: 0x1020, CPU: 1, Op: OpWrite, Aux: 0x2000},
	}, 0))
	// A valid header followed by a truncated chunk.
	valid := encodeChunked(f, []Ref{{Addr: 0x5000, CPU: 2, Op: OpInstr}}, 0)
	f.Add(valid[:len(valid)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		src, err := OpenSource(bytes.NewReader(data))
		if len(data) < 8 || !bytes.Equal(data[:8], chunkMagic[:]) {
			if !errors.Is(err, ErrBadMagic) {
				t.Fatalf("bad header opened without ErrBadMagic: %v", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("trace header refused: %v", err)
		}
		// Every record takes at least 3 bytes, so more refs than input
		// bytes would mean the reader invents data.
		n := 0
		buf := make([]Ref, 64)
		for k := src.Read(buf); k > 0; k = src.Read(buf) {
			if n += k; n > len(data) {
				t.Fatalf("decoded more records (%d) than input bytes (%d)", n, len(data))
			}
		}
	})
}
