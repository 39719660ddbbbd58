package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// The on-disk trace format is a sequence of self-contained,
// integrity-checked chunks of varint-encoded records, so recorded
// traces can be replayed with bounded memory:
//
//	[8]  chunk magic "osctrk" + version
//	per chunk:
//	  uvarint  ref count        (always > 0)
//	  uvarint  payload length   (bytes)
//	  [4]      CRC-32 (IEEE) of the payload, little-endian
//	  payload: count varint records (appendRecord), address deltas
//	           keyed off the previous ref of the same CPU, with the
//	           delta table reset at the chunk start
//
// Addresses are delta-encoded against the previous record of the same
// CPU, which compresses the strongly sequential instruction streams
// well. Because every chunk restarts the delta chain and declares its
// payload length, any chunk decodes knowing nothing about its
// predecessors. The CRC turns bit rot and truncation into clean errors
// instead of silently corrupted simulations.

// chunkMagic identifies chunked trace files; the trailing byte is the
// format version.
var chunkMagic = [8]byte{'o', 's', 'c', 't', 'r', 'k', 0, 1}

// flatMagic is the header of the retired flat trace format. It is
// recognized only to tell the user how to replace such a file.
var flatMagic = [8]byte{'o', 's', 'c', 't', 'r', 'c', 0, 1}

// ErrBadMagic reports that a reader's input does not start with a
// chunked trace file header.
var ErrBadMagic = errors.New("trace: bad magic (not a chunked trace file)")

// errFlatFormat reports a file in the retired flat format. Only
// tracedump ever wrote such files, deterministically from its flags, so
// each one can be regenerated in the chunked format.
var errFlatFormat = fmt.Errorf("%w: the flat trace format is retired; regenerate the file with tracedump -out", ErrBadMagic)

// OpenSource validates a chunked trace's header and returns a
// FileSource replaying the trace from r. It returns an error wrapping
// ErrBadMagic when r does not start with a chunked trace header; for a
// file in the retired flat format the error says how to replace it.
func OpenSource(r io.Reader) (*FileSource, error) {
	cr := NewChunkReader(r)
	if err := cr.start(); err != nil {
		return nil, err
	}
	return &FileSource{cr: cr, cur: GetBatch(DefaultChunkRefs)[:0]}, nil
}

// ErrCorruptChunk reports a structurally invalid or integrity-failing
// chunk: a bad header, a CRC mismatch, a payload that decodes to the
// wrong record count, or a mid-chunk truncation.
var ErrCorruptChunk = errors.New("trace: corrupt chunk")

// maxChunkPayload bounds a declared payload so corrupt headers cannot
// drive huge allocations (64 MB is far beyond any real chunk).
const maxChunkPayload = 1 << 26

// DefaultChunkRefs is the chunk granularity writers use when the
// caller does not choose.
const DefaultChunkRefs = 1 << 13

// flags bit layout inside the record header varint:
//
//	bits 0-2  Op
//	bits 3-4  Kind
//	bits 5-8  Class
//	bits 9-10 Role
//	bits 11-12 Sync
//	bit 13    has Block
//	bit 14    has SyncID
//	bit 15    has Spot
//	bit 16    has Len
//	bit 17    has Aux
const (
	flagHasBlock  = 1 << 13
	flagHasSyncID = 1 << 14
	flagHasSpot   = 1 << 15
	flagHasLen    = 1 << 16
	flagHasAux    = 1 << 17
)

// ChunkWriter encodes references into the chunked format, flushing a
// chunk whenever chunkRefs references have accumulated.
type ChunkWriter struct {
	w         *bufio.Writer
	chunkRefs int
	pend      []Ref
	payload   []byte
	hdr       []byte
	prevAddr  [256]uint64
	wrote     bool
	count     uint64
}

// NewChunkWriter returns a ChunkWriter over w cutting chunks of
// chunkRefs references (0 = DefaultChunkRefs). The file header is
// emitted on the first write (or Flush, for an empty trace).
func NewChunkWriter(w io.Writer, chunkRefs int) *ChunkWriter {
	if chunkRefs <= 0 {
		chunkRefs = DefaultChunkRefs
	}
	return &ChunkWriter{
		w:         bufio.NewWriterSize(w, 1<<16),
		chunkRefs: chunkRefs,
		pend:      make([]Ref, 0, chunkRefs),
		hdr:       make([]byte, 0, 2*binary.MaxVarintLen64+4),
	}
}

// WriteRef appends one reference, cutting a chunk when the pending
// buffer reaches the chunk size.
func (w *ChunkWriter) WriteRef(r Ref) error {
	w.pend = append(w.pend, r)
	w.count++
	if len(w.pend) >= w.chunkRefs {
		return w.flushChunk()
	}
	return nil
}

// WriteChunk writes refs as one chunk after flushing any pending
// references, preserving stream order for mixed callers.
func (w *ChunkWriter) WriteChunk(refs []Ref) error {
	if err := w.flushChunk(); err != nil {
		return err
	}
	w.pend = append(w.pend, refs...)
	w.count += uint64(len(refs))
	return w.flushChunk()
}

// Count returns the number of references written so far.
func (w *ChunkWriter) Count() uint64 { return w.count }

// Flush cuts a final chunk from any pending references and flushes the
// underlying writer. Callers must Flush before reading the trace back.
func (w *ChunkWriter) Flush() error {
	if err := w.flushChunk(); err != nil {
		return err
	}
	if !w.wrote {
		// An empty trace still gets a header so readers can tell
		// "empty trace" from "not a trace".
		if _, err := w.w.Write(chunkMagic[:]); err != nil {
			return err
		}
		w.wrote = true
	}
	return w.w.Flush()
}

// flushChunk encodes and emits the pending references as one chunk.
func (w *ChunkWriter) flushChunk() error {
	if len(w.pend) == 0 {
		return nil
	}
	if !w.wrote {
		if _, err := w.w.Write(chunkMagic[:]); err != nil {
			return err
		}
		w.wrote = true
	}
	// Chunks are self-contained: the delta chain restarts here.
	clear(w.prevAddr[:])
	w.payload = w.payload[:0]
	for _, r := range w.pend {
		w.payload = appendRecord(w.payload, &w.prevAddr, r)
	}
	w.hdr = w.hdr[:0]
	w.hdr = binary.AppendUvarint(w.hdr, uint64(len(w.pend)))
	w.hdr = binary.AppendUvarint(w.hdr, uint64(len(w.payload)))
	w.hdr = binary.LittleEndian.AppendUint32(w.hdr, crc32.ChecksumIEEE(w.payload))
	if _, err := w.w.Write(w.hdr); err != nil {
		return err
	}
	if _, err := w.w.Write(w.payload); err != nil {
		return err
	}
	w.pend = w.pend[:0]
	return nil
}

// ChunkReader decodes a chunked trace file chunk by chunk.
type ChunkReader struct {
	r       *bufio.Reader
	payload []byte
	started bool
}

// NewChunkReader returns a ChunkReader over r. The header is validated
// on the first read.
func NewChunkReader(r io.Reader) *ChunkReader {
	return &ChunkReader{r: bufio.NewReaderSize(r, 1<<16)}
}

// start validates the file header once.
func (r *ChunkReader) start() error {
	if r.started {
		return nil
	}
	var got [8]byte
	if _, err := io.ReadFull(r.r, got[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return ErrBadMagic
		}
		return err
	}
	if got == flatMagic {
		return errFlatFormat
	}
	if got != chunkMagic {
		return ErrBadMagic
	}
	r.started = true
	return nil
}

// header reads and validates one chunk header. io.EOF exactly at a
// chunk boundary is the clean end of stream.
func (r *ChunkReader) header() (count, payloadLen int, crc uint32, err error) {
	if err := r.start(); err != nil {
		return 0, 0, 0, err
	}
	c, err := binary.ReadUvarint(r.r)
	if err != nil {
		if err == io.EOF {
			return 0, 0, 0, io.EOF // clean end of stream
		}
		return 0, 0, 0, fmt.Errorf("%w: truncated header", ErrCorruptChunk)
	}
	pl, err := binary.ReadUvarint(r.r)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("%w: truncated header", ErrCorruptChunk)
	}
	var crcb [4]byte
	if _, err := io.ReadFull(r.r, crcb[:]); err != nil {
		return 0, 0, 0, fmt.Errorf("%w: truncated header", ErrCorruptChunk)
	}
	if pl == 0 || pl > maxChunkPayload {
		return 0, 0, 0, fmt.Errorf("%w: payload length %d out of range", ErrCorruptChunk, pl)
	}
	// Every record is at least 3 bytes (CPU byte, flags varint, delta
	// varint), so a count claiming more is structurally impossible and
	// must not size an allocation.
	if c == 0 || c*3 > pl {
		return 0, 0, 0, fmt.Errorf("%w: ref count %d impossible for %d payload bytes", ErrCorruptChunk, c, pl)
	}
	return int(c), int(pl), binary.LittleEndian.Uint32(crcb[:]), nil
}

// ReadChunk decodes the next chunk into dst (grown as needed from
// dst[:0]) and returns it. It returns io.EOF cleanly at the end of the
// stream and wraps ErrCorruptChunk on any integrity failure.
func (r *ChunkReader) ReadChunk(dst []Ref) ([]Ref, error) {
	count, payloadLen, crc, err := r.header()
	if err != nil {
		return nil, err
	}
	if cap(r.payload) < payloadLen {
		r.payload = make([]byte, payloadLen)
	}
	r.payload = r.payload[:payloadLen]
	if _, err := io.ReadFull(r.r, r.payload); err != nil {
		return nil, fmt.Errorf("%w: truncated payload", ErrCorruptChunk)
	}
	if got := crc32.ChecksumIEEE(r.payload); got != crc {
		return nil, fmt.Errorf("%w: CRC mismatch (%08x != %08x)", ErrCorruptChunk, got, crc)
	}
	dst = dst[:0]
	var prevAddr [256]uint64
	pos := 0
	for i := 0; i < count; i++ {
		ref, n, err := decodeRecord(r.payload[pos:], &prevAddr)
		if err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrCorruptChunk, i, err)
		}
		pos += n
		dst = append(dst, ref)
	}
	if pos != payloadLen {
		return nil, fmt.Errorf("%w: %d payload bytes left after %d records", ErrCorruptChunk, payloadLen-pos, count)
	}
	return dst, nil
}

// appendRecord encodes one reference as a varint record, delta-encoding
// the address against the previous record of the same CPU. ChunkWriter
// resets the prevAddr table at every chunk boundary so chunks stay
// self-contained.
func appendRecord(b []byte, prevAddr *[256]uint64, r Ref) []byte {
	flags := uint64(r.Op)&7 |
		uint64(r.Kind)&3<<3 |
		uint64(r.Class)&15<<5 |
		uint64(r.Role)&3<<9 |
		uint64(r.Sync)&3<<11
	if r.Block != 0 {
		flags |= flagHasBlock
	}
	if r.SyncID != 0 {
		flags |= flagHasSyncID
	}
	if r.Spot != 0 {
		flags |= flagHasSpot
	}
	if r.Len != 0 {
		flags |= flagHasLen
	}
	if r.Aux != 0 {
		flags |= flagHasAux
	}
	b = append(b, r.CPU)
	b = binary.AppendUvarint(b, flags)
	delta := int64(r.Addr) - int64(prevAddr[r.CPU])
	b = binary.AppendVarint(b, delta)
	prevAddr[r.CPU] = r.Addr
	if r.Block != 0 {
		b = binary.AppendUvarint(b, uint64(r.Block))
	}
	if r.SyncID != 0 {
		b = binary.AppendUvarint(b, uint64(r.SyncID))
	}
	if r.Spot != 0 {
		b = binary.AppendUvarint(b, uint64(r.Spot))
	}
	if r.Len != 0 {
		b = binary.AppendUvarint(b, uint64(r.Len))
	}
	if r.Aux != 0 {
		b = binary.AppendUvarint(b, r.Aux)
	}
	return b
}

// decodeRecord decodes one varint record from data, mirroring
// appendRecord. It returns the reference and the bytes consumed.
func decodeRecord(data []byte, prevAddr *[256]uint64) (Ref, int, error) {
	if len(data) == 0 {
		return Ref{}, 0, errors.New("truncated")
	}
	cpu := data[0]
	pos := 1
	flags, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return Ref{}, 0, errors.New("bad flags varint")
	}
	pos += n
	delta, n := binary.Varint(data[pos:])
	if n <= 0 {
		return Ref{}, 0, errors.New("bad address varint")
	}
	pos += n
	addr := uint64(int64(prevAddr[cpu]) + delta)
	prevAddr[cpu] = addr
	ref := Ref{
		Addr:  addr,
		CPU:   cpu,
		Op:    Op(flags & 7),
		Kind:  Kind(flags >> 3 & 3),
		Class: DataClass(flags >> 5 & 15),
		Role:  BlockRole(flags >> 9 & 3),
		Sync:  SyncOp(flags >> 11 & 3),
	}
	uvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return v, true
	}
	if flags&flagHasBlock != 0 {
		v, ok := uvarint()
		if !ok {
			return Ref{}, 0, errors.New("bad block varint")
		}
		ref.Block = uint32(v)
	}
	if flags&flagHasSyncID != 0 {
		v, ok := uvarint()
		if !ok {
			return Ref{}, 0, errors.New("bad syncid varint")
		}
		ref.SyncID = uint32(v)
	}
	if flags&flagHasSpot != 0 {
		v, ok := uvarint()
		if !ok {
			return Ref{}, 0, errors.New("bad spot varint")
		}
		ref.Spot = uint16(v)
	}
	if flags&flagHasLen != 0 {
		v, ok := uvarint()
		if !ok {
			return Ref{}, 0, errors.New("bad len varint")
		}
		ref.Len = uint32(v)
	}
	if flags&flagHasAux != 0 {
		v, ok := uvarint()
		if !ok {
			return Ref{}, 0, errors.New("bad aux varint")
		}
		ref.Aux = v
	}
	return ref, pos, nil
}

// FileSource replays a chunked trace with bounded memory: exactly one
// decoded chunk (a pooled batch) is resident at a time, whatever the
// file size. It implements Source; once the stream has ended, Err
// distinguishes a clean end of stream from corruption.
type FileSource struct {
	cr  *ChunkReader
	cur []Ref
	pos int
	err error
}

// Read implements Source. A batch that reaches the end of the decoded
// chunk comes back short; the next Read decodes the next chunk into the
// same buffer. The chunk buffer goes back to the trace pool when the
// stream ends.
func (s *FileSource) Read(dst []Ref) int {
	for s.pos >= len(s.cur) {
		if s.err != nil {
			return 0
		}
		chunk, err := s.cr.ReadChunk(s.cur)
		if err != nil {
			s.err = err
			PutBatch(s.cur)
			s.cur, s.pos = nil, 0
			return 0
		}
		s.cur, s.pos = chunk, 0
	}
	n := copy(dst, s.cur[s.pos:])
	s.pos += n
	return n
}

// Err returns nil after a clean end of stream, or the decode error
// that terminated the source.
func (s *FileSource) Err() error {
	if s.err == io.EOF {
		return nil
	}
	return s.err
}
