// Package store is the content-addressed result cache: the one
// in-process copy of every completed simulation outcome (and every
// campaign's list of cells), keyed by its canonical key. It is the
// experiment.Runner's memo, which checks it before its singleflight
// table and a compute call. Given a directory, each record is also
// appended to an integrity-checked on-disk log, so results survive a
// restart and warm the daemon's dedup chain (job table → store →
// singleflight → peer or local simulation) on boot — the paper's
// remove-redundant-work lesson applied across process lifetimes, not
// just across requests.
//
// The on-disk format reuses the corruption-detecting framing of the
// chunked trace format (internal/trace): an 8-byte magic + version
// header, then self-delimiting records of
//
//	uvarint  payload length (bytes)
//	[4]      CRC-32 (IEEE) of the payload, little-endian
//	payload  one JSON-encoded Record
//
// Because every record declares its length and carries a checksum,
// replay skips a bit-rotted record (CRC mismatch on a structurally
// complete frame) and cleanly stops at a torn tail write (truncated
// frame), truncating the file back to the last good boundary so the
// log stays appendable. Both skip classes are counted and surfaced in
// Stats for the metrics endpoint and the boot log.
package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"oscachesim/internal/core"
	"oscachesim/internal/kernel"
	"oscachesim/internal/stats"
	"oscachesim/internal/workload"
)

// logMagic identifies result-store log files; the trailing byte is the
// format version.
var logMagic = [8]byte{'o', 's', 'r', 'e', 's', 'l', 0, 1}

// logName is the log's file name inside the store directory.
const logName = "results.log"

// maxRecordPayload bounds a declared payload so a corrupt length field
// cannot drive a huge allocation; real records are a few KB.
const maxRecordPayload = 1 << 26

// Record is one stored result. A "run" record carries the counters
// needed to reconstruct a servable core.Outcome, and only what its key
// determines: a recomputed key yields an equal record, StoredAt aside.
// Fields older logs hold beyond these (the producer's gen_stalls and
// gen_stall_ns) are ignored on replay. A "campaign" record
// carries the server's campaign view as raw JSON, since that shape
// belongs to the API layer, not this package: its cells' keys, whose
// run records hold the results. Kind is opaque here: logs written before the sweep job kind
// was retired may still hold "sweep" records, which the server does not
// serve.
type Record struct {
	// Key is the content address (core.RunConfig.CanonicalKey for
	// runs; the server's "campaign:..." hashes otherwise).
	Key string `json:"key"`
	// Kind is "run" or "campaign".
	Kind string `json:"kind"`
	// SimVersion is the simulator semantics the result was computed
	// under. Replay drops records from other versions: their keys can
	// never be asked for again (the version is hashed into every key),
	// so keeping them would only grow the index.
	SimVersion string `json:"sim_version"`
	// StoredAt is the append time.
	StoredAt time.Time `json:"stored_at"`

	// Run payload (Kind == "run").
	Workload string          `json:"workload,omitempty"`
	System   string          `json:"system,omitempty"`
	Refs     uint64          `json:"refs,omitempty"`
	Counters *stats.Counters `json:"counters,omitempty"`
	// Deferred carries the kernel's Table 4 counters; nil in records
	// written before it was added.
	Deferred *kernel.DeferredCopyStats `json:"deferred,omitempty"`

	// View payload (Kind == "campaign"): the server's campaign view,
	// opaque to this package.
	View json.RawMessage `json:"view,omitempty"`
}

// RecordOf renders a completed run outcome as its durable record.
func RecordOf(key string, o *core.Outcome) *Record {
	c, d := o.Counters, o.Deferred
	return &Record{
		Key:        key,
		Kind:       "run",
		SimVersion: core.SimVersion,
		StoredAt:   time.Now().UTC(),
		Workload:   string(o.Config.Workload),
		System:     o.Config.System.String(),
		Refs:       o.Refs,
		Counters:   &c,
		Deferred:   &d,
	}
}

// Outcome reconstructs a servable outcome from a run record: the
// counters, reference count, Table 4 deferred-copy counters and
// identifying config fields every API summary, report projection and
// paper experiment reads. Execution-local detail that
// never leaves the producing process (stage wall clock, generation
// stalls, per-CPU clocks, conflict censuses) is absent — by design, those describe an
// execution, not a result. Returns an error for a nil or non-run
// record.
func (r *Record) Outcome() (*core.Outcome, error) {
	if r == nil {
		return nil, errors.New("store: no record")
	}
	if r.Kind != "run" || r.Counters == nil {
		return nil, fmt.Errorf("store: record %s is %q, not a run result", r.Key, r.Kind)
	}
	sys, err := core.ParseSystem(r.System)
	if err != nil {
		return nil, fmt.Errorf("store: record %s: %w", r.Key, err)
	}
	o := &core.Outcome{
		Config: core.RunConfig{
			Workload: workload.Name(r.Workload),
			System:   sys,
		},
		Counters: *r.Counters,
		Refs:     r.Refs,
	}
	if r.Deferred != nil {
		o.Deferred = *r.Deferred
	}
	return o, nil
}

// Stats is a snapshot of the store's state for /v1/cluster and the
// metrics endpoint.
type Stats struct {
	// Records is the number of distinct keys held.
	Records int `json:"records"`
	// Replayed is how many records the boot replay loaded.
	Replayed int `json:"replayed"`
	// SkippedCorrupt counts replayed frames whose CRC failed (or whose
	// payload did not decode) — skipped, with the rest of the log kept.
	SkippedCorrupt int `json:"skipped_corrupt"`
	// SkippedTruncated counts torn tail frames: replay stopped there
	// and truncated the log back to the last good boundary.
	SkippedTruncated int `json:"skipped_truncated"`
	// DiskBytes is the log size (0 for a memory-only store).
	DiskBytes int64 `json:"disk_bytes"`
	// Dir is the store directory ("" for memory-only).
	Dir string `json:"dir,omitempty"`
}

// Store is a durable (or, with an empty directory, memory-only)
// content-addressed result store. Safe for concurrent use.
type Store struct {
	dir    string
	logger *slog.Logger // nil: no logging

	mu      sync.Mutex
	index   map[string]*Record
	file    *os.File // nil for memory-only
	size    int64
	replay  Stats
	scratch []byte
}

// Open opens (or creates) the store under dir, replaying the existing
// log into the in-memory index. dir == "" opens a memory-only store —
// same API, nothing persisted — so callers need no special case when
// durability is not configured. logger, when non-nil, receives one
// summary line of the replay, one warning when records were skipped,
// and one warning per failed append.
func Open(dir string, logger *slog.Logger) (*Store, error) {
	s := &Store{dir: dir, logger: logger, index: make(map[string]*Record)}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := s.replayLog(f); err != nil {
		f.Close()
		return nil, err
	}
	s.file = f
	if logger != nil {
		logger.Info("result store opened", "dir", dir,
			"records", len(s.index), "replayed", s.replay.Replayed,
			"skipped_corrupt", s.replay.SkippedCorrupt,
			"skipped_truncated", s.replay.SkippedTruncated)
		if s.replay.SkippedCorrupt+s.replay.SkippedTruncated > 0 {
			logger.Warn("result store skipped unreadable records",
				"skipped_corrupt", s.replay.SkippedCorrupt,
				"skipped_truncated", s.replay.SkippedTruncated)
		}
	}
	return s, nil
}

// replayLog loads every readable record of f into the index, counts
// the unreadable ones, and truncates a torn tail so the log ends at a
// record boundary.
func (s *Store) replayLog(f *os.File) error {
	info, err := f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if info.Size() < int64(len(logMagic)) {
		// A fresh log, or one torn while its header was being stamped:
		// (re)stamp the header. Any other short file is foreign.
		head := make([]byte, info.Size())
		if _, err := f.ReadAt(head, 0); err != nil || !bytes.HasPrefix(logMagic[:], head) {
			return fmt.Errorf("store: %s is not a result store log", f.Name())
		}
		if _, err := f.WriteAt(logMagic[:], 0); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.size = int64(len(logMagic))
		return nil
	}
	br := bufio.NewReaderSize(io.NewSectionReader(f, 0, info.Size()), 1<<16)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil || hdr != logMagic {
		return fmt.Errorf("store: %s is not a result store log", f.Name())
	}
	// good is the offset just past the last structurally complete
	// record; anything beyond it when replay stops is a torn tail.
	good := int64(len(logMagic))
	offset := good
	for {
		frameLen, payload, err := readFrame(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Structural damage: a torn tail write or a trashed length
			// field. Nothing past this point can be framed reliably.
			s.replay.SkippedTruncated++
			break
		}
		offset += frameLen
		good = offset
		if payload == nil {
			// Structurally complete frame, CRC mismatch: skip just it.
			s.replay.SkippedCorrupt++
			continue
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil || rec.Key == "" {
			s.replay.SkippedCorrupt++
			continue
		}
		if rec.SimVersion != core.SimVersion {
			// A different simulator version: its keys can never match a
			// future request, so the record is dead weight. Dropped from
			// the index (the bytes stay in the log, harmlessly).
			continue
		}
		if _, dup := s.index[rec.Key]; !dup {
			s.index[rec.Key] = &rec
			s.replay.Replayed++
		}
	}
	if good < info.Size() && s.replay.SkippedTruncated > 0 {
		// Cut the torn tail off so future appends land on a readable
		// boundary instead of extending garbage.
		if err := f.Truncate(good); err != nil {
			return fmt.Errorf("store: truncating torn tail: %w", err)
		}
	}
	s.size = good
	return nil
}

// readFrame reads one length+CRC+payload frame. It returns the decoded
// payload (nil when the frame is complete but its CRC fails), the
// frame's total encoded length, and io.EOF exactly at a clean record
// boundary. Any other error means the remaining bytes cannot be framed.
func readFrame(br *bufio.Reader) (frameLen int64, payload []byte, err error) {
	// The uvarint length, byte by byte so a clean EOF at a boundary is
	// distinguishable from a torn frame.
	first := true
	var plen uint64
	var shift uint
	var lenBytes int64
	for {
		b, rerr := br.ReadByte()
		if rerr != nil {
			if first && rerr == io.EOF {
				return 0, nil, io.EOF
			}
			return 0, nil, errors.New("store: torn frame header")
		}
		first = false
		lenBytes++
		plen |= uint64(b&0x7f) << shift
		if b < 0x80 {
			break
		}
		shift += 7
		if shift >= 64 {
			return 0, nil, errors.New("store: invalid frame length")
		}
	}
	if plen == 0 || plen > maxRecordPayload {
		return 0, nil, fmt.Errorf("store: implausible frame length %d", plen)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
		return 0, nil, errors.New("store: torn frame CRC")
	}
	payload = make([]byte, plen)
	if _, err := io.ReadFull(br, payload); err != nil {
		return 0, nil, errors.New("store: torn frame payload")
	}
	frameLen = lenBytes + 4 + int64(plen)
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(crcBuf[:]) {
		return frameLen, nil, nil
	}
	return frameLen, payload, nil
}

// Put stores a record. The first record for a key wins — results are
// content-addressed, so a second put for the same key is by
// construction the same result and is dropped without touching disk.
// The record is indexed even when its append fails, so the result
// stays servable for this process's lifetime; the error is returned
// and logged.
func (s *Store) Put(rec *Record) error {
	if rec == nil || rec.Key == "" {
		return errors.New("store: record needs a key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[rec.Key]; ok {
		return nil
	}
	s.index[rec.Key] = rec
	if s.file == nil {
		return nil
	}
	err := s.append(rec)
	if err != nil && s.logger != nil {
		s.logger.Warn("result store append failed; the result is served from memory only",
			"key", rec.Key, "err", err)
	}
	return err
}

// append writes rec's frame at the end of the log. The frame goes to
// offset s.size, not the file offset, so the torn bytes of a failed
// write are overwritten by the next frame instead of preceding it.
func (s *Store) append(rec *Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encoding %s: %w", rec.Key, err)
	}
	s.scratch = s.scratch[:0]
	s.scratch = binary.AppendUvarint(s.scratch, uint64(len(payload)))
	s.scratch = binary.LittleEndian.AppendUint32(s.scratch, crc32.ChecksumIEEE(payload))
	s.scratch = append(s.scratch, payload...)
	// One write per record: a torn frame from a crash mid-write is
	// exactly what replay's tail truncation repairs.
	if _, err := s.file.WriteAt(s.scratch, s.size); err != nil {
		return fmt.Errorf("store: appending %s: %w", rec.Key, err)
	}
	s.size += int64(len(s.scratch))
	return nil
}

// Get returns the record for key, or nil. The record is shared: treat
// it as immutable.
func (s *Store) Get(key string) *Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.index[key]
}

// Has reports whether key is stored.
func (s *Store) Has(key string) bool { return s.Get(key) != nil }

// Len returns the number of stored records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Stats returns a snapshot of the store's state.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.replay
	st.Records = len(s.index)
	st.DiskBytes = s.size
	st.Dir = s.dir
	if s.file == nil {
		st.DiskBytes = 0
	}
	return st
}

// Close releases the log file. The store stays usable in memory (Gets
// keep answering, Puts stop persisting), matching a drained daemon's
// needs while it finishes in-flight responses.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.file == nil {
		return nil
	}
	err := s.file.Close()
	s.file = nil
	return err
}
