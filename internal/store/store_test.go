package store

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"oscachesim/internal/core"
)

// testOutcome runs one tiny real simulation so records carry genuine
// counters.
func testOutcome(t *testing.T) (*core.Outcome, string) {
	t.Helper()
	cfg := core.RunConfig{Workload: "TRFD_4", System: core.Base, Scale: 1, Seed: 1}
	o, err := core.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	return o, cfg.CanonicalKey()
}

func TestMemoryOnlyStore(t *testing.T) {
	s, err := Open("", nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	o, key := testOutcome(t)
	if err := s.Put(RecordOf(key, o)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if !s.Has(key) || s.Len() != 1 {
		t.Fatalf("Has=%v Len=%d, want stored", s.Has(key), s.Len())
	}
	st := s.Stats()
	if st.Records != 1 || st.DiskBytes != 0 || st.Dir != "" {
		t.Fatalf("unexpected stats %+v", st)
	}
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	o, key := testOutcome(t)

	s, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.Put(RecordOf(key, o)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// A second Put of the same key must not grow the log.
	before := s.Stats().DiskBytes
	if err := s.Put(RecordOf(key, o)); err != nil {
		t.Fatalf("duplicate Put: %v", err)
	}
	if got := s.Stats().DiskBytes; got != before {
		t.Fatalf("duplicate Put grew the log: %d -> %d", before, got)
	}
	if err := s.Put(&Record{Key: "view-key", Kind: "sweep", SimVersion: core.SimVersion,
		View: json.RawMessage(`{"points":[]}`)}); err != nil {
		t.Fatalf("Put view: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: both records replay.
	s2, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.Replayed != 2 || st.SkippedCorrupt != 0 || st.SkippedTruncated != 0 {
		t.Fatalf("unexpected replay stats %+v", st)
	}
	rec := s2.Get(key)
	if rec == nil {
		t.Fatal("run record missing after reopen")
	}
	got, err := rec.Outcome()
	if err != nil {
		t.Fatalf("Outcome: %v", err)
	}
	if got.Refs != o.Refs || got.Counters.Cycles != o.Counters.Cycles ||
		got.Counters.OSTime() != o.Counters.OSTime() ||
		got.Config.System != o.Config.System ||
		got.Config.Workload != o.Config.Workload {
		t.Fatalf("reconstructed outcome drifted: refs %d/%d cycles %d/%d",
			got.Refs, o.Refs, got.Counters.Cycles, o.Counters.Cycles)
	}
	if v := s2.Get("view-key"); v == nil || v.Kind != "sweep" || string(v.View) != `{"points":[]}` {
		t.Fatalf("view record drifted: %+v", v)
	}
}

// TestRecordIsPureFunctionOfKey pins that a run record holds only what
// its configuration determines: the same key recomputed into a fresh
// store yields an equal record apart from StoredAt, even when the two
// executions' producers stalled differently.
func TestRecordIsPureFunctionOfKey(t *testing.T) {
	o, key := testOutcome(t)
	again, _ := testOutcome(t)
	o.GenStalls, o.GenStallTime = 3, 5*time.Millisecond
	again.GenStalls, again.GenStallTime = 11, 40*time.Millisecond
	var recs []*Record
	for _, out := range []*core.Outcome{o, again} {
		s, err := Open(t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(RecordOf(key, out)); err != nil {
			t.Fatal(err)
		}
		rec := *s.Get(key)
		rec.StoredAt = time.Time{}
		recs = append(recs, &rec)
		s.Close()
	}
	a, _ := json.Marshal(recs[0])
	b, _ := json.Marshal(recs[1])
	if !bytes.Equal(a, b) {
		t.Errorf("recomputed record differs:\n%s\n%s", a, b)
	}
}

// TestReplayOldRunRecord pins that a log written while run records
// still carried the producer's gen_stalls and gen_stall_ns replays, and
// its record serves the same outcome.
func TestReplayOldRunRecord(t *testing.T) {
	o, key := testOutcome(t)
	var fields map[string]any
	raw, _ := json.Marshal(RecordOf(key, o))
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	fields["gen_stalls"], fields["gen_stall_ns"] = 7, 123456
	payload, _ := json.Marshal(fields)
	frame := append([]byte(nil), logMagic[:]...)
	frame = binary.AppendUvarint(frame, uint64(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	frame = append(frame, payload...)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.Replayed != 1 || st.SkippedCorrupt != 0 {
		t.Fatalf("replay stats %+v, want the one old record", st)
	}
	got, err := s.Get(key).Outcome()
	if err != nil {
		t.Fatal(err)
	}
	if got.Refs != o.Refs || got.Counters != o.Counters || got.GenStalls != 0 {
		t.Errorf("old record served refs %d stalls %d, want refs %d and no stalls", got.Refs, got.GenStalls, o.Refs)
	}
}

// viewRecord is a small record under key.
func viewRecord(key string) *Record {
	return &Record{Key: key, Kind: "campaign", SimVersion: core.SimVersion, View: json.RawMessage(`{}`)}
}

// TestShortWriteKeepsLaterRecords pins that a short append costs no
// later record: the next frame overwrites the torn bytes instead of
// landing after them, so replay reads every record and skips nothing.
func TestShortWriteKeepsLaterRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.Put(viewRecord("a-key")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// A short write: part of a frame reaches the end of the log.
	if _, err := s.file.Seek(0, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	if _, err := s.file.Write([]byte{0x40, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(viewRecord("b-key")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.Replayed != 2 || st.SkippedCorrupt != 0 || st.SkippedTruncated != 0 {
		t.Fatalf("replay stats %+v, want 2 records and no skips", st)
	}
}

// TestFailedAppendStaysServable pins that a record whose append fails
// is still indexed — the result stays servable for the process's
// lifetime — while the error is returned and logged.
func TestFailedAppendStaysServable(t *testing.T) {
	var logs bytes.Buffer
	s, err := Open(t.TempDir(), slog.New(slog.NewTextHandler(&logs, nil)))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s.file.Close() // the log becomes unwritable under the store
	rec := viewRecord("a-key")
	if err := s.Put(rec); err == nil {
		t.Fatal("Put on an unwritable log returned nil")
	}
	if got := s.Get(rec.Key); got != rec {
		t.Fatalf("Get after a failed append = %v, want the record", got)
	}
	if !strings.Contains(logs.String(), "level=WARN") {
		t.Errorf("failed append not logged as a warning:\n%s", logs.String())
	}
}

// appendRecords opens a store at dir and puts n distinct records,
// returning their keys.
func appendRecords(t *testing.T, dir string, n int) []string {
	t.Helper()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = string(rune('a'+i)) + "-key"
		if err := s.Put(&Record{Key: keys[i], Kind: "sweep", SimVersion: core.SimVersion,
			View: json.RawMessage(`{"i":` + string(rune('0'+i)) + `}`)}); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return keys
}

func TestReplaySkipsTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	keys := appendRecords(t, dir, 3)
	path := filepath.Join(dir, logName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read log: %v", err)
	}
	// Tear the last frame: drop its final 5 bytes (a crash mid-append).
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	s, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	st := s.Stats()
	if st.Replayed != 2 || st.SkippedTruncated != 1 {
		t.Fatalf("want 2 replayed + 1 truncated, got %+v", st)
	}
	if s.Has(keys[2]) {
		t.Fatal("torn record must not replay")
	}
	// The torn tail was cut: appending and reopening must work.
	if err := s.Put(&Record{Key: "after-tear", Kind: "sweep", SimVersion: core.SimVersion,
		View: json.RawMessage(`{}`)}); err != nil {
		t.Fatalf("Put after tear: %v", err)
	}
	s.Close()
	s2, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Replayed != 3 || st.SkippedTruncated != 0 {
		t.Fatalf("log not repaired: %+v", st)
	}
	if !s2.Has("after-tear") || !s2.Has(keys[0]) {
		t.Fatal("records lost across repair")
	}
}

func TestReplaySkipsCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	keys := appendRecords(t, dir, 2)
	// Remember where the second record starts so we can flip a payload
	// bit inside the FIRST record: the frame stays structurally intact,
	// its CRC fails, and the record after it must still replay.
	path := filepath.Join(dir, logName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read log: %v", err)
	}
	// Flip a byte well inside the first record's JSON payload.
	raw[len(logMagic)+10] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("corrupt: %v", err)
	}

	s, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	st := s.Stats()
	if st.Replayed != 1 || st.SkippedCorrupt != 1 || st.SkippedTruncated != 0 {
		t.Fatalf("want 1 replayed + 1 corrupt, got %+v", st)
	}
	if s.Has(keys[0]) {
		t.Fatal("corrupt record must not replay")
	}
	if !s.Has(keys[1]) {
		t.Fatal("record after the corrupt one must replay")
	}
}

func TestReplayDropsOtherSimVersions(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.Put(&Record{Key: "old", Kind: "sweep", SimVersion: "oscachesim/sim/v0",
		View: json.RawMessage(`{}`)}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put(&Record{Key: "new", Kind: "sweep", SimVersion: core.SimVersion,
		View: json.RawMessage(`{}`)}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	s.Close()
	s2, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if s2.Has("old") || !s2.Has("new") {
		t.Fatalf("version filter broken: old=%v new=%v", s2.Has("old"), s2.Has("new"))
	}
}

func TestOpenRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	// The second file is shorter than the header but not a torn one.
	for _, foreign := range []string{"not a store log at all", "osrx"} {
		if err := os.WriteFile(filepath.Join(dir, logName), []byte(foreign), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, nil); err == nil {
			t.Fatalf("Open accepted the foreign file %q", foreign)
		}
	}
}

// TestReplayCrashPoints cuts a 3-record log at every byte offset, as a
// crash mid-write can, and flips every byte past the header, as bit rot
// can. Open must survive each damaged log and replay only records that
// were written: after a cut, exactly those that end before it, in a log
// that takes a new record across a reopen.
func TestReplayCrashPoints(t *testing.T) {
	dir := t.TempDir()
	keys := appendRecords(t, dir, 3)
	path := filepath.Join(dir, logName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read log: %v", err)
	}
	written, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	written.Close()
	// ends[i] is the offset just past record i.
	var ends []int
	br := bufio.NewReader(bytes.NewReader(raw[len(logMagic):]))
	for off := len(logMagic); ; {
		n, _, err := readFrame(br)
		if err != nil {
			break
		}
		off += int(n)
		ends = append(ends, off)
	}
	if len(ends) != len(keys) || ends[len(ends)-1] != len(raw) {
		t.Fatalf("record ends %v in a %d-byte log of %d records", ends, len(raw), len(keys))
	}
	open := func(what string, data []byte) *Store {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, nil)
		if err != nil {
			t.Fatalf("%s: Open: %v", what, err)
		}
		return s
	}

	for cut := 0; cut <= len(raw); cut++ {
		what := fmt.Sprintf("cut at %d", cut)
		s := open(what, raw[:cut])
		for i, k := range keys {
			if s.Has(k) != (ends[i] <= cut) {
				t.Fatalf("%s: record %d (ends at %d) replayed=%v", what, i, ends[i], s.Has(k))
			}
		}
		want := s.Len() + 1
		if err := s.Put(&Record{Key: "after-crash", Kind: "sweep", SimVersion: core.SimVersion,
			View: json.RawMessage(`{}`)}); err != nil {
			t.Fatalf("%s: Put: %v", what, err)
		}
		s.Close()
		s2, err := Open(dir, nil)
		if err != nil {
			t.Fatalf("%s: reopen: %v", what, err)
		}
		if !s2.Has("after-crash") || s2.Len() != want {
			t.Fatalf("%s: reopen has %d records (after-crash %v), want %d", what, s2.Len(), s2.Has("after-crash"), want)
		}
		s2.Close()
	}

	for off := len(logMagic); off < len(raw); off++ {
		what := fmt.Sprintf("flip at %d", off)
		bad := bytes.Clone(raw)
		bad[off] ^= 0xff
		s := open(what, bad)
		if s.Len() > len(keys) {
			t.Fatalf("%s: replayed %d records from a log of %d", what, s.Len(), len(keys))
		}
		for _, k := range keys {
			if got := s.Get(k); got != nil && string(got.View) != string(written.Get(k).View) {
				t.Fatalf("%s: record %s replayed as %s", what, k, got.View)
			}
		}
		s.Close()
	}
}
