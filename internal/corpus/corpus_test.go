package corpus

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"koopmancrc"
	"koopmancrc/internal/journal"
)

// bakeSnapshot evaluates one fast 8-bit polynomial and exports its memo.
func bakeSnapshot(t *testing.T, koopman string) *koopmancrc.MemoSnapshot {
	t.Helper()
	ctx := context.Background()
	a := koopmancrc.NewAnalyzer(koopmancrc.MustPolynomial(8, koopmancrc.Koopman, koopman), koopmancrc.WithMaxHD(6))
	if _, err := a.Evaluate(ctx, 64); err != nil {
		t.Fatalf("Evaluate %s: %v", koopman, err)
	}
	snap, err := a.MemoSnapshot(ctx)
	if err != nil {
		t.Fatalf("MemoSnapshot %s: %v", koopman, err)
	}
	return snap
}

func TestStorePutGetAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	atm := bakeSnapshot(t, "0x83")
	darc := bakeSnapshot(t, "0x9c")

	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.Put(atm); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put(darc); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// An identical re-Put adds nothing and must not touch the WAL.
	if err := s.Put(atm); err != nil {
		t.Fatalf("re-Put: %v", err)
	}
	st := s.Stats()
	if st.Entries != 2 || st.Appends != 2 || st.Bytes == 0 || st.Facts == 0 {
		t.Fatalf("stats after puts = %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	got, ok := s2.Get(8, 0x83)
	if !ok {
		t.Fatalf("0x83 lost across reopen")
	}
	if !reflect.DeepEqual(got, atm) {
		t.Fatalf("0x83 changed across reopen:\n got %+v\nwant %+v", got, atm)
	}
	if _, ok := s2.Get(8, 0x9c); !ok {
		t.Fatalf("0x9c lost across reopen")
	}
	if _, ok := s2.Get(8, 0xea); ok {
		t.Fatalf("Get invented an entry")
	}
	if keys := s2.Keys(); len(keys) != 2 || keys[0] != (Key{8, 0x83}) || keys[1] != (Key{8, 0x9c}) {
		t.Fatalf("Keys = %v", keys)
	}
	// Get returns a copy: mutating it must not corrupt the store.
	got.Bounds = nil
	if again, _ := s2.Get(8, 0x83); len(again.Bounds) == 0 {
		t.Fatalf("Get returned an aliased entry")
	}
}

func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{CompactEvery: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	snap := bakeSnapshot(t, "0x83")
	// Grow the entry across Puts so each one reaches the WAL.
	first := &koopmancrc.MemoSnapshot{Version: 1, Width: 8, Poly: 0x83,
		Bounds: []koopmancrc.BoundMemo{{Weight: 2, ClearTo: 10}}}
	for i, p := range []*koopmancrc.MemoSnapshot{first, snap, bakeSnapshot(t, "0x9c"), bakeSnapshot(t, "0xea")} {
		if err := s.Put(p); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if st := s.Stats(); st.Compactions != 2 {
		t.Fatalf("stats = %+v, want 2 compactions (every 2 appends)", st)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	got, ok := s2.Get(8, 0x83)
	if !ok {
		t.Fatalf("0x83 lost across compaction")
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("0x83 after compaction:\n got %+v\nwant %+v", got, snap)
	}
	if len(s2.Keys()) != 3 {
		t.Fatalf("Keys = %v", s2.Keys())
	}
}

// TestTornTailTruncated extends internal/journal's torn-tail guarantee
// to the corpus record schema: a crash mid-append leaves a partial memo
// line, and the corpus must open with every complete record and none of
// the tail.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	atm := bakeSnapshot(t, "0x83")
	if err := s.Put(atm); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.j.Close(); err != nil { // crash: skip Close's compaction
		t.Fatalf("close journal: %v", err)
	}

	wal := filepath.Join(dir, "wal.jlog")
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	if _, err := f.WriteString(`deadbeef {"seq":2,"type":"memo","data":{"version":1,"width":8,"poly":156`); err != nil {
		t.Fatalf("tear wal: %v", err)
	}
	f.Close()

	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.TruncatedAtOpen == 0 {
		t.Fatalf("torn tail not reported: %+v", st)
	}
	got, ok := s2.Get(8, 0x83)
	if !ok || !reflect.DeepEqual(got, atm) {
		t.Fatalf("complete record damaged by torn-tail recovery: ok=%v", ok)
	}
	if _, ok := s2.Get(8, 0x9c); ok {
		t.Fatalf("torn record served as knowledge")
	}
}

// TestCorruptRecordTruncatesSuffix flips a byte inside a durable memo
// record: the CRC catches it and the record (plus everything after it)
// is dropped, never decoded into answers.
func TestCorruptRecordTruncatesSuffix(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	atm := bakeSnapshot(t, "0x83")
	darc := bakeSnapshot(t, "0x9c")
	if err := s.Put(atm); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put(darc); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.j.Close(); err != nil {
		t.Fatalf("close journal: %v", err)
	}

	wal := filepath.Join(dir, "wal.jlog")
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	// Corrupt a byte in the middle of the second record's JSON body.
	lines := 0
	pos := -1
	for i, b := range data {
		if b == '\n' {
			lines++
			if lines == 1 {
				pos = i + 20
				break
			}
		}
	}
	if pos < 0 || pos >= len(data) {
		t.Fatalf("wal too short to corrupt: %d bytes", len(data))
	}
	data[pos] ^= 0x40
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatalf("write wal: %v", err)
	}

	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("reopen over corrupt record: %v", err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.TruncatedAtOpen == 0 {
		t.Fatalf("corruption not reported: %+v", st)
	}
	if got, ok := s2.Get(8, 0x83); !ok || !reflect.DeepEqual(got, atm) {
		t.Fatalf("record before the corruption damaged")
	}
	if _, ok := s2.Get(8, 0x9c); ok {
		t.Fatalf("corrupt record served as knowledge")
	}
}

// TestInvalidContentSkipped covers the other failure class: a record
// whose CRC is fine (it was durably written) but whose content fails
// snapshot validation. It must be skipped and counted, not served.
func TestInvalidContentSkipped(t *testing.T) {
	dir := t.TempDir()
	j, _, err := journal.Open(dir)
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	atm := bakeSnapshot(t, "0x83")
	if err := j.Append(recType, atm); err != nil {
		t.Fatalf("append valid: %v", err)
	}
	// Exact boundary without a first length: well-formed JSON, invalid memo.
	if err := j.Append(recType, map[string]any{
		"version": 1, "width": 8, "poly": 0x9c,
		"bounds": []map[string]any{{"weight": 2, "exact": true}},
	}); err != nil {
		t.Fatalf("append invalid: %v", err)
	}
	if err := j.Append("unrelated", map[string]any{"x": 1}); err != nil {
		t.Fatalf("append foreign: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close journal: %v", err)
	}

	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	st := s.Stats()
	if st.SkippedAtOpen != 2 {
		t.Fatalf("SkippedAtOpen = %d, want 2 (invalid memo + foreign type)", st.SkippedAtOpen)
	}
	if _, ok := s.Get(8, 0x9c); ok {
		t.Fatalf("invalid record served as knowledge")
	}
	if got, ok := s.Get(8, 0x83); !ok || !reflect.DeepEqual(got, atm) {
		t.Fatalf("valid record lost alongside the invalid one")
	}
}

func TestPutRejectsInvalidAndClosed(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.Put(&koopmancrc.MemoSnapshot{Version: 1, Width: 1, Poly: 1}); err == nil {
		t.Fatalf("Put accepted an invalid snapshot")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.Put(bakeSnapshot(t, "0x83")); err == nil {
		t.Fatalf("Put accepted after Close")
	}
	// Gets keep answering from memory after Close.
	if _, ok := s.Get(8, 0x83); ok {
		t.Fatalf("closed empty store invented an entry")
	}
}

// TestPutRejectsContradiction checks that a Put whose facts contradict
// the stored ones (a clear prefix past the stored hit) fails and leaves
// the stored entry as it was, in memory and on disk.
func TestPutRejectsContradiction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	hit := &koopmancrc.MemoSnapshot{Version: 1, Width: 8, Poly: 0x83,
		Bounds: []koopmancrc.BoundMemo{{Weight: 5, HitAt: 5, Witness: []int{0, 1, 2, 3, 4}}}}
	if err := s.Put(hit); err != nil {
		t.Fatalf("Put: %v", err)
	}
	clear := &koopmancrc.MemoSnapshot{Version: 1, Width: 8, Poly: 0x83,
		Bounds: []koopmancrc.BoundMemo{{Weight: 5, ClearTo: 10}}}
	if err := s.Put(clear); err == nil {
		t.Fatalf("Put stored a clear prefix past the stored hit")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if got, ok := s2.Get(8, 0x83); !ok || !reflect.DeepEqual(got, hit) {
		t.Fatalf("stored entry = %+v, want %+v", got, hit)
	}
}
