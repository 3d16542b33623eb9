// Package corpus is the persistent analysis corpus: a disk-backed,
// crash-safe store of Analyzer memo snapshots keyed by polynomial,
// layered on internal/journal's CRC-protected WAL with snapshot
// compaction.
//
// The corpus is what turns evaluation from a per-process cost into a
// one-time cost: bake the paper's survey space offline (internal/dist),
// then warm-start any number of serving sessions from the store with
// zero engine probes. Every record is a koopmancrc.MemoSnapshot — pure
// monotone facts about one polynomial — so concurrent writers, crashes
// mid-append and replay in any order all converge on the union of
// knowledge, never a conflict.
//
// Crash safety is inherited from the journal: a torn final line or a
// CRC-corrupt suffix is truncated at open (reported in Stats, never an
// error), and compaction commits via atomic rename. On top of that the
// corpus validates every replayed snapshot and skips — rather than
// serves — any record that is well-formed JSON but semantically invalid,
// so a software bug in a past writer can not become a wrong answer now.
package corpus

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"koopmancrc"
	"koopmancrc/internal/journal"
)

// recType is the WAL record type of one memo snapshot append.
const recType = "memo"

// storeVersion versions the compacted snapshot document.
const storeVersion = 1

// DefaultCompactEvery is the number of WAL appends after which the
// store compacts into a fresh snapshot (see Config.CompactEvery).
const DefaultCompactEvery = 256

// Config tunes a Store.
type Config struct {
	// CompactEvery triggers snapshot compaction after this many WAL
	// appends (default DefaultCompactEvery). The WAL otherwise grows by
	// one full merged snapshot per Put; compaction folds them into one
	// record per polynomial.
	CompactEvery int
}

// Stats describes the store's contents and its life so far.
type Stats struct {
	// Entries is the number of polynomials with stored knowledge.
	Entries int
	// Facts is the total number of discrete memo facts (bounds + counts)
	// across all entries.
	Facts int
	// Bytes approximates the serialized size of the stored entries (the
	// JSON payload bytes, excluding journal framing).
	Bytes int64
	// TruncatedAtOpen counts WAL bytes discarded when the store was
	// opened: a torn tail or corrupt suffix from a crash mid-append.
	TruncatedAtOpen int64
	// SkippedAtOpen counts replayed records dropped because their
	// content failed validation (schema drift or a past writer bug).
	SkippedAtOpen int
	// Appends and Compactions count Puts that reached the WAL and
	// snapshot compactions since open.
	Appends     int64
	Compactions int64
}

// storeDoc is the compacted snapshot document.
type storeDoc struct {
	Version int                        `json:"version"`
	Entries []*koopmancrc.MemoSnapshot `json:"entries,omitempty"`
}

// Key identifies one polynomial in the store.
type Key struct {
	Width int
	Poly  uint64
}

// String renders the key as "width:koopman-hex".
func (k Key) String() string { return fmt.Sprintf("%d:%#x", k.Width, k.Poly) }

// Store is an open corpus. All methods are safe for concurrent use; the
// in-memory view and the journal move together under one lock, so a
// reader never observes knowledge the log could lose.
type Store struct {
	mu      sync.Mutex
	j       *journal.Journal
	entries map[Key]*koopmancrc.MemoSnapshot
	sizes   map[Key]int64
	stats   Stats
	compact int
	// sinceCompact counts WAL appends since the last compaction.
	sinceCompact int
	closed       bool
}

// Open opens (creating if needed) the corpus in dir, replaying the
// journal: the compacted snapshot first, then WAL appends in order,
// merging each polynomial's records into the union of their knowledge.
// A torn or corrupt WAL tail is truncated (Stats.TruncatedAtOpen);
// records that decode but fail validation are skipped
// (Stats.SkippedAtOpen). Neither is an error — the corpus always opens
// with every durable, valid fact it holds.
func Open(dir string, cfg Config) (*Store, error) {
	j, rec, err := journal.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	s := &Store{
		j:       j,
		entries: make(map[Key]*koopmancrc.MemoSnapshot),
		sizes:   make(map[Key]int64),
		compact: cfg.CompactEvery,
	}
	if s.compact <= 0 {
		s.compact = DefaultCompactEvery
	}
	s.stats.TruncatedAtOpen = rec.Truncated
	if rec.Snapshot != nil {
		var doc storeDoc
		if err := json.Unmarshal(rec.Snapshot, &doc); err != nil {
			j.Close()
			return nil, fmt.Errorf("corpus: corrupt snapshot document in %s: %w", dir, err)
		}
		if doc.Version > storeVersion {
			j.Close()
			return nil, fmt.Errorf("corpus: %s uses snapshot version %d (have %d)", dir, doc.Version, storeVersion)
		}
		for _, e := range doc.Entries {
			s.absorbLocked(e)
		}
	}
	for _, r := range rec.Entries {
		if r.Type != recType {
			s.stats.SkippedAtOpen++
			continue
		}
		var snap koopmancrc.MemoSnapshot
		if err := json.Unmarshal(r.Data, &snap); err != nil {
			s.stats.SkippedAtOpen++
			continue
		}
		s.absorbLocked(&snap)
	}
	// Replaying more WAL records than a compaction interval means the
	// last run crashed before compacting; fold them up front so the WAL
	// shrinks instead of replaying ever longer.
	if len(rec.Entries) >= s.compact {
		if err := s.compactLocked(); err != nil {
			j.Close()
			return nil, err
		}
	}
	return s, nil
}

// absorbLocked merges one replayed snapshot into the in-memory view,
// skipping (and counting) invalid ones and ones whose facts contradict
// what the key already holds.
func (s *Store) absorbLocked(snap *koopmancrc.MemoSnapshot) {
	if err := snap.Validate(); err != nil {
		s.stats.SkippedAtOpen++
		return
	}
	key := Key{Width: snap.Width, Poly: snap.Poly}
	merged := snap.Clone()
	if have, ok := s.entries[key]; ok {
		merged = have.Clone()
		if err := mergeValid(merged, snap); err != nil {
			s.stats.SkippedAtOpen++
			return
		}
	}
	s.entries[key] = merged
	s.noteSizeLocked(key, merged)
}

// mergeValid merges o into m and validates the union: two valid
// snapshots can still contradict each other (a clear prefix past the
// other's hit), and their union must not be stored.
func mergeValid(m, o *koopmancrc.MemoSnapshot) error {
	if err := m.Merge(o); err != nil {
		return err
	}
	return m.Validate()
}

// noteSizeLocked refreshes the serialized-size accounting for one key.
func (s *Store) noteSizeLocked(key Key, snap *koopmancrc.MemoSnapshot) {
	if b, err := json.Marshal(snap); err == nil {
		s.sizes[key] = int64(len(b))
	}
}

// Get returns a deep copy of the stored knowledge for one polynomial
// (identified by width and Koopman notation), or false if the corpus
// holds nothing for it. The copy is the caller's to mutate.
func (s *Store) Get(width int, poly uint64) (*koopmancrc.MemoSnapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, ok := s.entries[Key{Width: width, Poly: poly}]
	if !ok {
		return nil, false
	}
	return snap.Clone(), true
}

// Keys lists the polynomials with stored knowledge, ordered by width
// then Koopman value.
func (s *Store) Keys() []Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Key, 0, len(s.entries))
	for k := range s.entries {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Width != out[j].Width {
			return out[i].Width < out[j].Width
		}
		return out[i].Poly < out[j].Poly
	})
	return out
}

// Put merges a snapshot into the store and durably appends the merged
// result: when Put returns nil the knowledge survives a crash. A
// snapshot adding nothing to what is stored is skipped without touching
// disk, so a warm session persisted repeatedly costs one fsync only
// when it actually learned something.
func (s *Store) Put(snap *koopmancrc.MemoSnapshot) error {
	if err := snap.Validate(); err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("corpus: store is closed")
	}
	key := Key{Width: snap.Width, Poly: snap.Poly}
	merged := snap.Clone()
	if have, ok := s.entries[key]; ok {
		prev, err := json.Marshal(have)
		if err != nil {
			return fmt.Errorf("corpus: %w", err)
		}
		if err := mergeValid(merged, have); err != nil {
			return fmt.Errorf("corpus: %w", err)
		}
		now, err := json.Marshal(merged)
		if err != nil {
			return fmt.Errorf("corpus: %w", err)
		}
		if string(prev) == string(now) {
			return nil // nothing new learned; spare the fsync
		}
	}
	raw, err := json.Marshal(merged)
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	if err := s.j.Append(recType, json.RawMessage(raw)); err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	s.entries[key] = merged
	s.sizes[key] = int64(len(raw))
	s.stats.Appends++
	s.sinceCompact++
	if s.sinceCompact >= s.compact {
		return s.compactLocked()
	}
	return nil
}

// compactLocked folds the WAL into a fresh snapshot document.
func (s *Store) compactLocked() error {
	doc := storeDoc{Version: storeVersion}
	for _, k := range s.keysLocked() {
		doc.Entries = append(doc.Entries, s.entries[k])
	}
	if err := s.j.Snapshot(doc); err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	s.sinceCompact = 0
	s.stats.Compactions++
	return nil
}

// keysLocked is Keys without re-locking.
func (s *Store) keysLocked() []Key {
	out := make([]Key, 0, len(s.entries))
	for k := range s.entries {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Width != out[j].Width {
			return out[i].Width < out[j].Width
		}
		return out[i].Poly < out[j].Poly
	})
	return out
}

// Stats snapshots the store's accounting.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	for _, e := range s.entries {
		st.Facts += e.Entries()
	}
	for _, n := range s.sizes {
		st.Bytes += n
	}
	return st
}

// Close compacts once more if the WAL holds appends, then closes the
// journal. Further Puts fail; Gets keep answering from memory.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	var err error
	if s.sinceCompact > 0 {
		err = s.compactLocked()
	}
	s.closed = true
	if cerr := s.j.Close(); err == nil {
		err = cerr
	}
	return err
}
