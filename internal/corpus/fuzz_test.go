package corpus

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"koopmancrc"
	"koopmancrc/internal/journal"
)

// fuzzSnapshot is a valid memo snapshot of 0x83 at width 8, as an
// Analyzer exports it after evaluating 16 data bits with MaxHD 4.
const fuzzSnapshot = `{"version":1,"width":8,"poly":131,"probes":22,` +
	`"bounds":[{"weight":2,"clear_to":16},{"weight":3,"clear_to":16},` +
	`{"weight":4,"hit_at":1,"witness":[0,1,2,8],"first":1,"exact":true,"elapsed_ns":13584}]}`

// maxFuzzRecords bounds how many WAL records one fuzz input writes.
const maxFuzzRecords = 16

// FuzzCorpusReplay writes fuzzed WAL record payloads through the
// journal and opens the corpus over them. payloads holds one record per
// line, and bit i of foreign gives record i a type other than the
// corpus's own; a line that is not JSON cannot be appended and is left
// out. Open must never fail or panic, and every record written must be
// absorbed or counted in Stats.SkippedAtOpen: the test replays them
// through the exported snapshot API (decode, Validate, Merge into a
// copy of what the key already holds, keep the union only while it
// validates) and the store must end with the same entries and the same
// skip count. Every kept entry must pass Validate, and a reopen after
// Close must serve the same keys and snapshots.
func FuzzCorpusReplay(f *testing.F) {
	f.Add(uint16(0), []byte(fuzzSnapshot))
	f.Add(uint16(1), []byte(fuzzSnapshot))
	// JSON that is not a MemoSnapshot, and a snapshot failing Validate
	// (an exact boundary without a first length).
	f.Add(uint16(0), []byte(`[1,2,3]`+"\n"+`"memo"`+"\n"+`null`+"\n"+`{"version":1,"width":8,"poly":"x"}`+"\n"+
		`{"version":1,"width":8,"poly":156,"bounds":[{"weight":2,"exact":true}]}`))
	// Duplicate keys whose facts merge, and a merge conflict: a clear
	// prefix past a later record's hit.
	f.Add(uint16(0), []byte(fuzzSnapshot+"\n"+
		`{"version":1,"width":8,"poly":131,"probes":40,"weights":[{"weight":2,"data_len":16,"count":0}]}`+"\n"+
		`{"version":1,"width":8,"poly":131,"bounds":[{"weight":5,"clear_to":10}]}`+"\n"+
		`{"version":1,"width":8,"poly":131,"bounds":[{"weight":5,"hit_at":5,"witness":[0,1,2,3,4]}]}`))
	f.Fuzz(func(t *testing.T, foreign uint16, payloads []byte) {
		dir := t.TempDir()
		j, _, err := journal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		want := map[Key]*koopmancrc.MemoSnapshot{}
		skipped := 0
		for i, line := range bytes.SplitN(payloads, []byte("\n"), maxFuzzRecords) {
			if !json.Valid(line) {
				continue
			}
			typ := recType
			if foreign&(1<<i) != 0 {
				typ = "unrelated"
			}
			if err := j.Append(typ, json.RawMessage(line)); err != nil {
				t.Fatalf("append record %d: %v", i, err)
			}
			var snap koopmancrc.MemoSnapshot
			if typ != recType || json.Unmarshal(line, &snap) != nil || snap.Validate() != nil {
				skipped++
				continue
			}
			key := Key{Width: snap.Width, Poly: snap.Poly}
			have, ok := want[key]
			if !ok {
				want[key] = snap.Clone()
				continue
			}
			merged := have.Clone()
			if merged.Merge(&snap) != nil || merged.Validate() != nil {
				skipped++
				continue
			}
			want[key] = merged
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}

		s, err := Open(dir, Config{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if got := s.Stats().SkippedAtOpen; got != skipped {
			t.Errorf("SkippedAtOpen = %d, want %d", got, skipped)
		}
		keys := s.Keys()
		if len(keys) != len(want) {
			t.Errorf("store holds %d keys, want %d", len(keys), len(want))
		}
		snaps := map[Key]*koopmancrc.MemoSnapshot{}
		for _, k := range keys {
			got, ok := s.Get(k.Width, k.Poly)
			if !ok {
				t.Fatalf("listed key %v has no entry", k)
			}
			if err := got.Validate(); err != nil {
				t.Errorf("kept entry %v fails Validate: %v", k, err)
			}
			if w := want[k].Clone(); !reflect.DeepEqual(got, w) {
				t.Errorf("entry %v = %+v, want %+v", k, got, w)
			}
			snaps[k] = got
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		s2, err := Open(dir, Config{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer s2.Close()
		if again := s2.Keys(); !reflect.DeepEqual(again, keys) {
			t.Fatalf("reopen lists keys %v, want %v", again, keys)
		}
		for _, k := range keys {
			if got, _ := s2.Get(k.Width, k.Poly); !reflect.DeepEqual(got, snaps[k]) {
				t.Errorf("reopened entry %v = %+v, want %+v", k, got, snaps[k])
			}
		}
	})
}
