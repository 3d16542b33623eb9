package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// FuzzScanWAL feeds scanWAL arbitrary bytes and an arbitrary snapshot
// watermark. It must not panic; the durable prefix it reports must lie
// inside the input and be empty or end in a newline; the records it
// returns must have strictly increasing sequence numbers, all above the
// watermark; and rescanning the durable prefix alone must give back the
// same records and the same length. The seeds are WALs written with
// encodeLine and then torn, bit-flipped or reordered, and each must
// scan back exactly the records of its intact prefix.
func FuzzScanWAL(f *testing.F) {
	var lines [][]byte
	for seq := uint64(1); seq <= 4; seq++ {
		line, err := encodeLine(Record{Seq: seq, Type: "ev", Data: json.RawMessage(fmt.Sprintf(`{"n":%d}`, seq))})
		if err != nil {
			f.Fatal(err)
		}
		lines = append(lines, line)
	}
	wal := bytes.Join(lines, nil)
	flipped := bytes.Clone(wal)
	flipped[len(lines[0])+len(lines[1])+12] ^= 0x10 // inside record 3's body
	seeds := []struct {
		name     string
		data     []byte
		after    uint64
		seqs     []uint64 // the records of the intact prefix
		validLen int
	}{
		{"intact", wal, 0, []uint64{1, 2, 3, 4}, len(wal)},
		{"under a snapshot", wal, 2, []uint64{3, 4}, len(wal)},
		{"torn tail", wal[:len(wal)-3], 0, []uint64{1, 2, 3}, len(wal) - len(lines[3])},
		{"torn first line", wal[:5], 0, nil, 0},
		{"bit flip", flipped, 0, []uint64{1, 2}, len(lines[0]) + len(lines[1])},
		{"reordered", bytes.Join([][]byte{lines[0], lines[2], lines[1], lines[3]}, nil), 0,
			[]uint64{1, 3}, len(lines[0]) + len(lines[2])},
		{"empty", nil, 0, nil, 0},
	}
	for _, s := range seeds {
		entries, validLen := scanWAL(s.data, s.after)
		var seqs []uint64
		for _, e := range entries {
			seqs = append(seqs, e.Seq)
		}
		if !reflect.DeepEqual(seqs, s.seqs) || validLen != int64(s.validLen) {
			f.Fatalf("%s: scanned records %v in %d bytes, want %v in %d", s.name, seqs, validLen, s.seqs, s.validLen)
		}
		f.Add(s.data, s.after)
	}
	f.Fuzz(func(t *testing.T, data []byte, after uint64) {
		entries, validLen := scanWAL(data, after)
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("durable prefix of %d bytes in a %d-byte input", validLen, len(data))
		}
		if validLen > 0 && data[validLen-1] != '\n' {
			t.Fatalf("durable prefix of %d bytes does not end in a newline", validLen)
		}
		last := after
		for i, e := range entries {
			if e.Seq <= last {
				t.Fatalf("record %d has seq %d, not above %d (watermark %d)", i, e.Seq, last, after)
			}
			last = e.Seq
		}
		again, againLen := scanWAL(data[:validLen], after)
		if againLen != validLen || !reflect.DeepEqual(again, entries) {
			t.Fatalf("rescanning the %d-byte durable prefix gave %d records in %d bytes, want %d records",
				validLen, len(again), againLen, len(entries))
		}
	})
}
