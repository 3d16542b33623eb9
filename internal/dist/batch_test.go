package dist

import (
	"bytes"
	"compress/gzip"
	"encoding/base64"
	"encoding/json"
	"io"
	"reflect"
	"testing"
)

// TestBatchRoundTrip checks that coalesced result lines survive the
// gzip/base64 trip bit-for-bit.
func TestBatchRoundTrip(t *testing.T) {
	results := []*message{
		{Type: msgResult, Worker: "alpha", JobID: 3, Canonical: 17,
			Survivors: []uint64{0x80, 0x83, 0x9b}, ElapsedNS: 1234},
		{Type: msgResult, Worker: "alpha", JobID: 4, Canonical: 0, ElapsedNS: 5},
		{Type: msgResult, Worker: "alpha", JobID: 9, Canonical: 2,
			Survivors: []uint64{0xff}},
	}
	b, err := encodeBatch("alpha", results)
	if err != nil {
		t.Fatal(err)
	}
	if b.Type != msgResultBatch || b.Worker != "alpha" || b.Count != 3 {
		t.Fatalf("envelope = %+v", b)
	}
	got, err := decodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(results) {
		t.Fatalf("decoded %d results, want %d", len(got), len(results))
	}
	for i := range results {
		if !reflect.DeepEqual(got[i], results[i]) {
			t.Errorf("result %d = %+v, want %+v", i, got[i], results[i])
		}
	}
}

// olderBatch gzips and base64-wraps n copies of olderResultLine, a
// result_batch as an older worker that still reported per-stage
// statistics would send it, and returns its count and batch string.
func olderBatch(tb testing.TB, n int) (int, string) {
	tb.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	for i := 0; i < n; i++ {
		if _, err := io.WriteString(zw, olderResultLine+"\n"); err != nil {
			tb.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return n, base64.StdEncoding.EncodeToString(buf.Bytes())
}

// TestBatchAcceptsOlderWorkerResults checks that a result_batch whose
// lines carry the retired "stages" field decodes, each result intact.
func TestBatchAcceptsOlderWorkerResults(t *testing.T) {
	count, batch := olderBatch(t, 3)
	got, err := decodeBatch(&message{Type: msgResultBatch, Worker: "old", Batch: batch, Count: count})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != count {
		t.Fatalf("decoded %d results, want %d", len(got), count)
	}
	for i, r := range got {
		if !reflect.DeepEqual(r, olderResult) {
			t.Errorf("result %d = %+v, want %+v", i, r, olderResult)
		}
	}
}

// TestBatchDecodeRejectsGarbage checks the error paths an untrusted
// worker could exercise.
func TestBatchDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodeBatch(&message{Type: msgResultBatch, Worker: "x", Batch: "not base64!!", Count: 1}); err == nil {
		t.Error("bad base64 should error")
	}
	if _, err := decodeBatch(&message{Type: msgResultBatch, Worker: "x", Batch: "aGVsbG8=", Count: 1}); err == nil {
		t.Error("non-gzip payload should error")
	}
	if _, err := decodeBatch(&message{Type: msgResultBatch, Worker: "x"}); err == nil {
		t.Error("missing count should error")
	}
	if _, err := decodeBatch(&message{Type: msgResultBatch, Worker: "x", Count: maxBatchResults + 1}); err == nil {
		t.Error("absurd count should be rejected before any decompression")
	}
	b, err := encodeBatch("x", []*message{{Type: msgResult, JobID: 1}})
	if err != nil {
		t.Fatal(err)
	}
	b.Count = 7
	if _, err := decodeBatch(b); err == nil {
		t.Error("count mismatch should error")
	}
	// A frame holding more results than it claims must stop mid-stream.
	two, err := encodeBatch("x", []*message{{Type: msgResult, JobID: 1}, {Type: msgResult, JobID: 2}})
	if err != nil {
		t.Fatal(err)
	}
	two.Count = 1
	if _, err := decodeBatch(two); err == nil {
		t.Error("over-claimed batch should error during streaming")
	}
	// Non-result messages cannot ride a result batch past handleConn's
	// type dispatch.
	smuggled, err := encodeBatch("x", []*message{{Type: msgHeartbeat, JobID: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeBatch(smuggled); err == nil {
		t.Error("smuggled non-result message should be rejected")
	}
}

// FuzzDecodeBatch feeds decodeBatch an arbitrary claimed count and batch
// string, as an untrusted worker could send them. It must never panic;
// every batch it accepts must hold exactly the claimed number of
// messages, all results, and re-encoding what it returned must decode to
// messages with the same wire form (an empty list and an absent one
// travel alike). The seeds are encoded by encodeBatch, and each must
// round-trip exactly before fuzzing starts.
func FuzzDecodeBatch(f *testing.F) {
	for _, results := range [][]*message{
		{{Type: msgResult, Worker: "w", JobID: 1, Canonical: 3, Survivors: []uint64{0x80, 0x83}, ElapsedNS: 12}},
		{{Type: msgResult, JobID: 4}, {Type: msgResult, JobID: 9, Survivors: []uint64{0xff}}},
	} {
		b, err := encodeBatch("w", results)
		if err != nil {
			f.Fatal(err)
		}
		got, err := decodeBatch(b)
		if err != nil || !reflect.DeepEqual(got, results) {
			f.Fatalf("seed did not round-trip: %v, %+v", err, got)
		}
		f.Add(b.Count, b.Batch)
	}
	n, older := olderBatch(f, 2)
	f.Add(n, older)
	f.Add(1, "not base64!!")
	f.Add(1, "aGVsbG8=")
	f.Add(maxBatchResults+1, "")
	f.Fuzz(func(t *testing.T, count int, batch string) {
		got, err := decodeBatch(&message{Type: msgResultBatch, Worker: "x", Batch: batch, Count: count})
		if err != nil {
			return
		}
		if len(got) != count {
			t.Fatalf("accepted a batch claiming %d results holding %d", count, len(got))
		}
		for i, r := range got {
			if r.Type != msgResult {
				t.Fatalf("result %d has type %q", i, r.Type)
			}
		}
		b, err := encodeBatch("x", got)
		if err != nil {
			t.Fatal(err)
		}
		again, err := decodeBatch(b)
		if err != nil {
			t.Fatalf("re-encoded batch rejected: %v", err)
		}
		want, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wire, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire, want) {
			t.Fatalf("re-encoded batch decoded to %s, want %s", wire, want)
		}
	})
}
