package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"koopmancrc/crchash"
)

func TestChecksumBatchMixed(t *testing.T) {
	_, ts := startServer(t, Config{})
	req := ChecksumBatchRequest{Items: []ChecksumRequest{
		{Algorithm: "CRC-32/IEEE-802.3", Text: "123456789"},
		{Algorithm: "CRC-32C/iSCSI", Text: "123456789"},
		{Algorithm: "CRC-32/NO-SUCH", Text: "x"},
		{Text: "missing algorithm"},
		{Algorithm: "CRC-32C/iSCSI", Data: []byte("123456789")},
	}}
	var resp ChecksumBatchResponse
	status, body := postJSON(t, ts.URL+"/v1/checksum/batch", req, &resp)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if resp.Count != 5 || resp.Failed != 2 || len(resp.Items) != 5 {
		t.Fatalf("count/failed/items = %d/%d/%d, want 5/2/5", resp.Count, resp.Failed, len(resp.Items))
	}
	wantHex := []string{"0xcbf43926", "0xe3069283", "", "", "0xe3069283"}
	for i, want := range wantHex {
		item := resp.Items[i]
		if want == "" {
			if item.Error == "" {
				t.Errorf("item %d: expected an error slot, got %+v", i, item)
			}
			continue
		}
		if item.Error != "" {
			t.Errorf("item %d: unexpected error %q", i, item.Error)
		}
		if item.Hex != want {
			t.Errorf("item %d: hex %q, want %q", i, item.Hex, want)
		}
		if item.Kernel == "" || item.Length != 9 {
			t.Errorf("item %d: kernel %q length %d", i, item.Kernel, item.Length)
		}
	}
	if n := getMetrics(t, ts)["crcserve_checksum_batch_items_sum"]; n != 5 {
		t.Errorf("crcserve_checksum_batch_items_sum = %v, want 5", n)
	}
}

func TestChecksumBatchPerItemOverlong(t *testing.T) {
	_, ts := startServer(t, Config{MaxBodyBytes: 16})
	req := ChecksumBatchRequest{Items: []ChecksumRequest{
		{Algorithm: "CRC-32C/iSCSI", Text: "123456789"},
		{Algorithm: "CRC-32C/iSCSI", Text: strings.Repeat("a", 64)},
	}}
	var resp ChecksumBatchResponse
	status, body := postJSON(t, ts.URL+"/v1/checksum/batch", req, &resp)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if resp.Failed != 1 {
		t.Fatalf("failed = %d, want 1 (items %+v)", resp.Failed, resp.Items)
	}
	if resp.Items[0].Hex != "0xe3069283" {
		t.Errorf("item 0 hex %q", resp.Items[0].Hex)
	}
	if !strings.Contains(resp.Items[1].Error, "per-item cap") {
		t.Errorf("item 1 error %q does not name the per-item cap", resp.Items[1].Error)
	}
}

func TestChecksumBatchClamps(t *testing.T) {
	t.Run("too many items", func(t *testing.T) {
		_, ts := startServer(t, Config{MaxBatchItems: 2})
		req := ChecksumBatchRequest{Items: []ChecksumRequest{
			{Algorithm: "CRC-32C/iSCSI", Text: "a"},
			{Algorithm: "CRC-32C/iSCSI", Text: "b"},
			{Algorithm: "CRC-32C/iSCSI", Text: "c"},
		}}
		status, body := postJSON(t, ts.URL+"/v1/checksum/batch", req, nil)
		if status != http.StatusUnprocessableEntity {
			t.Fatalf("status %d, want 422: %s", status, body)
		}
		assertErrorBody(t, body)
	})
	t.Run("too many total bytes", func(t *testing.T) {
		_, ts := startServer(t, Config{MaxBatchBytes: 64})
		req := ChecksumBatchRequest{Items: []ChecksumRequest{
			{Algorithm: "CRC-32C/iSCSI", Text: strings.Repeat("a", 48)},
			{Algorithm: "CRC-32C/iSCSI", Text: strings.Repeat("b", 48)},
		}}
		status, body := postJSON(t, ts.URL+"/v1/checksum/batch", req, nil)
		if status != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413: %s", status, body)
		}
		assertErrorBody(t, body)
	})
	t.Run("empty batch", func(t *testing.T) {
		_, ts := startServer(t, Config{})
		status, body := postJSON(t, ts.URL+"/v1/checksum/batch", ChecksumBatchRequest{}, nil)
		if status != http.StatusBadRequest {
			t.Fatalf("status %d, want 400: %s", status, body)
		}
	})
}

// assertErrorBody checks a non-2xx JSON reply carries an error message
// and the request ID that locates it in the server's logs.
func assertErrorBody(t *testing.T, body []byte) {
	t.Helper()
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("error body %s: %v", body, err)
	}
	if er.Error == "" || er.RequestID == "" {
		t.Fatalf("error body %s missing error or request_id", body)
	}
}

// streamPayload builds a deterministic pseudorandom payload.
func streamPayload(n int) []byte {
	data := make([]byte, n)
	seed := uint64(0x9E3779B97F4A7C15)
	for i := range data {
		seed = seed*6364136223846793005 + 1442695040888963407
		data[i] = byte(seed >> 48)
	}
	return data
}

func TestChecksumStreamDigest(t *testing.T) {
	_, ts := startServer(t, Config{})
	data := streamPayload(3 << 20)
	const algorithm = "CRC-32K/Koopman"
	want, err := crchash.Checksum(algorithm, data)
	if err != nil {
		t.Fatal(err)
	}

	// Algorithm via header on this request; the query-parameter spelling
	// is covered by the client tests.
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/checksum/stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/octet-stream")
	hreq.Header.Set(StreamAlgorithmHeader, algorithm)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out ChecksumResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Checksum != want {
		t.Errorf("checksum %#x, want %#x", out.Checksum, want)
	}
	if out.Length != len(data) || out.Kernel == "" || out.Algorithm != algorithm {
		t.Errorf("response %+v", out)
	}
	if n := getMetrics(t, ts)["crcserve_checksum_stream_bytes_sum"]; n != float64(len(data)) {
		t.Errorf("crcserve_checksum_stream_bytes_sum = %v, want %d", n, len(data))
	}
}

func TestChecksumStreamLimit(t *testing.T) {
	_, ts := startServer(t, Config{MaxStreamBytes: 1024})
	resp, err := http.Post(ts.URL+"/v1/checksum/stream?algorithm=CRC-32C/iSCSI",
		"application/octet-stream", bytes.NewReader(make([]byte, 4096)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, body)
	}
	assertErrorBody(t, body)
}

func TestChecksumStreamBadAlgorithm(t *testing.T) {
	_, ts := startServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/checksum/stream", "application/octet-stream", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing algorithm: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/checksum/stream?algorithm=CRC-32/NO-SUCH",
		"application/octet-stream", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown algorithm: status %d, want 404", resp.StatusCode)
	}
}

// TestChecksumStreamCancelMidBody proves a client disconnect mid-body
// stops the server's read loop: the digest is abandoned and the request
// is counted under the stream endpoint with a non-200 code instead of
// hanging until the body would have completed.
func TestChecksumStreamCancelMidBody(t *testing.T) {
	_, ts := startServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	pr, pw := io.Pipe()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/checksum/stream?algorithm=CRC-32C/iSCSI", pr)
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/octet-stream")

	errCh := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(hreq)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()

	// Feed the handler a first chunk so it is demonstrably mid-body,
	// then kill the request.
	chunk := make([]byte, 32<<10)
	if _, err := pw.Write(chunk); err != nil {
		t.Fatal(err)
	}
	cancel()
	// Fail the body before waiting on Do: the transport's write loop may
	// be blocked mid-pipe-read, and Do does not return until that loop
	// exits — waiting first would deadlock the test against itself.
	pw.CloseWithError(errors.New("test: client abandoned body"))
	if err := <-errCh; err == nil {
		t.Fatal("request succeeded despite cancellation")
	}

	// The handler notices between chunks; poll until its outcome is
	// accounted.
	const stream = `endpoint="/v1/checksum/stream"`
	deadline := time.Now().Add(10 * time.Second)
	var m scrape
	for {
		if m = getMetrics(t, ts); len(m.series("crcserve_requests_total", stream)) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream handler never recorded the abandoned request")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := m.sum("crcserve_requests_total", stream, `code="200"`); n != 0 {
		t.Errorf("abandoned stream answered 200 (%v times)", n)
	}
	if n := m["crcserve_checksum_stream_bytes_sum"]; n != 0 {
		t.Errorf("abandoned stream still counted %v digested bytes", n)
	}
}

func TestJSONBodyLimit413(t *testing.T) {
	_, ts := startServer(t, Config{MaxBodyBytes: 64})
	for _, ep := range []string{"/v1/evaluate", "/v1/hd", "/v1/maxlen", "/v1/select", "/v1/checksum"} {
		big := fmt.Sprintf(`{"poly":"0x%s"}`, strings.Repeat("a", 4096))
		resp, err := http.Post(ts.URL+ep, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413: %s", ep, resp.StatusCode, body)
		}
		assertErrorBody(t, body)
	}
}

// zeroReader yields n zero bytes without allocating, so request-body
// size can scale without the test itself allocating proportionally.
type zeroReader struct{ n int64 }

func (z *zeroReader) Read(p []byte) (int, error) {
	if z.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > z.n {
		p = p[:z.n]
	}
	for i := range p {
		p[i] = 0
	}
	z.n -= int64(len(p))
	return len(p), nil
}

// TestStreamConstantBuffering pins the O(1)-buffering contract of the
// stream handler: digesting a 64 MiB body must allocate about as little
// as digesting 1 MiB — nothing proportional to the body may ever be
// held. A regression to read-then-hash (io.ReadAll and friends) blows
// the ceiling by an order of magnitude immediately.
func TestStreamConstantBuffering(t *testing.T) {
	srv, err := New(Config{MaxStreamBytes: 1 << 30})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()

	run := func(n int64) string {
		req := httptest.NewRequest(http.MethodPost, "/v1/checksum/stream?algorithm=CRC-32C/iSCSI", &zeroReader{n: n})
		req.Header.Set("Content-Type", "application/octet-stream")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		var out ChecksumResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out.Hex
	}
	// Warm everything once: engine construction, the pooled copy
	// buffer.
	run(1 << 20)

	allocBytes := func(n int64) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		run(n)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small := allocBytes(1 << 20)
	big := allocBytes(64 << 20)
	t.Logf("allocated: 1 MiB body -> %d B, 64 MiB body -> %d B", small, big)
	if big > 2<<20 {
		t.Errorf("64 MiB stream allocated %d bytes; the handler must buffer O(1), not the body", big)
	}

	want, err := crchash.Checksum("CRC-32C/iSCSI", make([]byte, 64<<20))
	if err != nil {
		t.Fatal(err)
	}
	if got := run(64 << 20); got != fmt.Sprintf("0x%08x", want) {
		t.Errorf("64 MiB digest %s, want 0x%08x", got, want)
	}
}
