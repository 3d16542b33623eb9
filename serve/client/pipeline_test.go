package client

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"koopmancrc/crchash"
	"koopmancrc/serve"
)

func TestChecksumBatch(t *testing.T) {
	ts := startServer(t, serve.Config{})
	c := New(ts.URL)
	resp, err := c.ChecksumBatch(context.Background(), serve.ChecksumBatchRequest{
		Items: []serve.ChecksumRequest{
			{Algorithm: "CRC-32C/iSCSI", Data: []byte("123456789")},
			{Algorithm: "CRC-32/NO-SUCH", Text: "x"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count != 2 || resp.Failed != 1 {
		t.Fatalf("count/failed = %d/%d, want 2/1", resp.Count, resp.Failed)
	}
	if resp.Items[0].Hex != "0xe3069283" || resp.Items[1].Error == "" {
		t.Fatalf("items %+v", resp.Items)
	}
}

func TestChecksumReader(t *testing.T) {
	ts := startServer(t, serve.Config{})
	c := New(ts.URL)
	data := bytes.Repeat([]byte("streaming checksum "), 150000) // ~2.8 MiB
	want, err := crchash.Checksum("CRC-32/IEEE-802.3", data)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.ChecksumReader(context.Background(), "CRC-32/IEEE-802.3", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Checksum != want || resp.Length != len(data) {
		t.Fatalf("got %+v, want checksum %#x over %d bytes", resp, want, len(data))
	}
}

func TestChecksumReaderAPIError(t *testing.T) {
	ts := startServer(t, serve.Config{MaxStreamBytes: 512})
	c := New(ts.URL)
	_, err := c.ChecksumReader(context.Background(), "CRC-32C/iSCSI", bytes.NewReader(make([]byte, 2048)))
	apiErr, ok := err.(*APIError)
	if !ok {
		t.Fatalf("error %v (%T), want *APIError", err, err)
	}
	if apiErr.StatusCode != http.StatusRequestEntityTooLarge || apiErr.RequestID == "" {
		t.Fatalf("APIError %+v, want 413 with a request ID", apiErr)
	}
}

// TestPipelineBoundedInFlight drives eight batches through a depth-3
// pipeline against a server that records its concurrent in-flight count:
// the pipeline must overlap requests (otherwise it is just a loop) while
// never exceeding its bound.
func TestPipelineBoundedInFlight(t *testing.T) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	defer srv.Close()
	var inFlight, maxInFlight atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			prev := maxInFlight.Load()
			if cur <= prev || maxInFlight.CompareAndSwap(prev, cur) {
				break
			}
		}
		// Hold each request long enough that a pipelining client
		// necessarily overlaps them.
		time.Sleep(20 * time.Millisecond)
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := New(ts.URL)
	p := c.Pipeline(3)
	var calls []*BatchCall
	for i := 0; i < 8; i++ {
		calls = append(calls, p.Submit(context.Background(), serve.ChecksumBatchRequest{
			Items: []serve.ChecksumRequest{
				{Algorithm: "CRC-32C/iSCSI", Text: fmt.Sprintf("payload-%d", i)},
			},
		}))
	}
	p.Wait()
	for i, call := range calls {
		resp, err := call.Result()
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if resp.Failed != 0 || len(resp.Items) != 1 || resp.Items[0].Kernel == "" {
			t.Fatalf("batch %d: %+v", i, resp)
		}
	}
	if got := maxInFlight.Load(); got > 3 {
		t.Errorf("max in-flight %d exceeded the pipeline bound 3", got)
	}
	if got := maxInFlight.Load(); got < 2 {
		t.Errorf("max in-flight %d: the pipeline never overlapped requests", got)
	}
}

func TestPipelineSubmitHonorsContext(t *testing.T) {
	ts := startServer(t, serve.Config{})
	c := New(ts.URL)
	p := c.Pipeline(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	call := p.Submit(ctx, serve.ChecksumBatchRequest{
		Items: []serve.ChecksumRequest{{Algorithm: "CRC-32C/iSCSI", Text: "x"}},
	})
	select {
	case <-call.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled submit never completed")
	}
	if _, err := call.Result(); err == nil {
		t.Fatal("cancelled submit returned no error")
	}
	p.Wait()
}

// batchOf builds n small distinct checksum items.
func batchOf(n int) serve.ChecksumBatchRequest {
	req := serve.ChecksumBatchRequest{Items: make([]serve.ChecksumRequest, n)}
	for i := range req.Items {
		req.Items[i] = serve.ChecksumRequest{
			Algorithm: "CRC-32C/iSCSI",
			Data:      bytes.Repeat([]byte{byte(i)}, 64),
		}
	}
	return req
}

// The amortization pair: 64 small payloads one-at-a-time vs in one
// round trip. BENCH_PR8.json records the same ratio from a retired
// crcbench mode, as history; these benchmarks are its measurement now.

func BenchmarkChecksumSequential64(b *testing.B) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		b.Fatalf("serve.New: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := New(ts.URL)
	req := batchOf(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, item := range req.Items {
			if _, err := c.Checksum(context.Background(), item.Algorithm, item.Data); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.N)*64/b.Elapsed().Seconds(), "items/s")
}

func BenchmarkChecksumBatch64(b *testing.B) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		b.Fatalf("serve.New: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := New(ts.URL)
	req := batchOf(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := c.ChecksumBatch(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Failed != 0 {
			b.Fatalf("%d items failed", resp.Failed)
		}
	}
	b.ReportMetric(float64(b.N)*64/b.Elapsed().Seconds(), "items/s")
}

func BenchmarkChecksumBatch64Pipelined(b *testing.B) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		b.Fatalf("serve.New: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := New(ts.URL)
	req := batchOf(64)
	p := c.Pipeline(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Submit(context.Background(), req)
	}
	p.Wait()
	b.ReportMetric(float64(b.N)*64/b.Elapsed().Seconds(), "items/s")
}
