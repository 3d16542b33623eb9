package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"koopmancrc/serve"
)

func startServer(t *testing.T, cfg serve.Config) *httptest.Server {
	t.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

var smallEval = serve.EvaluateRequest{
	PolyRef: serve.PolyRef{Poly: "0x83", Width: 8},
	MaxLen:  64,
	MaxHD:   6,
	Weights: []int{32},
}

func TestClientEndToEnd(t *testing.T) {
	ts := startServer(t, serve.Config{})
	c := New(ts.URL)
	ctx := context.Background()

	if err := c.Healthz(ctx); err != nil {
		t.Fatal(err)
	}

	// Streamed first (cold session → progress ticks), then plain (warm).
	var ticks int
	streamed, err := c.EvaluateStream(ctx, smallEval, func(serve.ProgressEvent) { ticks++ })
	if err != nil {
		t.Fatal(err)
	}
	if ticks == 0 {
		t.Error("no progress ticks on a cold stream")
	}
	plain, err := c.Evaluate(ctx, smallEval)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Poly != "0x83" || len(plain.Bands) == 0 || len(plain.Weights) != 1 {
		t.Fatalf("evaluate response: %+v", plain)
	}
	jp, _ := json.Marshal(plain)
	js, _ := json.Marshal(streamed)
	if !bytes.Equal(jp, js) {
		t.Fatalf("streamed and plain disagree: %s vs %s", js, jp)
	}

	hd, err := c.HD(ctx, serve.HDRequest{PolyRef: serve.PolyRef{Poly: "0x83", Width: 8}, DataLen: 32})
	if err != nil {
		t.Fatal(err)
	}
	if hd.HD < 2 {
		t.Fatalf("hd response: %+v", hd)
	}

	ml, err := c.MaxLenAtHD(ctx, serve.MaxLenRequest{PolyRef: serve.PolyRef{Poly: "0x83", Width: 8}, HD: 4, Horizon: 128})
	if err != nil {
		t.Fatal(err)
	}
	if !ml.OK || ml.MaxLen < 1 {
		t.Fatalf("maxlen response: %+v", ml)
	}

	sel, err := c.Select(ctx, serve.SelectRequest{
		Candidates: []serve.PolyRef{{Poly: "0x83", Width: 8}, {Poly: "0x9c", Width: 8}},
		DataLen:    16, MaxHD: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Ranking) != 2 {
		t.Fatalf("select response: %+v", sel)
	}

	sum, err := c.Checksum(ctx, "CRC-32C/iSCSI", []byte("123456789"))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Checksum != 0xE3069283 {
		t.Fatalf("CRC-32C check value: %+v", sum)
	}

	algs, err := c.Algorithms(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(algs) == 0 {
		t.Fatal("no algorithms")
	}
}

// TestEvaluateStreamMultiLineData: successive data: lines of one SSE
// event join with a newline per the spec, so a multi-line JSON payload
// parses intact — and lines that would silently merge into a different
// number under plain concatenation surface as a parse error instead.
func TestEvaluateStreamMultiLineData(t *testing.T) {
	ctx := context.Background()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		io.WriteString(w, "event: progress\ndata: {\ndata:   \"weight\": 3\ndata: }\n\n")
		io.WriteString(w, "event: result\ndata: {\ndata:   \"poly\": \"0x83\",\ndata:   \"width\": 8\ndata: }\n\n")
	}))
	defer ts.Close()
	var progress []serve.ProgressEvent
	out, err := New(ts.URL).EvaluateStream(ctx, smallEval, func(p serve.ProgressEvent) { progress = append(progress, p) })
	if err != nil {
		t.Fatal(err)
	}
	if out.Poly != "0x83" || out.Width != 8 {
		t.Fatalf("multi-line result: %+v", out)
	}
	if len(progress) != 1 || progress[0].Weight != 3 {
		t.Fatalf("multi-line progress: %+v", progress)
	}

	corrupt := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		io.WriteString(w, "event: result\ndata: {\"max_len\": 12\ndata: 3}\n\n")
	}))
	defer corrupt.Close()
	if _, err := New(corrupt.URL).EvaluateStream(ctx, smallEval, nil); err == nil || !strings.Contains(err.Error(), "bad result event") {
		t.Fatalf("split-number payload: err = %v, want bad result event (not a silently merged 123)", err)
	}
}

func TestClientErrorsAndAuth(t *testing.T) {
	ts := startServer(t, serve.Config{Token: "sesame"})
	ctx := context.Background()

	// Healthz is exempt from auth.
	if err := New(ts.URL).Healthz(ctx); err != nil {
		t.Fatal(err)
	}

	// Missing token → APIError 401.
	_, err := New(ts.URL).Evaluate(ctx, smallEval)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 401 {
		t.Fatalf("unauthenticated evaluate: %v", err)
	}
	// Streaming rejects before any SSE too.
	if _, err := New(ts.URL).EvaluateStream(ctx, smallEval, nil); !errors.As(err, &apiErr) || apiErr.StatusCode != 401 {
		t.Fatalf("unauthenticated stream: %v", err)
	}

	c := New(ts.URL, WithToken("sesame"))
	if _, err := c.Evaluate(ctx, smallEval); err != nil {
		t.Fatal(err)
	}

	// Server-side validation errors surface with the server's message.
	bad := smallEval
	bad.MaxLen = 0
	if _, err := c.Evaluate(ctx, bad); !errors.As(err, &apiErr) || apiErr.StatusCode != 400 {
		t.Fatalf("invalid request: %v", err)
	}
	if _, err := c.Checksum(ctx, "CRC-99/NOPE", nil); !errors.As(err, &apiErr) || apiErr.StatusCode != 404 {
		t.Fatalf("unknown algorithm: %v", err)
	}
	if apiErr.RequestID == "" {
		t.Fatalf("unknown algorithm: APIError %+v carries no request ID", apiErr)
	}
}
