package serve

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"koopmancrc/internal/obs"
)

// TestRequestIDEchoAndMint pins the X-Request-ID contract: a sane
// client-supplied ID is echoed, a missing or hostile one is replaced,
// and error bodies repeat the ID.
func TestRequestIDEchoAndMint(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set("X-Request-ID", "client-id-42")
	s.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-ID"); got != "client-id-42" {
		t.Errorf("echo: X-Request-ID = %q, want client-id-42", got)
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	minted := rec.Header().Get("X-Request-ID")
	if len(minted) != 16 {
		t.Errorf("mint: X-Request-ID = %q, want 16 hex chars", minted)
	}

	for _, hostile := range []string{"a\nb", "id with space", strings.Repeat("x", 65)} {
		rec = httptest.NewRecorder()
		req = httptest.NewRequest("GET", "/healthz", nil)
		req.Header.Set("X-Request-ID", hostile)
		s.ServeHTTP(rec, req)
		if got := rec.Header().Get("X-Request-ID"); got == hostile {
			t.Errorf("hostile ID %q echoed verbatim", hostile)
		}
	}

	// Error bodies carry the request ID.
	rec = httptest.NewRecorder()
	req = httptest.NewRequest("POST", "/v1/hd", strings.NewReader(`{"poly":"not-a-poly"}`))
	req.Header.Set("X-Request-ID", "err-req-1")
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.RequestID != "err-req-1" {
		t.Errorf("error body request_id = %q, want err-req-1", er.RequestID)
	}
}

// TestMetricsPrometheusFormat drives a real evaluation through the
// server and checks the Prometheus exposition contains the latency and
// engine-phase series the acceptance criteria name, validated by the
// pure-Go format checker.
func TestMetricsPrometheusFormat(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	// 32-bit 802.3 at a short length: w3/w4 scans run and find nothing
	// within 128 bits, so the w>=5 boundary scans also run. An HD query
	// past the evaluated range then needs existence queries, which run
	// the same scans further — no meet-in-the-middle join on any
	// endpoint, all in milliseconds.
	for _, q := range []struct{ path, body string }{
		{"/v1/evaluate", `{"poly":"0x82608edb","width":32,"max_len":128,"max_hd":6}`},
		{"/v1/hd", `{"poly":"0x82608edb","width":32,"data_len":200,"max_hd":6}`},
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", q.path, strings.NewReader(q.body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", q.path, rec.Code, rec.Body.String())
		}
	}

	check := func(name string, r *http.Request) string {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, r)
		if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
			t.Errorf("%s: Content-Type = %q", name, ct)
		}
		out := rec.Body.String()
		if err := obs.CheckExposition(strings.NewReader(out)); err != nil {
			t.Errorf("%s: invalid exposition: %v", name, err)
		}
		return out
	}

	// The default is a valid 0.0.4 exposition; ?format=prometheus names
	// the same format explicitly.
	check("format=prometheus", httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	out := check("default", httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{
		`crcserve_request_duration_seconds_bucket{endpoint="/v1/evaluate",le="+Inf"} 1`,
		`crcserve_requests_total{endpoint="/v1/evaluate",code="200"} 1`,
		`crcserve_requests_total{endpoint="/v1/hd",code="200"} 1`,
		"# TYPE crcserve_engine_phase_seconds histogram",
		`phase="w3_scan"`,
		`phase="boundary"`,
		`phase="w4_scan"`,
		"crcserve_engine_phase_probes",
		"crcserve_pool_sessions 1",
		"crcserve_flights_total 2",
		`crcserve_pool_session_probes{poly="0x82608edb",width="32",max_hd="6",max_probes="0"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Accept negotiation selects the same exposition.
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	check("accept text/plain", req)
}

// TestSessionSeriesPerLimits: two sessions of one polynomial and depth
// that differ only in their limits are two pool entries, so every
// per-session family renders them as two distinct series and the
// exposition stays valid.
func TestSessionSeriesPerLimits(t *testing.T) {
	_, ts := startServer(t, Config{})
	for _, limits := range []*Limits{nil, {MaxProbes: 1 << 40}} {
		req := smallEval
		req.Limits = limits
		if code, body := postJSON(t, ts.URL+"/v1/evaluate", req, nil); code != http.StatusOK {
			t.Fatalf("evaluate with limits %+v: %d %s", limits, code, body)
		}
	}
	m := getMetrics(t, ts) // fails on a duplicate series
	for _, name := range []string{"crcserve_pool_session_probes", "crcserve_pool_session_restored"} {
		if got := m.series(name, `poly="0x83"`); len(got) != 2 {
			t.Errorf("%s: %d series for two sessions: %v", name, len(got), got)
		}
		for _, label := range []string{`max_probes="0"`, `max_probes="1099511627776"`} {
			if got := m.series(name, label); len(got) != 1 {
				t.Errorf("%s{%s}: %d series, want 1", name, label, len(got))
			}
		}
	}
	if got := m.series("crcserve_pool_session_memo_entries", `kind="bound_weights"`); len(got) != 2 {
		t.Errorf("crcserve_pool_session_memo_entries: %d bound_weights series for two sessions", len(got))
	}
}

// BenchmarkWarmEvaluate measures the full warm-request path — ServeHTTP
// middleware, request-ID handling, session-memo hit, response encoding,
// metrics observation — for comparison with
// BenchmarkRequestInstrumentation: the instrumentation share of a warm
// request must stay under 2%.
func BenchmarkWarmEvaluate(b *testing.B) {
	s, err := New(Config{})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer s.Close()
	body := `{"poly":"0x82608edb","width":32,"max_len":128,"max_hd":6}`
	warm := httptest.NewRecorder()
	s.ServeHTTP(warm, httptest.NewRequest("POST", "/v1/evaluate", strings.NewReader(body)))
	if warm.Code != http.StatusOK {
		b.Fatalf("prime: %d %s", warm.Code, warm.Body.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/evaluate", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatal(rec.Code)
		}
	}
}

// BenchmarkColdEvaluate measures the pool-miss path: every iteration
// evaluates a fresh random 32-bit polynomial (128 data bits, HD up to
// 4), so each request builds a new session, factors its generator for
// the shape, the period and the weight-2 boundary, and runs the W3/W4
// scans.
func BenchmarkColdEvaluate(b *testing.B) {
	s, err := New(Config{})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer s.Close()
	rng := rand.New(rand.NewPCG(1, 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"poly":"%#x","width":32,"max_len":128,"max_hd":4}`, 1<<31|rng.Uint32())
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/evaluate", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatal(rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkRequestInstrumentation isolates what the observability layer
// adds to every request: the histogram/counter observation plus the
// request-ID mint the middleware performs, without tracing.
func BenchmarkRequestInstrumentation(b *testing.B) {
	s, err := New(Config{TraceBuffer: -1})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer s.Close()
	r := httptest.NewRequest("POST", "/v1/evaluate", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rid := obs.NewRequestID()
		s.observe(r, http.StatusOK, rid, 50*time.Microsecond, nil, 0)
	}
}

// BenchmarkRequestInstrumentationTraced measures the same per-request
// path with tracing on: trace mint, root span lifecycle, recorder
// admission and (when retained) the exemplar store. The delta against
// BenchmarkRequestInstrumentation is the tracing tax BENCH_PR10 gates.
func BenchmarkRequestInstrumentationTraced(b *testing.B) {
	s, err := New(Config{TraceBuffer: 256, TraceSampleRate: 0.1})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer s.Close()
	r := httptest.NewRequest("POST", "/v1/evaluate", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rid := obs.NewRequestID()
		tr := obs.NewTrace("/v1/evaluate")
		s.observe(r, http.StatusOK, rid, 50*time.Microsecond, tr, 0)
	}
}
