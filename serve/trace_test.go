package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"

	"koopmancrc/internal/obs"
)

// postRaw posts JSON and returns the raw *http.Response (callers need
// headers, unlike postJSON).
func postRaw(t *testing.T, url string, req any) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Body.Close() })
	return r
}

func getTrace(t *testing.T, ts string, id string) (TraceData, int) {
	t.Helper()
	r, err := http.Get(ts + "/v1/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var td TraceData
	if r.StatusCode == http.StatusOK {
		if err := json.NewDecoder(r.Body).Decode(&td); err != nil {
			t.Fatalf("decode trace: %v", err)
		}
	}
	return td, r.StatusCode
}

// spanNames flattens a span tree into its set of names.
func spanNames(sp *SpanData, into map[string]*SpanData) {
	if sp == nil {
		return
	}
	into[sp.Name] = sp
	for _, c := range sp.Children {
		spanNames(c, into)
	}
}

// TestTraceEndToEnd is the tentpole's acceptance path: a real
// /v1/evaluate produces a trace whose ID (from the X-Trace-ID header)
// resolves at /v1/traces/{id} to a span tree containing the root, the
// pool acquisition, the coalesced flight and the engine's phase spans —
// and the same ID appears as an exemplar on the latency histogram.
func TestTraceEndToEnd(t *testing.T) {
	_, ts := startServer(t, Config{TraceSampleRate: 1})

	r := postRaw(t, ts.URL+"/v1/evaluate", smallEval)
	io.Copy(io.Discard, r.Body)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: %d", r.StatusCode)
	}
	id := r.Header.Get("X-Trace-ID")
	if id == "" {
		t.Fatal("no X-Trace-ID header on a traced request")
	}

	td, code := getTrace(t, ts.URL, id)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/traces/%s: %d", id, code)
	}
	if td.TraceID != id || td.Name != "/v1/evaluate" {
		t.Fatalf("trace identity: got %q/%q, want %q/%q", td.TraceID, td.Name, id, "/v1/evaluate")
	}
	if td.Error != "" {
		t.Fatalf("successful request marked errored: %q", td.Error)
	}
	names := map[string]*SpanData{}
	spanNames(td.Root, names)
	for _, want := range []string{"/v1/evaluate", "pool.acquire", "flight"} {
		if names[want] == nil {
			t.Errorf("span %q missing from tree %v", want, keys(names))
		}
	}
	engine := 0
	for name := range names {
		if strings.HasPrefix(name, "engine.") {
			engine++
		}
	}
	if engine == 0 {
		t.Errorf("no engine phase spans in tree %v", keys(names))
	}
	// Engine spans must nest under the flight, not dangle off the root.
	if fl := names["flight"]; fl != nil {
		under := map[string]*SpanData{}
		spanNames(fl, under)
		found := false
		for name := range under {
			if strings.HasPrefix(name, "engine.") {
				found = true
			}
		}
		if !found {
			t.Error("engine spans not nested under the flight span")
		}
	}

	// The trace is listed, and the endpoint filter finds it.
	resp, err := http.Get(ts.URL + "/v1/traces?endpoint=/v1/evaluate")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list TracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range list.Traces {
		if s.TraceID == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace %s not in filtered listing (%d entries)", id, list.Count)
	}

	// The negotiated OpenMetrics exposition carries a resolvable
	// exemplar and the mandatory terminator.
	om, err := http.Get(ts.URL + "/metrics?format=openmetrics")
	if err != nil {
		t.Fatal(err)
	}
	defer om.Body.Close()
	if ct := om.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Errorf("OpenMetrics content type: %q", ct)
	}
	text, _ := io.ReadAll(om.Body)
	if !strings.Contains(string(text), `# {trace_id="`) {
		t.Error("no exemplar in the OpenMetrics exposition")
	}
	if !strings.HasSuffix(string(text), "# EOF\n") {
		t.Error("OpenMetrics exposition lacks the # EOF terminator")
	}
	if err := obs.CheckExposition(bytes.NewReader(text)); err != nil {
		t.Errorf("exposition with exemplars fails validation: %v", err)
	}

	// The classic 0.0.4 exposition must stay exemplar-free: its parser
	// errors on the trailer and a real Prometheus would lose the whole
	// scrape.
	prom, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer prom.Body.Close()
	text, _ = io.ReadAll(prom.Body)
	if strings.Contains(string(text), " # {") {
		t.Error("exemplar trailer leaked into the 0.0.4 exposition")
	}
	if err := obs.CheckExposition(bytes.NewReader(text)); err != nil {
		t.Errorf("0.0.4 exposition fails validation: %v", err)
	}
}

// TestScannerProbesNotRetained is the flight-recorder abuse regression:
// unauthenticated 401s and unknown-path 404s must not produce errored
// (always-retained, pinned) traces, or scanners walking random paths
// would fill the ring and displace every legitimate trace.
func TestScannerProbesNotRetained(t *testing.T) {
	_, ts := startServer(t, Config{Token: "sesame", TraceSampleRate: -1})

	for i := 0; i < 40; i++ {
		r, err := http.Get(ts.URL + "/some/random/path")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusUnauthorized && r.StatusCode != http.StatusNotFound {
			t.Fatalf("probe status %d", r.StatusCode)
		}
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/traces", nil)
	req.Header.Set("Authorization", "Bearer sesame")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list TracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	for _, s := range list.Traces {
		if s.Error != "" {
			t.Errorf("probe retained as errored trace: %+v", s)
		}
	}
}

func keys(m map[string]*SpanData) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestTraceBudgetExceededRetained pins the tail-sampling guarantee the
// issue names: an evaluation that dies on its probe budget is always
// retained — even at sample rate 0 — with the full span tree and the
// engine phases that completed before the budget tripped.
func TestTraceBudgetExceededRetained(t *testing.T) {
	_, ts := startServer(t, Config{TraceSampleRate: -1})

	req := EvaluateRequest{
		PolyRef: PolyRef{Poly: "0x82608edb", Width: 32},
		MaxLen:  4096,
		MaxHD:   6,
		Limits:  &Limits{MaxProbes: 20000},
	}
	r := postRaw(t, ts.URL+"/v1/evaluate", req)
	body, _ := io.ReadAll(r.Body)
	if r.StatusCode == http.StatusOK {
		t.Fatalf("budget-capped evaluate succeeded; raise the test's cost: %s", body)
	}
	id := r.Header.Get("X-Trace-ID")
	td, code := getTrace(t, ts.URL, id)
	if code != http.StatusOK {
		t.Fatalf("errored trace %s not retained: %d", id, code)
	}
	if td.Error == "" {
		t.Fatal("retained trace lost its error status")
	}
	names := map[string]*SpanData{}
	spanNames(td.Root, names)
	for _, want := range []string{"pool.acquire", "flight"} {
		if names[want] == nil {
			t.Errorf("span %q missing from errored tree %v", want, keys(names))
		}
	}
	if fl := names["flight"]; fl != nil && fl.Error == "" {
		t.Error("flight span did not record the evaluation error")
	}
	engine := 0
	for name := range names {
		if strings.HasPrefix(name, "engine.") {
			engine++
		}
	}
	if engine == 0 {
		t.Errorf("no completed engine phases in errored tree %v", keys(names))
	}

	// And it shows up under the errors-only filter.
	resp, err := http.Get(ts.URL + "/v1/traces?error=true")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list TracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range list.Traces {
		if s.TraceID == id {
			found = true
			if s.Error == "" {
				t.Error("summary lost the error flag")
			}
		}
	}
	if !found {
		t.Fatalf("errored trace %s missing from ?error=true listing", id)
	}
}

// TestTracingDisabled checks the negative-TraceBuffer kill switch: no
// trace headers, no span overhead, and /v1/traces answers 404.
func TestTracingDisabled(t *testing.T) {
	_, ts := startServer(t, Config{TraceBuffer: -1})

	r := postRaw(t, ts.URL+"/v1/evaluate", smallEval)
	io.Copy(io.Discard, r.Body)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: %d", r.StatusCode)
	}
	if id := r.Header.Get("X-Trace-ID"); id != "" {
		t.Fatalf("X-Trace-ID %q present with tracing disabled", id)
	}
	for _, path := range []string{"/v1/traces", "/v1/traces/deadbeef"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s with tracing disabled: %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestTracesQueryValidation covers the filter error paths.
func TestTracesQueryValidation(t *testing.T) {
	_, ts := startServer(t, Config{})
	for _, q := range []string{"?min_duration=bogus", "?error=maybe", "?limit=0", "?limit=x"} {
		resp, err := http.Get(ts.URL + "/v1/traces" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /v1/traces%s: %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestAccessLog checks the satellite: with -accesslog on, each retained
// request emits one structured "access" line carrying the trace ID and
// the sampling verdict; with tracing at rate 1 every request is logged.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo}))
	_, ts := startServer(t, Config{TraceSampleRate: 1, AccessLog: true, Logger: logger})

	r := postRaw(t, ts.URL+"/v1/evaluate", smallEval)
	io.Copy(io.Discard, r.Body)
	id := r.Header.Get("X-Trace-ID")

	var line map[string]any
	found := false
	for _, ln := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if !strings.Contains(ln, `"access"`) {
			continue
		}
		if err := json.Unmarshal([]byte(ln), &line); err != nil {
			t.Fatalf("bad log line %q: %v", ln, err)
		}
		if line["trace_id"] == id {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no access line for trace %s in:\n%s", id, buf.String())
	}
	for _, k := range []string{"method", "endpoint", "status", "elapsed", "bytes", "request_id", "sampled"} {
		if _, ok := line[k]; !ok {
			t.Errorf("access line missing %q: %v", k, line)
		}
	}
	if line["endpoint"] != "/v1/evaluate" || line["sampled"] != true {
		t.Errorf("access line fields wrong: %v", line)
	}
}

// TestAccessLogDisabledByDefault: no Config.AccessLog, no access lines.
func TestAccessLogDisabledByDefault(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo}))
	_, ts := startServer(t, Config{TraceSampleRate: 1, Logger: logger})
	r := postRaw(t, ts.URL+"/v1/evaluate", smallEval)
	io.Copy(io.Discard, r.Body)
	if strings.Contains(buf.String(), `"access"`) {
		t.Fatalf("access line emitted without AccessLog: %s", buf.String())
	}
}
