package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestMountRoutes pins the shared debug surface: negotiated /metrics,
// the healthz body, trace listing and lookup, and JSON errors that carry
// the request ID and mark the request's span.
func TestMountRoutes(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("mount_test_total", "A counter.").Inc()
	rec := NewFlightRecorder(8, 1)
	for _, name := range []string{"a", "b", "a"} {
		tr := NewTrace(name)
		tr.Root().End()
		rec.RecordTrace(tr)
	}
	mux := http.NewServeMux()
	Mount(mux, reg, rec)
	off := http.NewServeMux()
	Mount(off, reg, nil)

	serve := func(mux *http.ServeMux, target, accept string) (*httptest.ResponseRecorder, *Trace) {
		tr := NewTrace("request")
		r := httptest.NewRequest("GET", target, nil)
		r.Header.Set("Accept", accept)
		r = r.WithContext(ContextWithSpan(WithRequestID(r.Context(), "rid-7"), tr.Root()))
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, r)
		return w, tr
	}

	for _, c := range []struct{ target, accept, ctype string }{
		{"/metrics", "", prometheusContentType},
		{"/metrics?format=prometheus", "application/openmetrics-text", prometheusContentType},
		{"/metrics?format=openmetrics", "", openMetricsContentType},
		{"/metrics", "application/openmetrics-text;q=1, text/plain;q=0.5", openMetricsContentType},
	} {
		w, _ := serve(mux, c.target, c.accept)
		if ct := w.Header().Get("Content-Type"); ct != c.ctype {
			t.Errorf("%s (Accept %q): Content-Type %q, want %q", c.target, c.accept, ct, c.ctype)
		}
		body := w.Body.String()
		if err := CheckExposition(strings.NewReader(body)); err != nil || !strings.Contains(body, "mount_test_total 1") {
			t.Errorf("%s: %v\n%s", c.target, err, body)
		}
	}

	if w, _ := serve(off, "/healthz", ""); w.Code != http.StatusOK || w.Body.String() != `{"status":"ok"}`+"\n" {
		t.Errorf("/healthz: %d %q", w.Code, w.Body.String())
	}

	w, _ := serve(mux, "/v1/traces?endpoint=a&limit=1", "")
	var list TracesResponse
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil || list.Count != 1 || list.Traces[0].Name != "a" {
		t.Errorf("filtered listing: %d %s", w.Code, w.Body.String())
	}
	w, _ = serve(mux, "/v1/traces/"+list.Traces[0].TraceID, "")
	var td TraceData
	if err := json.Unmarshal(w.Body.Bytes(), &td); err != nil || td.Root == nil || td.Root.Name != "a" {
		t.Errorf("trace lookup: %d %s", w.Code, w.Body.String())
	}

	for _, c := range []struct {
		mux    *http.ServeMux
		target string
		code   int
		msg    string
	}{
		{mux, "/v1/traces?limit=-1", http.StatusBadRequest, "limit must be a positive integer"},
		{mux, "/v1/traces/nope", http.StatusNotFound, "trace not found (evicted or never retained)"},
		{off, "/v1/traces", http.StatusNotFound, "tracing disabled"},
		{off, "/v1/traces/nope", http.StatusNotFound, "tracing disabled"},
	} {
		w, tr := serve(c.mux, c.target, "")
		var body struct {
			Error     string `json:"error"`
			RequestID string `json:"request_id"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || w.Code != c.code ||
			body.Error != c.msg || body.RequestID != "rid-7" || w.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s: %d %q %s", c.target, w.Code, w.Header().Get("Content-Type"), w.Body.String())
		}
		if got := tr.Data().Root.Error; got != c.msg {
			t.Errorf("%s: span error %q, want %q", c.target, got, c.msg)
		}
	}
}
