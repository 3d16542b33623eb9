package obs

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// TracesResponse is the body of GET /v1/traces.
type TracesResponse struct {
	Count  int            `json:"count"`
	Traces []TraceSummary `json:"traces"`
}

// ErrorResponse is the body of every non-2xx JSON reply. RequestID
// matches the response's X-Request-ID header, so a failure seen by a
// client can be located in the server's structured logs.
type ErrorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// The content types of the classic 0.0.4 text exposition
// (WritePrometheus) and of the OpenMetrics one (WriteOpenMetrics).
const (
	prometheusContentType  = "text/plain; version=0.0.4; charset=utf-8"
	openMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

// Mount registers the shared debug surface on mux, so every binary
// answers "what is it doing, and why was that slow" the same way:
//
//	GET /metrics         reg as the exemplar-free 0.0.4 text exposition, or
//	                     as OpenMetrics on ?format=openmetrics or an
//	                     Accept header naming application/openmetrics-text
//	GET /healthz         {"status":"ok"}
//	GET /v1/traces       rec's retained trace summaries, newest first
//	GET /v1/traces/{id}  one retained trace's span tree
//
// The listing filters on endpoint (exact root-span name), min_duration
// (a Go duration), error (a bool: errored traces only) and limit (a
// positive integer, default 100); a malformed value answers 400. A nil
// rec answers both trace routes with 404 "tracing disabled". Errors are
// JSON bodies carrying the context's request ID, and they mark the
// context span as errored. Authentication, if any, is the caller's
// middleware around mux.
func Mount(mux *http.ServeMux, reg *Registry, rec *FlightRecorder) {
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if wantsOpenMetrics(r) {
			w.Header().Set("Content-Type", openMetricsContentType)
			_ = reg.WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", prometheusContentType)
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/traces", func(w http.ResponseWriter, r *http.Request) {
		if rec == nil {
			WriteError(w, r, http.StatusNotFound, "tracing disabled")
			return
		}
		f, msg := parseTraceFilter(r)
		if msg != "" {
			WriteError(w, r, http.StatusBadRequest, msg)
			return
		}
		traces := rec.Summaries(f)
		WriteJSON(w, http.StatusOK, &TracesResponse{Count: len(traces), Traces: traces})
	})
	mux.HandleFunc("GET /v1/traces/{id}", func(w http.ResponseWriter, r *http.Request) {
		if rec == nil {
			WriteError(w, r, http.StatusNotFound, "tracing disabled")
			return
		}
		td, ok := rec.Get(r.PathValue("id"))
		if !ok {
			WriteError(w, r, http.StatusNotFound, "trace not found (evicted or never retained)")
			return
		}
		WriteJSON(w, http.StatusOK, td)
	})
}

// wantsOpenMetrics decides whether the scrape negotiated the
// OpenMetrics exposition — the only mode that carries exemplar
// trailers, which the classic 0.0.4 parser rejects. An explicit
// ?format= wins; otherwise the Accept header must name the OpenMetrics
// type, as Prometheus does when configured to scrape exemplars.
func wantsOpenMetrics(r *http.Request) bool {
	if f := r.URL.Query().Get("format"); f != "" {
		return f == "openmetrics"
	}
	return strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text")
}

// parseTraceFilter reads the /v1/traces query, returning a non-empty
// message for the first malformed value.
func parseTraceFilter(r *http.Request) (TraceFilter, string) {
	q := r.URL.Query()
	f := TraceFilter{Name: q.Get("endpoint"), Limit: 100}
	if v := q.Get("min_duration"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return f, "min_duration: " + err.Error()
		}
		f.MinDuration = d
	}
	if v := q.Get("error"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return f, "error: " + err.Error()
		}
		f.ErrorsOnly = b
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return f, "limit must be a positive integer"
		}
		f.Limit = n
	}
	return f, ""
}

// WriteJSON answers with status and v as a JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers with status and an ErrorResponse carrying the
// request's ID, and marks the request's span errored: tail sampling then
// retains the trace, since errored traces are always kept.
func WriteError(w http.ResponseWriter, r *http.Request, status int, msg string) {
	SpanFromContext(r.Context()).SetError(msg)
	WriteJSON(w, status, ErrorResponse{Error: msg, RequestID: RequestID(r.Context())})
}
