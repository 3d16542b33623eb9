package serve

import (
	"context"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"koopmancrc"
	"koopmancrc/internal/corpus"
	"koopmancrc/internal/obs"
)

// serverObs is the server's only metrics store: per-endpoint request
// latency and outcome counters, per-phase engine histograms, the
// evaluation and checksum counters, and gauge views over the session
// pool and the corpus, all behind one obs registry that /metrics renders.
type serverObs struct {
	registry *obs.Registry

	reqSeconds *obs.HistogramVec // request wall time by endpoint
	requests   *obs.CounterVec   // completions by endpoint and status code

	phaseSeconds *obs.HistogramVec // engine phase wall time by phase
	phaseProbes  *obs.HistogramVec // engine phase work ops by phase

	flights   *obs.Counter    // evaluations actually started on an engine
	coalesced *obs.Counter    // requests that joined an in-flight identical evaluation
	canceled  *obs.Counter    // evaluations aborted via the engine's cancel hook
	streams   *obs.Counter    // SSE streams served
	streamErr *obs.Counter    // SSE streams that ended in an error event
	checksums *obs.CounterVec // checksums served, by kernel kind

	batchItems  *obs.Histogram // items per checksum batch
	batchBytes  *obs.Histogram // total decoded payload bytes per checksum batch
	streamBytes *obs.Histogram // body bytes per completed checksum stream

	// The corpus series exist only when the server has a corpus.
	corpusHits      *obs.Counter   // sessions warm-started from the corpus
	corpusMisses    *obs.Counter   // sessions created with no stored knowledge
	corpusWrites    *obs.Counter   // memo snapshots persisted write-behind
	corpusWriteErrs *obs.Counter   // persistence attempts that failed
	corpusLoad      *obs.Histogram // corpus lookup+restore wall time per new session
}

func newServerObs(s *Server) *serverObs {
	r := obs.NewRegistry()
	o := &serverObs{
		registry: r,
		reqSeconds: r.NewHistogramVec("crcserve_request_duration_seconds",
			"Request wall time by endpoint.", obs.LatencyBuckets(), "endpoint"),
		requests: r.NewCounterVec("crcserve_requests_total",
			"Completed requests by endpoint and HTTP status code.", "endpoint", "code"),
		phaseSeconds: r.NewHistogramVec("crcserve_engine_phase_seconds",
			"Engine probe-phase wall time (boundary, w3_scan, w4_scan, w2..w4_count).",
			obs.LatencyBuckets(), "phase"),
		phaseProbes: r.NewHistogramVec("crcserve_engine_phase_probes",
			"Engine probe-phase work operations (probes + store inserts).",
			obs.WorkBuckets(), "phase"),
		flights: r.NewCounter("crcserve_flights_total",
			"Evaluations actually started on an engine."),
		coalesced: r.NewCounter("crcserve_coalesced_requests_total",
			"Requests that joined an in-flight identical evaluation."),
		canceled: r.NewCounter("crcserve_canceled_evaluations_total",
			"Evaluations aborted via the engine's cancel hook."),
		streams: r.NewCounter("crcserve_streams_total",
			"SSE streams served."),
		streamErr: r.NewCounter("crcserve_stream_errors_total",
			"SSE streams that ended in an error event (inside a 200 response)."),
		checksums: r.NewCounterVec("crcserve_checksums_total",
			"Checksums served (single, batch items and streams) by kernel kind.", "kernel"),
		batchItems: r.NewHistogram("crcserve_checksum_batch_items",
			"Items per /v1/checksum/batch request.", obs.WorkBuckets()),
		batchBytes: r.NewHistogram("crcserve_checksum_batch_bytes",
			"Total decoded payload bytes per /v1/checksum/batch request.", obs.WorkBuckets()),
		streamBytes: r.NewHistogram("crcserve_checksum_stream_bytes",
			"Body bytes digested per completed /v1/checksum/stream request.", obs.WorkBuckets()),
	}
	r.NewGaugeFunc("crcserve_pool_capacity",
		"Session pool capacity (Config.PoolSize).", func() float64 { return float64(s.pool.cap) })
	r.NewGaugeFunc("crcserve_pool_sessions",
		"Live Analyzer sessions in the pool.", func() float64 { n, _, _, _ := s.pool.counts(); return float64(n) })
	r.NewGaugeFunc("crcserve_pool_hits",
		"Session pool hits.", func() float64 { _, h, _, _ := s.pool.counts(); return float64(h) })
	r.NewGaugeFunc("crcserve_pool_misses",
		"Session pool misses.", func() float64 { _, _, m, _ := s.pool.counts(); return float64(m) })
	r.NewGaugeFunc("crcserve_pool_evictions",
		"Session pool evictions.", func() float64 { _, _, _, e := s.pool.counts(); return float64(e) })
	r.NewGaugeFunc("crcserve_pool_memo_entries",
		"Boundary plus weight memo entries across live sessions.", func() float64 {
			n := 0
			for _, si := range s.pool.sessions() {
				n += si.BoundWeights + si.WeightEntries
			}
			return float64(n)
		})
	// A session is keyed by its polynomial, depth and probe budget, so
	// the labels name all of them: two sessions that differ only in
	// their budget are two series.
	sessionLabels := []string{"poly", "width", "max_hd", "max_probes"}
	sessionID := func(si sessionInfo, extra ...string) []string {
		return append([]string{si.Poly, strconv.Itoa(si.Width), strconv.Itoa(si.MaxHD),
			strconv.FormatInt(si.Limits.MaxProbes, 10)}, extra...)
	}
	r.NewGaugeCollector("crcserve_pool_session_probes",
		"Engine probes spent by each live session.", sessionLabels,
		func(emit func([]string, float64)) {
			for _, si := range s.pool.sessions() {
				emit(sessionID(si), float64(si.Probes))
			}
		})
	r.NewGaugeCollector("crcserve_pool_session_memo_entries",
		"Memo entries held by each live session, by kind (bound_weights, exact_boundaries, weight_entries).",
		append(sessionLabels, "kind"), func(emit func([]string, float64)) {
			for _, si := range s.pool.sessions() {
				emit(sessionID(si, "bound_weights"), float64(si.BoundWeights))
				emit(sessionID(si, "exact_boundaries"), float64(si.ExactBoundaries))
				emit(sessionID(si, "weight_entries"), float64(si.WeightEntries))
			}
		})
	r.NewGaugeCollector("crcserve_pool_session_restored",
		"1 for a live session warm-started from the persistent corpus, else 0.", sessionLabels,
		func(emit func([]string, float64)) {
			for _, si := range s.pool.sessions() {
				restored := 0.0
				if si.Restored {
					restored = 1
				}
				emit(sessionID(si), restored)
			}
		})
	if s.corpus != nil {
		o.corpusHits = r.NewCounter("crcserve_corpus_hits_total",
			"Sessions warm-started from the persistent corpus.")
		o.corpusMisses = r.NewCounter("crcserve_corpus_misses_total",
			"Sessions created with no stored corpus knowledge.")
		o.corpusWrites = r.NewCounter("crcserve_corpus_writes_total",
			"Memo snapshots persisted to the corpus write-behind.")
		o.corpusWriteErrs = r.NewCounter("crcserve_corpus_write_errors_total",
			"Corpus persistence attempts that failed.")
		o.corpusLoad = r.NewHistogram("crcserve_corpus_load_seconds",
			"Corpus lookup plus memo restore wall time per new session (hits and misses).",
			obs.LatencyBuckets())
		corpusGauge := func(name, help string, v func(corpus.Stats) float64) {
			r.NewGaugeFunc(name, help, func() float64 { return v(s.corpus.Stats()) })
		}
		corpusGauge("crcserve_corpus_entries", "Polynomials with stored knowledge in the corpus.",
			func(st corpus.Stats) float64 { return float64(st.Entries) })
		corpusGauge("crcserve_corpus_facts", "Discrete memo facts (bounds plus counts) across the corpus entries.",
			func(st corpus.Stats) float64 { return float64(st.Facts) })
		corpusGauge("crcserve_corpus_bytes", "Approximate serialized bytes of the corpus entries.",
			func(st corpus.Stats) float64 { return float64(st.Bytes) })
		corpusGauge("crcserve_corpus_appends", "Corpus puts that reached the WAL since open.",
			func(st corpus.Stats) float64 { return float64(st.Appends) })
		corpusGauge("crcserve_corpus_compactions", "Corpus WAL compactions since open.",
			func(st corpus.Stats) float64 { return float64(st.Compactions) })
		corpusGauge("crcserve_corpus_truncated_at_open_bytes", "WAL bytes discarded at open (torn or corrupt tail).",
			func(st corpus.Stats) float64 { return float64(st.TruncatedAtOpen) })
		corpusGauge("crcserve_corpus_skipped_at_open_records", "Replayed corpus records dropped at open for failing validation.",
			func(st corpus.Stats) float64 { return float64(st.SkippedAtOpen) })
	}
	return o
}

// endpointLabel bounds the endpoint label cardinality to the mux's known
// paths; anything else (404 probes, scanners) collapses to "other". It
// also names request traces' root spans, so trace filtering by endpoint
// shares the metrics' cardinality bound.
func endpointLabel(path string) string {
	switch path {
	case "/v1/evaluate", "/v1/hd", "/v1/maxlen", "/v1/select",
		"/v1/checksum", "/v1/checksum/batch", "/v1/checksum/stream",
		"/v1/algorithms", "/v1/traces", "/healthz", "/metrics":
		return path
	}
	if strings.HasPrefix(path, "/v1/traces/") {
		return "/v1/traces/{id}"
	}
	return "other"
}

// statusWriter captures the response status and body byte count for the
// request metrics and the access log. Flush is forwarded so SSE
// streaming still works through the wrapper (streamEvaluate type-asserts
// http.Flusher).
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// requestID extracts a usable client-supplied request ID, or mints one.
// Client values are length-capped and restricted to printable ASCII so
// hostile IDs cannot smuggle header/log structure.
func requestID(r *http.Request) string {
	id := r.Header.Get("X-Request-ID")
	if id == "" || len(id) > 64 {
		return obs.NewRequestID()
	}
	for i := 0; i < len(id); i++ {
		if id[i] < 0x21 || id[i] > 0x7e {
			return obs.NewRequestID()
		}
	}
	return id
}

// observe records a completed request in the histograms, counters, the
// flight recorder and the structured log. When the trace is retained the
// latency observation carries an exemplar pointing at its trace ID, so a
// slow histogram bucket on a dashboard links to a resolvable span tree.
func (s *Server) observe(r *http.Request, status int, rid string, elapsed time.Duration, tr *obs.Trace, bytes int64) {
	ep := endpointLabel(r.URL.Path)
	kept := false
	traceID := ""
	if tr != nil {
		traceID = tr.ID()
		root := tr.Root()
		if status >= 500 {
			// writeError marks spans with the real message; this is the
			// fallback for server-error paths that bypass it. Client
			// errors are deliberately excluded: an errored trace is
			// always retained and pinned, and unauthenticated 401/404
			// probes (scanners walking random paths) must not be able to
			// fill the flight recorder with unevictable traces or make
			// the access log attacker-controlled. Real request errors on
			// known endpoints (bad poly, budget exceeded) still pin via
			// writeError's explicit SetError.
			root.SetError("HTTP " + statusLabel(status))
		}
		root.SetAttr("status", statusLabel(status))
		root.End()
		if s.recorder != nil {
			kept, _ = s.recorder.RecordTrace(tr)
		}
	}
	if kept {
		s.obs.reqSeconds.With(ep).ObserveExemplar(elapsed.Seconds(), traceID)
	} else {
		s.obs.reqSeconds.With(ep).Observe(elapsed.Seconds())
	}
	s.obs.requests.With(ep, statusLabel(status)).Inc()
	// The access log rides the tail-sampling decision: under load only
	// retained (errored / slowest-K / sampled) requests produce a line,
	// so log volume tracks the flight recorder's budget. With tracing
	// disabled every request is logged.
	if s.cfg.AccessLog && (s.recorder == nil || kept) {
		s.logger.Info("access",
			slog.String("method", r.Method),
			slog.String("endpoint", ep),
			slog.Int("status", status),
			slog.Duration("elapsed", elapsed),
			slog.Int64("bytes", bytes),
			slog.String("request_id", rid),
			slog.String("trace_id", traceID),
			slog.Bool("sampled", kept),
		)
	}
	// Building slog attrs boxes each one even when debug logging is off;
	// the explicit Enabled gate keeps the disabled-path cost at a few
	// nanoseconds so per-request instrumentation stays under its budget.
	if !s.logger.Enabled(r.Context(), slog.LevelDebug) {
		return
	}
	s.logger.Debug("request",
		slog.String("request_id", rid),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.Duration("elapsed", elapsed),
	)
}

// observeSpan is the session pool's span sink: every engine phase of
// every evaluation lands in the per-phase histograms and, at debug
// level, the structured log with the request ID of the caller that paid
// for the work.
func (s *Server) observeSpan(ctx context.Context, sp koopmancrc.Span) {
	s.obs.phaseSeconds.With(sp.Phase).Observe(sp.Duration.Seconds())
	s.obs.phaseProbes.With(sp.Phase).Observe(float64(sp.Probes))
	// Engine phases complete before the hook fires, so they attach to the
	// request trace as backdated leaf spans rather than open children.
	obs.SpanFromContext(ctx).AddLeaf("engine."+sp.Phase, sp.Duration,
		obs.Attr{K: "poly", V: hexStr(sp.Poly.In(koopmancrc.Koopman))},
		obs.Attr{K: "weight", V: strconv.Itoa(sp.Weight)},
		obs.Attr{K: "data_len", V: strconv.Itoa(sp.DataLen)},
		obs.Attr{K: "probes", V: strconv.FormatInt(sp.Probes, 10)},
	)
	if !s.logger.Enabled(ctx, slog.LevelDebug) {
		return
	}
	s.logger.Debug("engine_phase",
		slog.String("request_id", obs.RequestID(ctx)),
		slog.String("poly", hexStr(sp.Poly.In(koopmancrc.Koopman))),
		slog.String("phase", sp.Phase),
		slog.Int("weight", sp.Weight),
		slog.Int("data_len", sp.DataLen),
		slog.Duration("elapsed", sp.Duration),
		slog.Int64("probes", sp.Probes),
	)
}

// statusLabel formats an HTTP status for the code label without
// allocating for the codes a healthy server actually returns.
func statusLabel(status int) string {
	switch status {
	case http.StatusOK:
		return "200"
	case http.StatusBadRequest:
		return "400"
	case http.StatusUnauthorized:
		return "401"
	case http.StatusNotFound:
		return "404"
	case http.StatusMethodNotAllowed:
		return "405"
	case http.StatusRequestEntityTooLarge:
		return "413"
	case http.StatusInternalServerError:
		return "500"
	case http.StatusGatewayTimeout:
		return "504"
	}
	return strconv.Itoa(status)
}
