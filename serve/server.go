package serve

import (
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"koopmancrc"
	"koopmancrc/crchash"
	"koopmancrc/internal/corpus"
	"koopmancrc/internal/obs"
)

// Config tunes a Server. The zero value serves with sensible defaults
// and no authentication.
type Config struct {
	// PoolSize caps the number of live Analyzer sessions; beyond it the
	// least recently used session is evicted (default 64).
	PoolSize int
	// MaxLenCap clamps per-request max_len and horizon (default 2^20).
	MaxLenCap int
	// MaxHDCap clamps per-request max_hd (default koopmancrc.DefaultMaxHD).
	MaxHDCap int
	// DefaultMaxHD is used when a request omits max_hd (default MaxHDCap).
	DefaultMaxHD int
	// MaxCandidates caps /v1/select candidate lists (default 64).
	MaxCandidates int
	// MaxWeightLens caps the exact-weight lengths of one evaluate
	// request (default 8).
	MaxWeightLens int
	// MaxBodyBytes caps every JSON request body (default 1 MiB); a
	// larger body is answered 413.
	MaxBodyBytes int64
	// Timeout bounds each request's evaluation, streaming included
	// (0 = no server-side deadline).
	Timeout time.Duration
	// Token, when non-empty, requires "Authorization: Bearer <Token>" on
	// every endpoint except /healthz. Comparison is constant-time.
	Token string
	// CorpusDir, when non-empty, opens (creating if needed) the
	// persistent analysis corpus in that directory: new sessions
	// warm-start from stored memos — a baked polynomial answers with
	// zero engine probes — and newly computed memos are persisted back
	// write-behind, never blocking the request path. See internal/corpus
	// for the on-disk format and crash-safety guarantees.
	CorpusDir string
	// TraceBuffer caps the completed request traces the in-process
	// flight recorder retains for /v1/traces (default 256; negative
	// disables tracing entirely — no spans, no recorder, no exemplars).
	TraceBuffer int
	// TraceSampleRate is the probability a healthy, fast request's trace
	// is retained. Errored traces and the slowest-K per endpoint are
	// always retained regardless (tail sampling: the decision is made at
	// completion, when the outcome is known). 0 means the default 0.1;
	// negative means "errors and slowest-K only".
	TraceSampleRate float64
	// AccessLog emits one structured info-level log line per completed
	// request (method, endpoint, status, duration, bytes, request and
	// trace IDs). With tracing enabled the log is sampled by the same
	// tail-sampling decision as the flight recorder, so under load it
	// keeps exactly the requests whose traces are retrievable.
	AccessLog bool
	// Limits is the ceiling for the per-request probe budget: a request
	// may lower it but never raise it. A zero field leaves the engine
	// default as the only bound.
	Limits koopmancrc.Limits
	// Logger receives structured request and engine-phase events at
	// debug level (default slog.Default()).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.PoolSize <= 0 {
		c.PoolSize = 64
	}
	if c.MaxLenCap <= 0 {
		c.MaxLenCap = 1 << 20
	}
	if c.MaxHDCap <= 0 {
		c.MaxHDCap = koopmancrc.DefaultMaxHD
	}
	if c.DefaultMaxHD <= 0 || c.DefaultMaxHD > c.MaxHDCap {
		c.DefaultMaxHD = c.MaxHDCap
	}
	if c.MaxCandidates <= 0 {
		c.MaxCandidates = 64
	}
	if c.MaxWeightLens <= 0 {
		c.MaxWeightLens = 8
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.TraceBuffer == 0 {
		c.TraceBuffer = 256
	}
	if c.TraceSampleRate == 0 {
		c.TraceSampleRate = 0.1
	} else if c.TraceSampleRate < 0 {
		c.TraceSampleRate = 0
	}
	return c
}

// Server is the HTTP serving layer: JSON endpoints over a bounded LRU
// pool of Analyzer sessions with singleflight coalescing of identical
// evaluations. Create one with New; it implements http.Handler.
type Server struct {
	cfg     Config
	pool    *pool
	flights flightGroup
	obs     *serverObs
	logger  *slog.Logger
	mux     *http.ServeMux

	// recorder is the tail-sampled flight recorder behind /v1/traces
	// (nil when Config.TraceBuffer is negative — tracing disabled).
	recorder *obs.FlightRecorder

	// corpus is the persistent analysis store (nil without CorpusDir);
	// persistCh feeds the write-behind persister goroutine, which signals
	// persistDone when it has drained on shutdown.
	corpus      *corpus.Store
	persistCh   chan *session
	persistDone chan struct{}

	// base parents every coalesced evaluation; Close cancels it so
	// shutdown aborts in-flight engine scans promptly.
	base      context.Context
	cancel    context.CancelFunc
	closeOnce sync.Once
}

// New returns a Server for the configuration. The only failure mode is
// a Config.CorpusDir that cannot be opened. Call Close during shutdown
// to cancel in-flight evaluations and flush the corpus.
func New(cfg Config) (*Server, error) {
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg.withDefaults(),
		mux:    http.NewServeMux(),
		base:   base,
		cancel: cancel,
	}
	s.logger = s.cfg.Logger
	if s.logger == nil {
		s.logger = slog.Default()
	}
	s.pool = newPool(s.cfg.PoolSize)
	s.pool.spans = s.observeSpan
	if s.cfg.TraceBuffer > 0 {
		s.recorder = obs.NewFlightRecorder(s.cfg.TraceBuffer, s.cfg.TraceSampleRate)
	}
	if s.cfg.CorpusDir != "" {
		if err := s.setupCorpus(s.cfg.CorpusDir); err != nil {
			cancel()
			return nil, err
		}
	}
	s.obs = newServerObs(s)
	s.mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	s.mux.HandleFunc("POST /v1/hd", s.handleHD)
	s.mux.HandleFunc("POST /v1/maxlen", s.handleMaxLen)
	s.mux.HandleFunc("POST /v1/select", s.handleSelect)
	s.mux.HandleFunc("POST /v1/checksum", s.handleChecksum)
	s.mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	obs.Mount(s.mux, s.obs.registry, s.recorder)
	return s, nil
}

// Close cancels every in-flight evaluation and, with a corpus enabled,
// drains the write-behind queue and closes the store (compacting its
// WAL). Idempotent. The Server keeps answering cheap requests (healthz,
// checksum) afterwards; pair it with http.Server.Shutdown for a full
// graceful stop.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.cancel()
		if s.corpus != nil {
			<-s.persistDone
			if err := s.corpus.Close(); err != nil {
				s.logger.Warn("corpus close failed", slog.String("error", err.Error()))
			}
		}
	})
}

// tokenEqual compares bearer tokens in constant time, hashing first so
// even the length is not leaked through timing.
func tokenEqual(got, want string) bool {
	hg, hw := sha256.Sum256([]byte(got)), sha256.Sum256([]byte(want))
	return subtle.ConstantTimeCompare(hg[:], hw[:]) == 1
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Request-ID middleware: echo (or mint) the ID on every response,
	// carry it via context through pool → flight → engine span hooks, and
	// record the completed request in the latency/outcome metrics. With
	// tracing enabled the middleware also opens the request's root span;
	// handlers hang child spans (pool acquire, flight, engine phases) off
	// it through the same context.
	rid := requestID(r)
	w.Header().Set("X-Request-ID", rid)
	ctx := obs.WithRequestID(r.Context(), rid)
	var tr *obs.Trace
	if s.recorder != nil {
		tr = obs.NewTrace(endpointLabel(r.URL.Path),
			obs.Attr{K: "request_id", V: rid},
			obs.Attr{K: "method", V: r.Method},
			obs.Attr{K: "path", V: r.URL.Path})
		w.Header().Set("X-Trace-ID", tr.ID())
		ctx = obs.ContextWithSpan(ctx, tr.Root())
	}
	r = r.WithContext(ctx)
	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	defer func() {
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		s.observe(r, status, rid, time.Since(start), tr, sw.bytes)
	}()

	if s.cfg.Token != "" && r.URL.Path != "/healthz" {
		got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !ok || !tokenEqual(got, s.cfg.Token) {
			sw.Header().Set("WWW-Authenticate", `Bearer realm="crcserve"`)
			// Deliberately not writeError: that would mark the root span
			// errored, and errored traces are always retained and pinned —
			// unauthenticated probes must not be able to fill the flight
			// recorder (or, with AccessLog, drive log volume).
			obs.WriteJSON(sw, http.StatusUnauthorized,
				ErrorResponse{Error: "missing or invalid bearer token", RequestID: rid})
			return
		}
	}
	s.mux.ServeHTTP(sw, r)
}

func writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	obs.WriteError(w, r, status, err.Error())
}

// statusFor maps evaluation errors onto HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, koopmancrc.ErrBudgetExceeded):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Client is gone (or the server is shutting down); the status is
		// for the error counter more than for anyone still listening.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// decode reads a JSON request body, bounded and strict about unknown
// fields so typos fail loudly instead of silently using defaults.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return fmt.Errorf("request body exceeds the %d-byte cap: %w", mbe.Limit, err)
		}
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// decodeStatus maps a decode failure onto its HTTP status: 413 when the
// body blew through the MaxBytesReader bound (the connection is also
// closed — the server must not drain an unbounded body), 400 otherwise.
func decodeStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// clampLimits resolves a request's engine budget against the server
// ceiling: a zero request field inherits the ceiling, a non-zero one is
// capped by it.
func (s *Server) clampLimits(l *Limits) koopmancrc.Limits {
	var out koopmancrc.Limits
	if l != nil {
		out = koopmancrc.Limits{MaxProbes: l.MaxProbes}
	}
	ceil := s.cfg.Limits
	if ceil.MaxProbes > 0 && (out.MaxProbes <= 0 || out.MaxProbes > ceil.MaxProbes) {
		out.MaxProbes = ceil.MaxProbes
	}
	return out
}

// clampMaxHD applies the default and ceiling to a request max_hd.
func (s *Server) clampMaxHD(hd int) (int, error) {
	if hd == 0 {
		return s.cfg.DefaultMaxHD, nil
	}
	if hd < 2 {
		return 0, fmt.Errorf("max_hd %d: need at least 2", hd)
	}
	return min(hd, s.cfg.MaxHDCap), nil
}

// clampLen applies the ceiling to a request length/horizon.
func (s *Server) clampLen(name string, n int) (int, error) {
	if n < 1 {
		return 0, fmt.Errorf("%s %d: need at least 1", name, n)
	}
	return min(n, s.cfg.MaxLenCap), nil
}

// requestCtx derives the evaluation context: the client's (so a
// disconnect detaches the request) bounded by the server timeout.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.Timeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.Timeout)
	}
	return context.WithCancel(r.Context())
}

// evaluation runs fn through the singleflight group, counting flights,
// coalesced joins and engine-level cancellations. It opens the request's
// "flight" child span: when this caller starts the flight, engine phase
// spans nest under it (the flight context inherits the span); a caller
// that joins an in-flight run gets the coalesced attribute instead.
func (s *Server) evaluation(ctx context.Context, key string, fn func(context.Context) (any, error)) (any, error) {
	fsp := obs.SpanFromContext(ctx).StartChild("flight")
	ctx = obs.ContextWithSpan(ctx, fsp)
	onJoin := func() {
		s.obs.coalesced.Inc()
		fsp.SetAttr("coalesced", "true")
	}
	v, err := s.flights.do(ctx, s.base, key, onJoin, func(fctx context.Context) (any, error) {
		s.obs.flights.Inc()
		v, err := fn(fctx)
		if err != nil && errors.Is(err, context.Canceled) {
			s.obs.canceled.Inc()
		}
		return v, err
	})
	if err != nil {
		fsp.SetError(err.Error())
	}
	fsp.End()
	return v, err
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req EvaluateRequest
	if err := s.decode(w, r, &req); err != nil {
		writeError(w, r, decodeStatus(err), err)
		return
	}
	p, err := req.Polynomial()
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	maxHD, err := s.clampMaxHD(req.MaxHD)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	maxLen, err := s.clampLen("max_len", req.MaxLen)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	if len(req.Weights) > s.cfg.MaxWeightLens {
		writeError(w, r, http.StatusBadRequest,
			fmt.Errorf("weights: %d lengths exceed the cap of %d", len(req.Weights), s.cfg.MaxWeightLens))
		return
	}
	// Weight lengths are clamped like every other length knob: an entry
	// beyond MaxLenCap would otherwise reach the engine's O(n) exact
	// weight scans unbounded.
	weights := make([]int, len(req.Weights))
	for i, l := range req.Weights {
		cl, err := s.clampLen("weights", l)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, err)
			return
		}
		weights[i] = cl
	}
	limits := s.clampLimits(req.Limits)
	sess, _ := s.poolGet(r.Context(), p, maxHD, limits)
	// Persist whatever the evaluation taught the session — even a failed
	// or cancelled one leaves monotone partial knowledge worth keeping.
	defer s.notePersist(sess)
	key := fmt.Sprintf("evaluate|s%d|%d|%#x|hd=%d|len=%d|lim=%+v|w=%v",
		sess.id, p.Width(), p.Koopman(), maxHD, maxLen, limits, weights)
	run := func(fctx context.Context) (any, error) {
		rep, err := sess.an.Evaluate(fctx, maxLen)
		if err != nil {
			return nil, err
		}
		wcs, err := WeightCounts(fctx, sess.an, weights)
		if err != nil {
			return nil, err
		}
		return NewEvaluateResponse(rep, maxHD, wcs), nil
	}

	ctx, cancel := s.requestCtx(r)
	defer cancel()
	if isStream(r) {
		s.streamEvaluate(w, ctx, sess, key, run)
		return
	}
	v, err := s.evaluation(ctx, key, run)
	if err != nil {
		writeError(w, r, statusFor(err), err)
		return
	}
	obs.WriteJSON(w, http.StatusOK, v)
}

// isStream reports whether the request asked for SSE progress.
func isStream(r *http.Request) bool {
	switch r.URL.Query().Get("stream") {
	case "", "0", "false":
		return false
	}
	return true
}

// writeSSE emits one server-sent event with a JSON payload.
func writeSSE(w http.ResponseWriter, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

// streamEvaluate serves ?stream=1: progress ticks from the session's
// fan-out as SSE events, then the final result (or error) event. The
// evaluation itself still goes through the singleflight group, so many
// streaming clients can watch one engine run. Ticks are session-scoped,
// not flight-scoped: while this request waits its turn on the session's
// Analyzer, ticks from another query on the same polynomial may arrive —
// same poly, possibly different data_len — so progress consumers should
// treat events as "the session is working", not as a percentage of this
// request's max_len.
func (s *Server) streamEvaluate(w http.ResponseWriter, ctx context.Context, sess *session, key string, run func(context.Context) (any, error)) {
	fl, ok := w.(http.Flusher)
	if !ok {
		obs.WriteJSON(w, http.StatusInternalServerError, ErrorResponse{
			Error: "streaming unsupported by connection", RequestID: obs.RequestID(ctx),
		})
		return
	}
	s.obs.streams.Inc()
	id, ticks := sess.subscribe(64)
	defer sess.unsubscribe(id)

	type outcome struct {
		v   any
		err error
	}
	resCh := make(chan outcome, 1)
	go func() {
		v, err := s.evaluation(ctx, key, run)
		resCh <- outcome{v, err}
	}()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	progress := func(p koopmancrc.Progress) {
		writeSSE(w, "progress", ProgressEvent{
			Poly: hexStr(p.Poly.In(koopmancrc.Koopman)), Weight: p.Weight, DataLen: p.DataLen, Probes: p.Probes,
		})
	}
	// finish drains ticks queued before completion — so every progress
	// event precedes the final event deterministically — then emits the
	// result or error.
	finish := func(res outcome) {
		for {
			select {
			case p := <-ticks:
				progress(p)
				continue
			default:
			}
			break
		}
		if res.err != nil {
			// SSE errors ride inside a 200 stream, so the status-code
			// counter misses them: count them, and mark the root span so
			// the trace is still retained as errored.
			s.obs.streamErr.Inc()
			obs.SpanFromContext(ctx).SetError(res.err.Error())
			writeSSE(w, "error", ErrorResponse{Error: res.err.Error(), RequestID: obs.RequestID(ctx)})
		} else {
			writeSSE(w, "result", res.v)
		}
		fl.Flush()
	}

	for {
		select {
		case p := <-ticks:
			progress(p)
			fl.Flush()
		case res := <-resCh:
			finish(res)
			return
		case <-ctx.Done():
			// Client gone or server deadline; the evaluation goroutine
			// detaches from the flight on the same signal, promptly. A
			// timed-out-but-connected client still deserves the trailing
			// progress and error events (writes to a gone client fail
			// harmlessly).
			finish(<-resCh)
			return
		}
	}
}

func (s *Server) handleHD(w http.ResponseWriter, r *http.Request) {
	var req HDRequest
	if err := s.decode(w, r, &req); err != nil {
		writeError(w, r, decodeStatus(err), err)
		return
	}
	p, err := req.Polynomial()
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	maxHD, err := s.clampMaxHD(req.MaxHD)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	dataLen, err := s.clampLen("data_len", req.DataLen)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	limits := s.clampLimits(req.Limits)
	sess, _ := s.poolGet(r.Context(), p, maxHD, limits)
	defer s.notePersist(sess)
	key := fmt.Sprintf("hd|s%d|%d|%#x|hd=%d|len=%d|lim=%+v", sess.id, p.Width(), p.Koopman(), maxHD, dataLen, limits)

	ctx, cancel := s.requestCtx(r)
	defer cancel()
	v, err := s.evaluation(ctx, key, func(fctx context.Context) (any, error) {
		hd, exact, err := sess.an.HDAt(fctx, dataLen)
		if err != nil {
			return nil, err
		}
		return &HDResponse{
			Poly: hexStr(p.In(koopmancrc.Koopman)), DataLen: dataLen, HD: hd, Exact: exact,
		}, nil
	})
	if err != nil {
		writeError(w, r, statusFor(err), err)
		return
	}
	obs.WriteJSON(w, http.StatusOK, v)
}

func (s *Server) handleMaxLen(w http.ResponseWriter, r *http.Request) {
	var req MaxLenRequest
	if err := s.decode(w, r, &req); err != nil {
		writeError(w, r, decodeStatus(err), err)
		return
	}
	p, err := req.Polynomial()
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	if req.HD < 2 {
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("hd %d: need at least 2", req.HD))
		return
	}
	horizon, err := s.clampLen("horizon", req.Horizon)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	// The session must classify up to hd-1 to answer; derive its depth
	// from the question rather than the default.
	maxHD := min(max(req.HD, s.cfg.DefaultMaxHD), s.cfg.MaxHDCap)
	if req.HD-1 > s.cfg.MaxHDCap {
		writeError(w, r, http.StatusBadRequest,
			fmt.Errorf("hd %d exceeds the server's classification cap of %d", req.HD, s.cfg.MaxHDCap))
		return
	}
	limits := s.clampLimits(req.Limits)
	sess, _ := s.poolGet(r.Context(), p, maxHD, limits)
	defer s.notePersist(sess)
	key := fmt.Sprintf("maxlen|s%d|%d|%#x|hd=%d|hor=%d|shd=%d|lim=%+v", sess.id, p.Width(), p.Koopman(), req.HD, horizon, maxHD, limits)

	ctx, cancel := s.requestCtx(r)
	defer cancel()
	v, err := s.evaluation(ctx, key, func(fctx context.Context) (any, error) {
		maxLen, ok, err := sess.an.MaxLenAtHD(fctx, req.HD, horizon)
		if err != nil {
			return nil, err
		}
		return &MaxLenResponse{
			Poly: hexStr(p.In(koopmancrc.Koopman)), HD: req.HD, Horizon: horizon, MaxLen: maxLen, OK: ok,
		}, nil
	})
	if err != nil {
		writeError(w, r, statusFor(err), err)
		return
	}
	obs.WriteJSON(w, http.StatusOK, v)
}

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	var req SelectRequest
	if err := s.decode(w, r, &req); err != nil {
		writeError(w, r, decodeStatus(err), err)
		return
	}
	if len(req.Candidates) == 0 {
		writeError(w, r, http.StatusBadRequest, errors.New("no candidates"))
		return
	}
	if len(req.Candidates) > s.cfg.MaxCandidates {
		writeError(w, r, http.StatusBadRequest,
			fmt.Errorf("%d candidates exceed the cap of %d", len(req.Candidates), s.cfg.MaxCandidates))
		return
	}
	maxHD, err := s.clampMaxHD(req.MaxHD)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	dataLen, err := s.clampLen("data_len", req.DataLen)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	limits := s.clampLimits(req.Limits)
	analyzers := make([]*koopmancrc.Analyzer, len(req.Candidates))
	keys := make([]string, len(req.Candidates))
	for i, ref := range req.Candidates {
		p, err := ref.Polynomial()
		if err != nil {
			writeError(w, r, http.StatusBadRequest, fmt.Errorf("candidate %d: %w", i, err))
			return
		}
		sess, _ := s.poolGet(r.Context(), p, maxHD, limits)
		analyzers[i] = sess.an
		defer s.notePersist(sess)
		keys[i] = fmt.Sprintf("s%d:%d:%#x", sess.id, p.Width(), p.Koopman())
	}
	key := fmt.Sprintf("select|%s|hd=%d|len=%d|lim=%+v", strings.Join(keys, ","), maxHD, dataLen, limits)

	ctx, cancel := s.requestCtx(r)
	defer cancel()
	v, err := s.evaluation(ctx, key, func(fctx context.Context) (any, error) {
		ranked, err := koopmancrc.SelectAnalyzers(fctx, analyzers, dataLen, koopmancrc.WithMaxHD(maxHD))
		if err != nil {
			return nil, err
		}
		resp := &SelectResponse{DataLen: dataLen}
		for _, sel := range ranked {
			resp.Ranking = append(resp.Ranking, Selection{
				Poly:         hexStr(sel.Poly.In(koopmancrc.Koopman)),
				Width:        sel.Poly.Width(),
				HD:           sel.HD,
				CoverageAtHD: sel.CoverageAtHD,
			})
		}
		return resp, nil
	})
	if err != nil {
		writeError(w, r, statusFor(err), err)
		return
	}
	obs.WriteJSON(w, http.StatusOK, v)
}

func (s *Server) handleChecksum(w http.ResponseWriter, r *http.Request) {
	var req ChecksumRequest
	if err := s.decode(w, r, &req); err != nil {
		writeError(w, r, decodeStatus(err), err)
		return
	}
	if req.Algorithm == "" {
		writeError(w, r, http.StatusBadRequest, errors.New("missing algorithm"))
		return
	}
	params, err := crchash.Lookup(req.Algorithm)
	if err != nil {
		writeError(w, r, http.StatusNotFound, err)
		return
	}
	data := req.Data
	if len(data) == 0 && req.Text != "" {
		data = []byte(req.Text)
	}
	engine, err := crchash.ForAlgorithm(req.Algorithm)
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	kernel := crchash.KindOf(engine).String()
	s.obs.checksums.With(kernel).Inc()
	sum := engine.Checksum(data)
	obs.WriteJSON(w, http.StatusOK, &ChecksumResponse{
		Algorithm: req.Algorithm,
		Length:    len(data),
		Checksum:  sum,
		Hex:       fmt.Sprintf("0x%0*x", (params.Poly.Width()+3)/4, sum),
		Kernel:    kernel,
	})
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, http.StatusOK, &AlgorithmsResponse{Algorithms: crchash.Algorithms()})
}
