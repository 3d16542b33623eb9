// Package serve is the HTTP serving layer over the koopmancrc v1 API:
// Analyzer evaluation sessions and crchash checksum engines behind JSON
// endpoints, built for the repeated, overlapping queries of a polynomial
// registry or protocol-design service.
//
// # Endpoints
//
//	POST /v1/evaluate    HD-vs-length profile (add ?stream=1 for SSE progress)
//	POST /v1/hd          exact Hamming distance at one data-word length
//	POST /v1/maxlen      largest length keeping a target HD
//	POST /v1/select      rank candidate polynomials for a message length
//	POST /v1/checksum    CRC of a payload under a catalogued algorithm
//	POST /v1/checksum/batch
//	                     many payloads in one round trip; per-item results
//	                     with per-item error slots (a bad algorithm or
//	                     overlong payload fails that item, not the batch)
//	POST /v1/checksum/stream
//	                     CRC of a raw octet-stream body fed chunk-by-chunk
//	                     into a digest — O(1) server memory regardless of
//	                     body size; algorithm in ?algorithm= or the
//	                     X-Checksum-Algorithm header
//	GET  /v1/algorithms  catalogued algorithm names
//	GET  /v1/traces      retained traces, newest first; filters:
//	                     ?endpoint= (root span name), ?min_duration=
//	                     (Go duration), ?error= (bool), ?limit= (positive
//	                     integer, default 100); a malformed value is a 400
//	GET  /v1/traces/{id} one retained trace's full span tree
//	GET  /healthz        liveness, {"status":"ok"} (always unauthenticated)
//	GET  /metrics        the classic 0.0.4 text exposition (exemplar-free):
//	                     per-endpoint latency histograms, request outcomes
//	                     by endpoint and code, engine probe-phase
//	                     histograms, flight/stream/checksum counters, pool
//	                     and per-session gauges, crcserve_corpus_* series;
//	                     ?format=openmetrics (or Accept:
//	                     application/openmetrics-text) selects the
//	                     OpenMetrics exposition with histogram exemplars
//	                     and the # EOF terminator
//
// The last four routes are the shared debug surface of internal/obs
// (obs.Mount), mounted behind the server's auth and request-ID
// middleware; the dist coordinator's DebugAddr serves the same routes.
//
// # Observability
//
// Every response carries an X-Request-ID header — echoed from the
// request when the client supplied one, minted otherwise — and every
// error body repeats it as request_id, so a client-side failure can be
// matched to the server's structured debug log (Config.Logger). The ID
// travels by context through the session pool and singleflight group
// into the engine's span hook: each evaluation phase (boundary, w3_scan,
// w4_scan for the boundary searches behind /v1/evaluate and /v1/maxlen
// and for the existence queries behind /v1/hd, which run the same scans;
// w2..w4_count for exact weights) is logged with its duration and probe
// count and recorded in the
// crcserve_engine_phase_seconds / crcserve_engine_phase_probes
// histograms. A coalesced flight is attributed to the request that
// started it.
//
// # Tracing
//
// On top of the request ID, every request is recorded as a span tree:
// the middleware opens a root span named by the bounded endpoint label
// (its ID returned in the X-Trace-ID response header), and the layers
// underneath attach children — pool.acquire (with hit/miss),
// flight (the singleflight window), corpus.warmstart, and one
// engine.<phase> leaf per evaluation phase with its duration and probe
// count. Background corpus persists run under their own corpus.persist
// trace, so a failed write-behind is visible at /v1/traces without
// logs.
//
// Completed traces feed a bounded FlightRecorder (internal/obs) with
// tail sampling: the keep/drop decision happens when the trace ends,
// so errored traces and the slowest-K per endpoint are always retained
// and pinned against eviction, while healthy fast traces are kept with
// probability Config.TraceSampleRate. A request that exceeds its
// evaluation budget therefore always leaves its full span tree behind.
// Config.TraceBuffer sizes the ring (negative disables tracing; the
// trace endpoints then 404). Retention resists abuse: unauthenticated
// 401s and unknown-path 404s are never marked errored (probes cannot
// fill the recorder), pinning is capped at half the ring with error
// pins at half of that, and a warm-up trace must exceed a 1 ms floor
// before an underfull slowest-K set keeps it. The latency histograms
// attach OpenMetrics exemplars — each bucket carries the most recent
// retained trace ID observed in it — so a dashboard spike resolves to
// a span tree in two steps; exemplars render only on the negotiated
// OpenMetrics exposition, since the classic 0.0.4 parser rejects them.
// Config.AccessLog additionally emits one structured log line per
// request, sampled by the same tail decision so log volume tracks
// trace volume.
//
// The crcserve binary adds -pprof (net/http/pprof on a separate,
// default-loopback listener, never this mux); the dist coordinator's
// DebugAddr serves its live ledger and job traces through the same
// handler.
// cmd/promcheck validates any scrape offline.
//
// # Sessions, coalescing, cancellation
//
// Evaluation requests are served from a bounded LRU pool of per-
// polynomial Analyzer sessions keyed by (polynomial, max_hd,
// max_probes), so a repeat query for a hot polynomial answers from the
// session memo with zero engine probes. Concurrent identical long
// evaluations are singleflight-coalesced onto one engine run; the run's
// context is detached from any single caller and cancelled only when
// every caller has disconnected, which the engine's cancel hook turns
// into a prompt abort of the scan loops.
//
// Per-request max_hd and limits are honoured but clamped by the server
// Config; server-side timeouts bound each request's evaluation budget.
//
// # Persistent corpus
//
// Config.CorpusDir connects the pool to a disk-backed corpus of memo
// snapshots (internal/corpus, typically filled offline by cmd/crcbake).
// Every fresh session warm-starts from the stored snapshot for its
// polynomial before serving its first request — a query the snapshot
// covers answers with zero engine probes — and knowledge learned live
// is persisted back write-behind: requests only enqueue a note; a
// single background goroutine exports and appends the session memo
// afterwards, skipping sessions that have not learned anything since
// their last write. A full queue drops the note rather than blocking
// (the next evaluation re-notes the session), eviction flushes a
// session on its way out of the pool, and Close drains the queue, so
// persistence is eventual but never on the request path. Pool eviction
// is cost-aware: under capacity pressure the session with the fewest
// live engine probes — the cheapest to rebuild, since corpus-restored
// knowledge rebuilds for free — is evicted first, LRU breaking ties.
// The store itself is crash-safe (CRC-protected journal; torn or
// corrupt tails truncated at open, never served), and /metrics reports
// hits, misses, writes, write errors, entry/fact/byte totals, appends,
// compactions, open-time recovery and load latency as the
// crcserve_corpus_* series.
//
// # Checksum ingestion tier
//
// The batch and stream endpoints make the checksum path usable as a
// data-plane ingestion tier rather than a one-shot demo. A batch resolves
// each distinct algorithm's engine once per request and clamps both item
// count (Config.MaxBatchItems → 422) and total decoded bytes
// (Config.MaxBatchBytes → 413); each item is additionally held to the
// per-body cap (Config.MaxBodyBytes), failing only that item. A stream
// never buffers the body: chunks move through a pooled 64 KiB buffer into
// a crchash digest, the request context is polled between chunks so a
// dropped client aborts the hash mid-body, and Config.MaxStreamBytes
// bounds the total (413 past it). Every JSON endpoint bounds its request
// body with http.MaxBytesReader and answers an over-limit body with 413
// and a request_id-bearing error. The serve/client package mirrors the
// pair with ChecksumBatch and ChecksumReader, and its Pipeline keeps a
// bounded number of batches in flight over the pooled keep-alive
// connections to hide round-trip latency.
//
// The wire types in this package are shared with cmd/crceval's -json
// output, so CLI results are byte-comparable with /v1/evaluate
// responses.
package serve
