package serve

import (
	"context"
	"strconv"

	"koopmancrc"
	"koopmancrc/internal/obs"
)

// The trace wire types are the obs types verbatim: the recorder already
// snapshots immutable JSON-tagged data, so re-marshalling through a
// serve-local mirror would only invite drift.
type (
	// TraceSummary is one flight-recorder entry in /v1/traces listings.
	TraceSummary = obs.TraceSummary
	// TraceData is the full span tree served at /v1/traces/{id}.
	TraceData = obs.TraceData
	// SpanData is one node of a TraceData span tree.
	SpanData = obs.SpanData
	// TracesResponse is the body of GET /v1/traces.
	TracesResponse = obs.TracesResponse
)

// poolGet wraps pool.get with a "pool.acquire" child span on the
// request's trace, so session creation cost (including a corpus
// warm-start) is attributable inside the span tree.
func (s *Server) poolGet(ctx context.Context, p koopmancrc.Polynomial, maxHD int, limits koopmancrc.Limits) (*session, bool) {
	sp := obs.SpanFromContext(ctx).StartChild("pool.acquire")
	sp.SetAttr("poly", hexStr(p.In(koopmancrc.Koopman)))
	sess, hit := s.pool.get(obs.ContextWithSpan(ctx, sp), p, maxHD, limits)
	sp.SetAttr("hit", strconv.FormatBool(hit))
	sp.End()
	return sess, hit
}
