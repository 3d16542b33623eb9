package dist

import (
	"strconv"
	"time"

	"koopmancrc/internal/obs"
)

// Distributed trace propagation: the coordinator mints one trace per job
// grant and sends its IDs with the job; the worker reports its compute
// as flat wire spans parented under the grant; the coordinator stitches
// them into a TraceData span tree in its flight recorder, served at the
// DebugAddr listener's /v1/traces. One coherent trace per job, spanning
// coordinator → worker: the "dist.job" grant root and the worker's
// "worker.job" compute span, which carries the job's candidate and
// survivor counts.
//
// The trace fields are schema-versioned by tolerance: they ride the
// existing message envelope as new optional fields, which old
// coordinators and workers simply ignore — a mixed fleet keeps working,
// it just yields traces with missing worker spans.

// WireSpan is the flat wire form of one completed span. Workers cannot
// nest spans into the coordinator's live trace, so they ship ID/parent
// links and let the coordinator rebuild the tree.
type WireSpan struct {
	ID      string     `json:"id"`
	Parent  string     `json:"parent,omitempty"`
	Name    string     `json:"name"`
	StartNS int64      `json:"start_ns"`
	DurNS   int64      `json:"dur_ns"`
	Err     string     `json:"err,omitempty"`
	Attrs   []obs.Attr `json:"attrs,omitempty"`
}

// traceCapacity bounds the coordinator's flight recorder. Sample rate 1
// keeps every completed job's trace until ring eviction displaces it;
// errored traces (lease expiries) stay pinned regardless.
const traceCapacity = 256

// buildSpanTree reconstructs the children of rootID from flat wire
// spans, treating the list as untrusted input: at most maxWireSpans are
// read, spans with an empty, duplicate or root-colliding ID are dropped,
// and every other span appears exactly once in the tree. A span whose
// parent is missing attaches under the root, and so does a span whose
// parent link would close a cycle (spans are linked in list order, so
// the cycle's last-listed member is the one cut loose).
func buildSpanTree(rootID string, spans []WireSpan) []*obs.SpanData {
	const maxWireSpans = 512
	if len(spans) > maxWireSpans {
		spans = spans[:maxWireSpans]
	}
	nodes := make(map[string]*obs.SpanData, len(spans))
	for _, ws := range spans {
		if ws.ID == "" || ws.ID == rootID || nodes[ws.ID] != nil {
			continue // malformed or duplicate id: drop rather than corrupt the tree
		}
		nodes[ws.ID] = &obs.SpanData{
			ID:         ws.ID,
			Name:       ws.Name,
			Start:      time.Unix(0, ws.StartNS),
			DurationNS: ws.DurNS,
			Error:      ws.Err,
			Attrs:      ws.Attrs,
		}
	}
	// Link in list order. The links made so far form a forest, so a new
	// link closes a cycle exactly when the span is an ancestor of its
	// would-be parent; the walk up ends at the root or at a span not yet
	// linked.
	var roots []*obs.SpanData
	parent := make(map[string]string, len(nodes)) // linked span → parent ID, "" for the root
	for _, ws := range spans {
		n := nodes[ws.ID]
		if _, done := parent[ws.ID]; n == nil || done {
			continue // dropped above, or a duplicate id re-resolving the original node
		}
		p := ws.Parent
		if nodes[p] == nil {
			p = ""
		}
		for a := p; a != ""; a = parent[a] {
			if a == ws.ID {
				p = "" // the link would close a cycle
				break
			}
		}
		parent[ws.ID] = p
		if p == "" {
			roots = append(roots, n)
		} else {
			nodes[p].Children = append(nodes[p].Children, n)
		}
	}
	return roots
}

// assembleJobTrace builds the TraceData of one completed (or expired)
// job lease: a "dist.job" root covering grant → outcome, with the
// worker's wire spans stitched underneath.
func assembleJobTrace(j *lease, worker, errMsg string, spans []WireSpan, now time.Time) *obs.TraceData {
	root := &obs.SpanData{
		ID:         j.rootSpan,
		Name:       "dist.job",
		Start:      j.grantedAt,
		DurationNS: now.Sub(j.grantedAt).Nanoseconds(),
		Error:      errMsg,
		Attrs: []obs.Attr{
			{K: "job_id", V: u64str(j.id)},
			{K: "worker", V: worker},
			{K: "start", V: u64str(j.start)},
			{K: "end", V: u64str(j.end)},
		},
		Children: buildSpanTree(j.rootSpan, spans),
	}
	count := 1 + countSpans(root.Children)
	return &obs.TraceData{
		TraceID:    j.traceID,
		Name:       "dist.job",
		Start:      root.Start,
		DurationNS: root.DurationNS,
		Error:      errMsg,
		Spans:      count,
		Root:       root,
	}
}

func countSpans(children []*obs.SpanData) int {
	n := 0
	for _, c := range children {
		n += 1 + countSpans(c.Children)
	}
	return n
}

func u64str(v uint64) string { return strconv.FormatUint(v, 10) }

// Traces exposes the coordinator's retained job traces — the test and
// tooling view onto what the DebugAddr /v1/traces endpoint serves.
func (c *Coordinator) Traces(f obs.TraceFilter) []obs.TraceSummary {
	return c.recorder.Summaries(f)
}

// Trace returns one retained job trace by ID.
func (c *Coordinator) Trace(id string) (*obs.TraceData, bool) {
	return c.recorder.Get(id)
}
