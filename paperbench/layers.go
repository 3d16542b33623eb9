package main

import (
	"container/heap"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// This file is the benchmark's tracing: each traced operation records a
// span tree — its own root, spans the workload opens around calls into
// the program's layers, and the spans the program itself reports (the
// Analyzer's engine phases, crcserve's request traces) — and the
// operation's wall time is split among layers by self time. Spans are
// kept in memory; only the aggregate split is reported.

// span is one timed interval, in Unix nanoseconds.
type span struct {
	name       string
	start, end int64
	probes     int64 // engine work, for engine phase spans
}

// trace collects one operation's spans. The nil trace ignores every call,
// so untraced runs pay one nil check per call site.
type trace struct {
	root  span
	spans []span
}

func (t *trace) setRoot(start, end time.Time) {
	if t != nil {
		t.root = span{name: "bench", start: start.UnixNano(), end: end.UnixNano()}
	}
}

// add records a span that ran from start until now.
func (t *trace) add(name string, start time.Time) {
	if t != nil {
		t.spans = append(t.spans, span{name: name, start: start.UnixNano(), end: time.Now().UnixNano()})
	}
}

// leaf records a span of duration d that just ended — how the engine
// reports its phases.
func (t *trace) leaf(name string, d time.Duration, probes int64) {
	if t != nil {
		end := time.Now().UnixNano()
		t.spans = append(t.spans, span{name: name, start: end - d.Nanoseconds(), end: end, probes: probes})
	}
}

// layerNames are the reported layers, in report order. Each is a metric:
// its self time per traced operation.
var layerNames = []string{
	"bench", "client", "http", "pool", "flight", "analyzer",
	"engine.boundary", "engine.w3_scan", "engine.w4_scan",
	"engine.mitm_store", "engine.mitm_probe", "engine.count",
	"filter", "kernel.ieee", "kernel.castagnoli", "kernel.koopman",
}

// layerOf maps a span name to its layer, or "" for spans the split does
// not know; their time stays with the enclosing span's layer, so spans a
// later version of the program adds never break the report.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "/"):
		return "http" // crcserve names a request's root span by endpoint
	case name == "pool.acquire":
		return "pool"
	case strings.HasSuffix(name, "_count") && strings.HasPrefix(name, "engine."):
		return "engine.count"
	}
	for _, l := range layerNames {
		if l == name {
			return l
		}
	}
	return ""
}

// selfTimes splits root's interval among the spans by self time: each
// instant goes to the innermost span covering it — the one that started
// last — and to the root when none does. Spans are clipped to the root,
// so the parts sum to the root's duration exactly.
func selfTimes(root span, spans []span) map[string]int64 {
	type event struct {
		at    int64
		idx   int
		start bool
	}
	var evs []event
	var known []span
	for _, s := range spans {
		s.start, s.end = max(s.start, root.start), min(s.end, root.end)
		s.name = layerOf(s.name)
		if s.name == "" || s.end <= s.start {
			continue
		}
		known = append(known, s)
		i := len(known) - 1
		evs = append(evs, event{s.start, i, true}, event{s.end, i, false})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })

	out := map[string]int64{}
	active := &spanHeap{spans: known}
	ended := make([]bool, len(known))
	prev := root.start
	for _, ev := range evs {
		// Drop ended spans off the top before attributing the interval.
		for active.Len() > 0 && ended[active.idx[0]] {
			heap.Pop(active)
		}
		owner := root.name
		if active.Len() > 0 {
			owner = known[active.idx[0]].name
		}
		out[owner] += ev.at - prev
		prev = ev.at
		if ev.start {
			heap.Push(active, ev.idx)
		} else {
			ended[ev.idx] = true
		}
	}
	out[root.name] += root.end - prev
	return out
}

// spanHeap orders active span indices innermost first: latest start,
// then latest recorded (a child is recorded after the span it nests in
// only when both start together).
type spanHeap struct {
	spans []span
	idx   []int
}

func (h *spanHeap) Len() int { return len(h.idx) }
func (h *spanHeap) Less(i, j int) bool {
	a, b := h.spans[h.idx[i]], h.spans[h.idx[j]]
	if a.start != b.start {
		return a.start > b.start
	}
	return h.idx[i] > h.idx[j]
}
func (h *spanHeap) Swap(i, j int) { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *spanHeap) Push(x any)    { h.idx = append(h.idx, x.(int)) }
func (h *spanHeap) Pop() any {
	n := len(h.idx)
	x := h.idx[n-1]
	h.idx = h.idx[:n-1]
	return x
}

// engineProbes sums the work of the outermost engine phase spans: a
// boundary search reports the work of the meet-in-the-middle joins it
// nests, so nested phases are not counted twice.
func engineProbes(spans []span) int64 {
	var eng []span
	for _, s := range spans {
		if strings.HasPrefix(layerOf(s.name), "engine.") {
			eng = append(eng, s)
		}
	}
	// Longest first, so a span is only ever nested in one already seen.
	// Engine spans are backdated from when the hook ran, which can shift
	// them by a preemption, so a span counts as nested when most of it
	// lies inside another.
	sort.Slice(eng, func(i, j int) bool { return eng[i].end-eng[i].start > eng[j].end-eng[j].start })
	var outer []span
	var total int64
next:
	for _, s := range eng {
		for _, o := range outer {
			if 2*(min(s.end, o.end)-max(s.start, o.start)) > s.end-s.start {
				continue next
			}
		}
		outer = append(outer, s)
		total += s.probes
	}
	return total
}

// layers accumulates the split over every traced operation.
type layers struct {
	self   map[string]int64
	wall   int64
	probes int64
	ops    int
}

func newLayers() *layers { return &layers{self: map[string]int64{}} }

func (l *layers) add(tr *trace) {
	if tr == nil {
		return
	}
	for name, ns := range selfTimes(tr.root, tr.spans) {
		l.self[name] += ns
	}
	l.wall += tr.root.end - tr.root.start
	l.probes += engineProbes(tr.spans)
	l.ops++
}

// metrics reports each layer's self time per operation in milliseconds,
// so a layer moves only with its own work, plus the traced operations'
// median latency and the engine work per operation. It prints each
// layer's share of the wall time as a summary.
func (l *layers) metrics(tracedLatency float64, log io.Writer) map[string]metric {
	ops := float64(l.ops)
	out := map[string]metric{
		"traced_latency_ms": {Value: tracedLatency, Unit: "ms"},
		"engine_probes":     {Value: float64(l.probes) / ops, Unit: "count"},
	}
	var sum int64
	for _, name := range layerNames {
		ns := l.self[name]
		sum += ns
		out[name] = metric{Value: float64(ns) / 1e6 / ops, Unit: "ms"}
		if ns > 0 {
			fmt.Fprintf(log, "  %-18s %10.4f ms/op %6.2f%%\n", name, out[name].Value, 100*float64(ns)/float64(l.wall))
		}
	}
	fmt.Fprintf(log, "  %-18s %10.4f ms/op (layers sum to %.3f%% of it)\n", "wall", float64(l.wall)/1e6/ops,
		100*float64(sum)/float64(l.wall))
	return out
}
