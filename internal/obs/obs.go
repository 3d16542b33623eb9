// Package obs is the repository's dependency-free observability
// substrate: log-bucketed histograms, labeled counters and collected
// gauges behind a Registry that renders the Prometheus text exposition
// format, plus request-ID context plumbing for tracing a request from
// serve middleware down into the engine's probe loops.
//
// # Hot-path cost
//
// Counter.Add and Histogram.Observe are a few atomic operations with no
// locks and no allocation; CounterVec/HistogramVec resolve labels
// through one sync.Map load after the first use of a label set. The
// mutex in Registry guards only metric registration and exposition —
// never an observation — so instrumented hot paths stay within a couple
// of nanoseconds of uninstrumented ones.
//
// # Exposition
//
// Registry.WritePrometheus renders every registered metric in the
// classic Prometheus text format (version 0.0.4): HELP/TYPE headers,
// escaped label values, cumulative histogram buckets with a trailing
// +Inf — and no exemplars, which that format's parser rejects.
// Registry.WriteOpenMetrics renders the same families as OpenMetrics
// text: histogram buckets carry their exemplar trailers and the
// document ends with the mandatory "# EOF" terminator; serve it only
// under a negotiated application/openmetrics-text content type.
// CheckExposition (see check.go) is a pure-Go validator for both
// flavors, used by tests and the CI smoke job.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"
)

// labelSep joins label values into sync.Map keys. 0xff cannot appear in
// valid UTF-8, and labelKey makes every value valid UTF-8 first, so
// joined keys never collide.
const labelSep = "\xff"

// labelKey joins label values into a vec's sync.Map key, replacing
// invalid UTF-8 (the exposition format is UTF-8) with U+FFFD.
func labelKey(values []string) string {
	for _, s := range values {
		if !utf8.ValidString(s) {
			clean := make([]string, len(values))
			for i, s := range values {
				clean[i] = strings.ToValidUTF8(s, "\uFFFD")
			}
			return strings.Join(clean, labelSep)
		}
	}
	return strings.Join(values, labelSep)
}

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n < 0 is ignored; counters are
// monotone by definition).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// CounterVec is a counter family partitioned by label values.
type CounterVec struct {
	labels []string
	m      sync.Map // joined label values -> *Counter
}

// With returns the counter for the label values (created on first use).
// The number of values must match the vector's label names.
func (v *CounterVec) With(values ...string) *Counter {
	key := labelKey(values)
	if c, ok := v.m.Load(key); ok {
		return c.(*Counter)
	}
	c, _ := v.m.LoadOrStore(key, new(Counter))
	return c.(*Counter)
}

// Histogram is a fixed-boundary histogram with atomic observation: one
// binary search over the (typically log-spaced) upper bounds, one atomic
// add and a CAS loop for the float sum. Values above the last boundary
// land in an explicit overflow slot, so the +Inf bucket and the count
// are both the sum of the same bucket loads and a concurrent scrape can
// never render +Inf below a finite bucket.
type Histogram struct {
	bounds  []float64      // sorted upper bounds, exclusive of +Inf
	buckets []atomic.Int64 // one per bound, then the overflow slot
	sum     atomic.Uint64  // float64 bits
	// exemplars holds the latest exemplar per bucket (last slot = +Inf),
	// published via ObserveExemplar and rendered as OpenMetrics exemplar
	// trailers on the bucket lines.
	exemplars []atomic.Pointer[exemplar]
}

// exemplar links one observed value to the trace that produced it.
type exemplar struct {
	traceID string
	value   float64
}

// bucketIndex returns the index of the smallest bound >= v, or
// len(bounds) for the implicit +Inf bucket.
func (h *Histogram) bucketIndex(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] >= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.buckets[h.bucketIndex(v)].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveExemplar records one value and attaches the trace ID as the
// bucket's exemplar: the exposition then links the bucket to a concrete
// retained trace (`... # {trace_id="..."} value`). Call it only for
// traces the flight recorder actually kept, so every exemplar a scrape
// shows resolves via /v1/traces/{id}.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if traceID != "" {
		h.exemplars[h.bucketIndex(v)].Store(&exemplar{traceID: traceID, value: v})
	}
	h.Observe(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// snapshot returns cumulative bucket counts aligned with bounds, plus
// count and sum. The count is the cumulative total over the same loads,
// overflow slot included, so the buckets are monotone up to +Inf even
// while observations land; only the sum may straddle the loads.
func (h *Histogram) snapshot() (cum []int64, count int64, sum float64) {
	cum = make([]int64, len(h.bounds))
	for i := range h.buckets {
		count += h.buckets[i].Load()
		if i < len(cum) {
			cum[i] = count
		}
	}
	return cum, count, h.Sum()
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct {
	labels []string
	bounds []float64
	m      sync.Map // joined label values -> *Histogram
}

// With returns the histogram for the label values (created on first
// use).
func (v *HistogramVec) With(values ...string) *Histogram {
	key := labelKey(values)
	if h, ok := v.m.Load(key); ok {
		return h.(*Histogram)
	}
	h := newHistogram(v.bounds)
	got, _ := v.m.LoadOrStore(key, h)
	return got.(*Histogram)
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds:    bounds,
		buckets:   make([]atomic.Int64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[exemplar], len(bounds)+1),
	}
}

// ExpBuckets returns n log-spaced histogram bounds starting at start,
// each factor times the previous — the log bucketing every latency and
// size histogram in this repository uses.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets spans 1µs to ~8.4s in doubling steps — wide enough for
// both a memoized request (~tens of µs) and a cold multi-second boundary
// scan.
func LatencyBuckets() []float64 { return ExpBuckets(1e-6, 2, 24) }

// WorkBuckets spans 1 to ~4.3e9 operations in 4x steps, for probe and
// size counts.
func WorkBuckets() []float64 { return ExpBuckets(1, 4, 17) }

// metricKind is the exposition TYPE of a registered family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// family is one registered metric family, in registration order.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string

	counter    *Counter
	counterVec *CounterVec
	histogram  *Histogram
	histVec    *HistogramVec
	gaugeFn    func() float64
	// collectFn emits dynamic label sets at exposition time (per-worker
	// rates, per-session costs) without pre-registering every series.
	collectFn func(emit func(labelValues []string, v float64))
}

// Registry is an ordered collection of metric families. Registration is
// typically done once at construction; the Registry is then safe for
// concurrent observation and exposition.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]struct{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]struct{})}
}

func (r *Registry) add(f *family) {
	if !validName(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !validName(l) || l == "le" {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, f.name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[f.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", f.name))
	}
	r.byName[f.name] = struct{}{}
	r.families = append(r.families, f)
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := new(Counter)
	r.add(&family{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// NewCounterVec registers and returns a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{labels: labels}
	r.add(&family{name: name, help: help, kind: kindCounter, labels: labels, counterVec: v})
	return v
}

// NewHistogram registers and returns a histogram with the given upper
// bounds (strictly increasing; +Inf is implicit).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	checkBounds(name, bounds)
	h := newHistogram(bounds)
	r.add(&family{name: name, help: help, kind: kindHistogram, histogram: h})
	return h
}

// NewHistogramVec registers and returns a labeled histogram family.
func (r *Registry) NewHistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	checkBounds(name, bounds)
	v := &HistogramVec{labels: labels, bounds: bounds}
	r.add(&family{name: name, help: help, kind: kindHistogram, labels: labels, histVec: v})
	return v
}

// NewGaugeFunc registers a gauge whose value is read by fn at exposition
// time. fn must be safe for concurrent use.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.add(&family{name: name, help: help, kind: kindGauge, gaugeFn: fn})
}

// NewGaugeCollector registers a labeled gauge family whose series are
// produced by collect at exposition time: collect calls emit once per
// live series. This is how dynamic populations — pool sessions, dist
// workers, held leases — surface without pre-registering every label
// set. collect must be safe for concurrent use.
func (r *Registry) NewGaugeCollector(name, help string, labels []string, collect func(emit func(labelValues []string, v float64))) {
	r.add(&family{name: name, help: help, kind: kindGauge, labels: labels, collectFn: collect})
}

func checkBounds(name string, bounds []float64) {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly increasing", name))
		}
	}
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// WritePrometheus renders every registered family in the classic
// Prometheus text exposition format (version 0.0.4), in registration
// order, with label-sorted series for deterministic output. The 0.0.4
// parser errors on exemplar trailers — a single one fails the whole
// scrape — so this output is exemplar-free; WriteOpenMetrics carries
// them.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.write(w, false)
}

// WriteOpenMetrics renders every registered family as the OpenMetrics
// text exposition: counter families are declared under their base name
// (the mandatory _total suffix stays on the sample lines), histogram
// buckets carry their latest exemplar trailers, and the document ends
// with the required "# EOF" terminator. Serve this only under the
// OpenMetrics content type, as Mount does: the classic text-format
// parser rejects it.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	if err := r.write(w, true); err != nil {
		return err
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

func (r *Registry) write(w io.Writer, om bool) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		if err := f.write(w, om); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer, om bool) error {
	var b strings.Builder
	typ := map[metricKind]string{kindCounter: "counter", kindGauge: "gauge", kindHistogram: "histogram"}[f.kind]
	header := f.name
	if om && f.kind == kindCounter {
		// OpenMetrics names the counter family without the _total suffix
		// its samples carry.
		header = strings.TrimSuffix(f.name, "_total")
	}
	fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", header, escapeHelp(f.help), header, typ)
	switch {
	case f.counter != nil:
		writeSample(&b, f.name, "", nil, nil, float64(f.counter.Value()))
	case f.counterVec != nil:
		for _, s := range sortedSeries(&f.counterVec.m) {
			writeSample(&b, f.name, "", f.labels, s.values, float64(s.v.(*Counter).Value()))
		}
	case f.histogram != nil:
		writeHistogram(&b, f.name, f.labels, nil, f.histogram, om)
	case f.histVec != nil:
		for _, s := range sortedSeries(&f.histVec.m) {
			writeHistogram(&b, f.name, f.labels, s.values, s.v.(*Histogram), om)
		}
	case f.gaugeFn != nil:
		writeSample(&b, f.name, "", nil, nil, f.gaugeFn())
	case f.collectFn != nil:
		type row struct {
			values []string
			v      float64
		}
		var rows []row
		f.collectFn(func(lv []string, v float64) {
			if len(lv) == len(f.labels) {
				rows = append(rows, row{append([]string(nil), lv...), v})
			}
		})
		sort.Slice(rows, func(i, j int) bool {
			return strings.Join(rows[i].values, labelSep) < strings.Join(rows[j].values, labelSep)
		})
		for _, rw := range rows {
			writeSample(&b, f.name, "", f.labels, rw.values, rw.v)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// series pairs the decoded label values of one vec entry with its
// metric.
type series struct {
	values []string
	v      any
}

func sortedSeries(m *sync.Map) []series {
	var out []series
	m.Range(func(k, v any) bool {
		key := k.(string)
		var values []string
		if key != "" {
			values = strings.Split(key, labelSep)
		}
		out = append(out, series{values: values, v: v})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i].values, labelSep) < strings.Join(out[j].values, labelSep)
	})
	return out
}

func writeHistogram(b *strings.Builder, name string, labels, values []string, h *Histogram, om bool) {
	cum, count, sum := h.snapshot()
	for i, bound := range h.bounds {
		writeBucket(b, name, formatFloat(bound), labels, values, float64(cum[i]), h.exemplars[i].Load(), om)
	}
	writeBucket(b, name, "+Inf", labels, values, float64(count), h.exemplars[len(h.bounds)].Load(), om)
	writeSample(b, name+"_sum", "", labels, values, sum)
	writeSample(b, name+"_count", "", labels, values, float64(count))
}

// writeBucket emits one cumulative bucket line, with the bucket's latest
// exemplar as an OpenMetrics trailer when one has been recorded — but
// only in OpenMetrics mode: the 0.0.4 parser fails the entire scrape on
// the '#' after the value.
func writeBucket(b *strings.Builder, name, le string, labels, values []string, v float64, ex *exemplar, om bool) {
	if ex == nil || !om {
		writeSample(b, name+"_bucket", le, labels, values, v)
		return
	}
	writeSampleBare(b, name+"_bucket", le, labels, values, v)
	b.WriteString(` # {trace_id="`)
	b.WriteString(escapeLabel(ex.traceID))
	b.WriteString(`"} `)
	b.WriteString(formatFloat(ex.value))
	b.WriteByte('\n')
}

// writeSample emits one exposition line. le, when non-empty, is appended
// as the trailing bucket label.
func writeSample(b *strings.Builder, name, le string, labels, values []string, v float64) {
	writeSampleBare(b, name, le, labels, values, v)
	b.WriteByte('\n')
}

// writeSampleBare is writeSample without the line terminator, so bucket
// lines can append an exemplar trailer.
func writeSampleBare(b *strings.Builder, name, le string, labels, values []string, v float64) {
	b.WriteString(name)
	if len(values) > 0 || le != "" {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			val := ""
			if i < len(values) {
				val = values[i]
			}
			b.WriteString(l)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(val))
			b.WriteByte('"')
		}
		if le != "" {
			if len(values) > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`le="` + le + `"`)
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
}

// escapeLabel escapes a label value exactly as the exposition format
// defines — backslash, double quote and newline; every other byte is
// emitted literally (the format is UTF-8 and defines no other escapes,
// so Go's %q, which invents \t and \u escapes, would be wrong here).
// Invalid UTF-8, which a collector may emit from peer-supplied names,
// becomes U+FFFD.
func escapeLabel(s string) string {
	s = strings.ToValidUTF8(s, "\uFFFD")
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeHelp escapes a HELP text: backslashes and newlines only, per the
// exposition format, with invalid UTF-8 replaced by U+FFFD.
func escapeHelp(s string) string {
	s = strings.ToValidUTF8(s, "\uFFFD")
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
