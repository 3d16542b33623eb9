// Package hamming is the scan engine behind the paper's Table 1 and
// Figure 1: it finds undetectable-error weights and Hamming-distance
// boundaries of CRC generator polynomials. Assembling boundaries into
// the HD-vs-length bands of a Table 1 column is the caller's job (the
// root package's Analyzer).
//
// # Model
//
// By CRC linearity (paper §3) a k-bit corruption of a codeword is
// undetectable exactly when the k flipped positions themselves form a
// codeword, i.e. when the error polynomial is a multiple of the generator
// G(x). Position i of an (n+r)-bit codeword corresponds to the monomial x^i
// (position 0 is the last-transmitted FCS bit). A pattern is therefore
// undetectable iff the XOR of the position syndromes x^i mod G is zero, and
// the minimum Hamming distance at data-word length n is the smallest weight
// of any non-zero multiple of G fitting in n+r bits.
//
// Dividing by x shows every minimal pattern can be taken to include
// position 0, which is what makes meet-in-the-middle search over syndrome
// sets exact.
//
// # Engines
//
// Two engines are provided. The fast engine (FirstDataLen, Weight,
// MeetsHDAtLengths) exploits the syndrome formulation with one
// incremental scan per weight: a code of length n+1 extends the code of
// length n, so each scan grows the length a bit at a time, stops at the
// first undetectable pattern (the exact boundary, which answers every
// existence query up to it), or runs to the end to count W3 and W4. The
// brute-force engine (ExistsBrute, WeightBrute, MeetsHDBrute) enumerates
// bit patterns exactly as the paper's software did — including the
// FCS-bits-first ordering and early-bailout optimisations of §4.1 — and
// is one of the two references the fast engine is tested against. The
// other, in the tests only, counts every weight exactly from the code's
// 2^width-word dual through the MacWilliams identity, sharing no code
// with the scans, at lengths and widths where enumeration is out of
// reach.
package hamming

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"koopmancrc/internal/poly"
)

// Default resource limits.
const (
	// DefaultMaxStoreEntries is the number of subset syndromes the
	// store side of the w >= 5 boundary scan holds in its compact set
	// before it switches to the whole-space bitmap.
	// The hash store is a keys-only set, never sized past this limit at
	// 50% load, with 4 bytes per slot plus 1 byte of presence filter:
	// 2^20 entries take about 10 MiB (2^21 slots), against the 512 MiB
	// bitmap of a 32-bit generator.
	DefaultMaxStoreEntries = 1 << 20
	// DefaultMaxProbes bounds the total probe work of a single query (a
	// boundary scan, which also answers existence queries, or an exact
	// weight count); queries beyond it return ErrBudgetExceeded.
	DefaultMaxProbes = int64(1) << 62
)

// ErrBudgetExceeded reports that an evaluation exceeded its configured
// probe or memory budget; results are not available at this length.
var ErrBudgetExceeded = errors.New("hamming: evaluation budget exceeded")

// ErrCanceled reports that an evaluation was aborted by its cancel hook
// (see WithCancel) before completing.
var ErrCanceled = errors.New("hamming: evaluation canceled")

// Event describes the progress of a long-running evaluation: the weight
// being searched, the data-word length of the active existence query and
// the evaluator's cumulative probe count. Events are emitted at the start
// of each query and periodically inside long scans.
type Event struct {
	Weight  int   // pattern weight being searched
	DataLen int   // data-word length of the active query
	Probes  int64 // cumulative probes across the evaluator's lifetime
}

// Span phases emitted by the evaluator's span hook, one per distinct
// search machinery: the w >= 5 boundary scan, the dedicated weight-3/4
// boundary scans (every existence query is one of these three), and the
// exact weight-counting passes.
const (
	SpanBoundary = "boundary"
	SpanW3Scan   = "w3_scan"
	SpanW4Scan   = "w4_scan"
	SpanW2Count  = "w2_count"
	SpanW3Count  = "w3_count"
	SpanW4Count  = "w4_count"
)

// SpanEvent describes one completed engine phase: which machinery ran
// (one of the Span* constants), the weight and data-word length it was
// working on, how long it took and how many work operations (probes +
// store inserts) it performed. Events are emitted when the phase ends,
// including phases cut short by cancellation or budget errors.
type SpanEvent struct {
	Phase    string
	Weight   int
	DataLen  int
	Duration time.Duration
	Probes   int64 // work operations attributed to this phase
}

// Stats accumulates work counters across evaluator calls, used by the
// benchmark harness to report the effect of each of the paper's
// optimisations.
type Stats struct {
	Probes      int64 // subset syndromes tested
	StoreOps    int64 // subset syndromes inserted
	EarlyExits  int64 // searches terminated by the first undetectable error
	Resolutions int64 // bitmap hits re-resolved into explicit witnesses
}

// options configure an Evaluator.
type options struct {
	maxStoreEntries int // DefaultMaxStoreEntries; tests lower it to force a migration
	MaxProbes       int64
	// Progress, when non-nil, receives Events at query boundaries and
	// periodically inside long scans.
	Progress func(Event)
	// Cancel, when non-nil, is polled inside long scans; returning true
	// aborts the query with an error wrapping ErrCanceled.
	Cancel func() bool
	// Span, when non-nil, receives a SpanEvent as each engine phase
	// completes.
	Span func(SpanEvent)
}

// Option mutates evaluator options.
type Option func(*options)

// WithMaxProbes bounds the probe work per query: one boundary scan (and
// so one existence query) or one exact weight count.
func WithMaxProbes(n int64) Option { return func(o *options) { o.MaxProbes = n } }

// WithProgress installs a progress hook receiving Events.
func WithProgress(fn func(Event)) Option { return func(o *options) { o.Progress = fn } }

// WithCancel installs a cancellation hook polled inside long scans (for
// wiring context.Context into an evaluation, poll ctx.Err() != nil).
func WithCancel(fn func() bool) Option { return func(o *options) { o.Cancel = fn } }

// WithSpanHook installs a hook receiving a SpanEvent at the end of each
// engine phase.
func WithSpanHook(fn func(SpanEvent)) Option { return func(o *options) { o.Span = fn } }

// Evaluator computes error-detection properties of one generator
// polynomial. It caches the syndrome table and period across queries and is
// not safe for concurrent use; create one evaluator per goroutine. A large
// exact count, Weight(4, ...), may still run on up to GOMAXPROCS goroutines
// inside the call; its hooks run on the caller's goroutine alone.
type Evaluator struct {
	p      poly.P
	width  int
	normal uint32 // generator sans x^w term
	mask   uint32 // width-bit mask
	topBit uint32
	parity bool // (x+1) divides G: every multiple has even weight

	syn  []uint32 // syn[i] = x^i mod G
	hsyn []uint32 // hsyn[i] = lin(syn[i]), the presence-filter hash

	period    uint64
	periodErr error
	periodSet bool

	bitmap []uint64 // lazily allocated 2^width-bit scratch set
	hits   []int32  // sieve output scratch, reused across rows and queries

	bruteBudget int64 // per-call probe budget of the brute engine

	tickOps int64 // scan operations since the last progress/cancel poll

	opts  options
	Stats Stats
}

// tickEvery is how many scan operations pass between progress emissions
// and cancellation polls inside long loops — frequent enough that
// cancellation feels immediate, rare enough to stay off the hot path.
const tickEvery = 1 << 20

// begin emits the query-start event and gives cancellation a fast exit
// between the sub-queries of a boundary search.
func (e *Evaluator) begin(w, dataLen int) error {
	if e.opts.Progress != nil {
		e.opts.Progress(Event{Weight: w, DataLen: dataLen, Probes: e.Stats.Probes})
	}
	if e.opts.Cancel != nil && e.opts.Cancel() {
		return fmt.Errorf("%w: weight-%d query at %d data bits", ErrCanceled, w, dataLen)
	}
	return nil
}

// tick accumulates scan work and, roughly every tickEvery operations,
// emits a progress event and polls the cancel hook. Loops call it once
// per outer iteration with the inner work just performed.
func (e *Evaluator) tick(w, dataLen int, ops int64) error {
	e.tickOps += ops
	if e.tickOps < tickEvery {
		return nil
	}
	e.tickOps = 0
	return e.begin(w, dataLen)
}

// noopSpanEnd is the shared do-nothing span terminator, so uninstrumented
// evaluations pay one nil check and no allocation per phase.
var noopSpanEnd = func() {}

// spanStart opens an engine phase and returns the function that closes
// it, capturing wall time and the work-counter delta (probes + store
// inserts) between the two calls. Callers either defer the result or
// invoke it explicitly on every exit path.
func (e *Evaluator) spanStart(phase string, w, dataLen int) func() {
	if e.opts.Span == nil {
		return noopSpanEnd
	}
	t0 := time.Now()
	w0 := e.Stats.Probes + e.Stats.StoreOps
	return func() {
		e.opts.Span(SpanEvent{
			Phase:    phase,
			Weight:   w,
			DataLen:  dataLen,
			Duration: time.Since(t0),
			Probes:   e.Stats.Probes + e.Stats.StoreOps - w0,
		})
	}
}

// New returns an evaluator for the polynomial.
func New(p poly.P, opts ...Option) *Evaluator {
	o := options{
		maxStoreEntries: DefaultMaxStoreEntries,
		MaxProbes:       DefaultMaxProbes,
	}
	for _, fn := range opts {
		fn(&o)
	}
	w := p.Width()
	mask := ^uint32(0)
	if w < 32 {
		mask = 1<<uint(w) - 1
	}
	return &Evaluator{
		p:      p,
		width:  w,
		normal: uint32(p.Normal()),
		mask:   mask,
		topBit: 1 << uint(w-1),
		parity: p.DivisibleByXPlus1(),
		syn:    []uint32{1}, // x^0 mod G = 1 (deg G >= 1)
		hsyn:   []uint32{lin(1)},
		opts:   o,
	}
}

// Poly returns the polynomial under evaluation.
func (e *Evaluator) Poly() poly.P { return e.p }

// Width returns the CRC width.
func (e *Evaluator) Width() int { return e.width }

// step advances a syndrome by one position: s -> x*s mod G.
func (e *Evaluator) step(s uint32) uint32 {
	top := s & e.topBit
	s = (s << 1) & e.mask
	if top != 0 {
		s ^= e.normal
	}
	return s
}

// syndromes returns the syndrome table extended to at least n entries.
// The filter hashes hsyn grow with it, so e.hsyn[:n] is valid beside
// the result: each syndrome is hashed once, when it is first computed.
// Both tables grow to n in one allocation each.
func (e *Evaluator) syndromes(n int) []uint32 {
	if more := n - len(e.syn); more > 0 {
		e.syn = slices.Grow(e.syn, more)
		e.hsyn = slices.Grow(e.hsyn, more)
	}
	for len(e.syn) < n {
		s := e.step(e.syn[len(e.syn)-1])
		e.syn = append(e.syn, s)
		e.hsyn = append(e.hsyn, lin(s))
	}
	return e.syn[:n]
}

// Period returns ord(x) mod G — the codeword length at which 2-bit errors
// first become undetectable is Period()+1.
func (e *Evaluator) Period() (uint64, error) {
	if !e.periodSet {
		e.period, e.periodErr = e.p.Period()
		e.periodSet = true
	}
	if e.periodErr != nil {
		return 0, fmt.Errorf("period of %v: %w", e.p, e.periodErr)
	}
	return e.period, nil
}

// oddWeightImpossible reports whether weight w is odd while G is
// divisible by (x+1), so that no weight-w pattern exists at any length
// (paper §3). Exact for w >= 1.
func (e *Evaluator) oddWeightImpossible(w int) bool { return e.parity && w%2 == 1 }

// codewordLen converts a data-word length to the total codeword length.
func (e *Evaluator) codewordLen(dataLen int) int { return dataLen + e.width }

// dataLenFor converts the maximum position of a canonical pattern into the
// smallest data-word length whose codeword can contain it.
func (e *Evaluator) dataLenFor(maxPos int) int {
	n := maxPos + 1 - e.width
	if n < 1 {
		n = 1
	}
	return n
}

// bitset returns the scratch bitmap covering all 2^width syndromes,
// cleared.
func (e *Evaluator) bitset() []uint64 {
	words := 1
	if e.width >= 6 {
		words = 1 << uint(e.width-6)
	}
	if cap(e.bitmap) < words {
		e.bitmap = make([]uint64, words)
		return e.bitmap
	}
	e.bitmap = e.bitmap[:words]
	clear(e.bitmap)
	return e.bitmap
}

// rowScratch returns the sieve output scratch, with room for a row of n
// keys.
func (e *Evaluator) rowScratch(n int) []int32 {
	if cap(e.hits) < n {
		e.hits = make([]int32, n)
	}
	return e.hits
}
