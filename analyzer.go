package koopmancrc

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"koopmancrc/internal/gf2"
	"koopmancrc/internal/hamming"
	"koopmancrc/internal/poly"
)

// ErrBudgetExceeded reports that an evaluation exceeded its configured
// probe or memory budget (see WithLimits); results are not available at
// the queried length. Test with errors.Is.
var ErrBudgetExceeded = hamming.ErrBudgetExceeded

// DefaultMaxHD is the largest Hamming distance classified when WithMaxHD
// is not given (the depth of the paper's Table 1 columns).
const DefaultMaxHD = 13

// Limits exposes the evaluation resource budget of the underlying
// Hamming-distance engine. A zero field keeps the default.
type Limits struct {
	// MaxProbes bounds the probe work of a single engine query — a
	// boundary scan, which also answers existence queries, or an exact
	// weight count; queries beyond it fail with ErrBudgetExceeded
	// (default 2^62, effectively unbounded).
	MaxProbes int64
}

// Progress is a live report from a long-running evaluation, delivered to
// the WithProgress hook: the pattern weight being searched, the data-word
// length of the active existence query and the analyzer's cumulative
// probe count. Hooks are called from the evaluating goroutine while the
// session is busy: they must not block and must not call back into the
// Analyzer (doing so would deadlock the session).
type Progress struct {
	Poly    Polynomial
	Weight  int
	DataLen int
	Probes  int64
}

// Span reports one completed engine phase of an evaluation — a w >= 5
// boundary scan, a dedicated W3/W4 scan or an exact weight count — with
// its wall duration and the probe/store work it performed. Phase is one
// of the hamming.Span* constants: "boundary", "w3_scan" and "w4_scan"
// from boundary searches and existence queries alike (Evaluate,
// MaxLenAtHD, Coverage, HDAt, Witness), and "w2_count", "w3_count",
// "w4_count" from Weight. Like Progress hooks,
// span hooks run on the evaluating goroutine and must not block or call
// back into the Analyzer.
type Span struct {
	Poly     Polynomial
	Phase    string
	Weight   int
	DataLen  int
	Duration time.Duration
	Probes   int64
}

// EvalStats is a snapshot of an Analyzer's accumulated work counters.
type EvalStats struct {
	Probes      int64 // subset syndromes tested
	StoreOps    int64 // subset syndromes inserted
	EarlyExits  int64 // searches terminated by the first undetectable error
	Resolutions int64 // bitmap hits re-resolved into explicit witnesses
}

// MemoStats sizes the knowledge an Analyzer session has memoized and the
// engine work spent acquiring it, letting a pool of sessions report the
// cost and value of each one (and evict the cheap-to-rebuild ones first).
type MemoStats struct {
	BoundWeights    int   // pattern weights with any boundary knowledge
	ExactBoundaries int   // weights whose first-length boundary is exact
	WeightEntries   int   // exact (weight, length) count memo entries
	Probes          int64 // engine probes spent across the session's lifetime
}

// Option configures an Analyzer or a Select call.
type Option func(*options)

type options struct {
	maxHD    int
	maxHDSet bool // WithMaxHD was passed explicitly
	progress func(Progress)
	spans    func(context.Context, Span)
	limits   Limits
}

func newOptions(opts []Option) options {
	o := options{maxHD: DefaultMaxHD}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// WithMaxHD bounds the classified Hamming distances: evaluations stop at
// weight hd and report "at least hd+1" beyond it (default DefaultMaxHD).
// Values below 2 classify nothing — every length reports at least hd+1 —
// matching the engine's semantics; Evaluate rejects them since a profile
// of zero weights is meaningless.
func WithMaxHD(hd int) Option {
	return func(o *options) {
		o.maxHD = hd
		o.maxHDSet = true
	}
}

// WithProgress installs a hook receiving Progress reports during long
// evaluations.
func WithProgress(fn func(Progress)) Option {
	return func(o *options) { o.progress = fn }
}

// WithSpans installs a hook receiving a Span as each engine phase of an
// evaluation completes. The context is the one passed to the Analyzer
// method that triggered the phase (carrying, e.g., a request ID), so
// spans can be attributed to the caller that paid for the work.
func WithSpans(fn func(ctx context.Context, s Span)) Option {
	return func(o *options) { o.spans = fn }
}

// WithLimits overrides the engine resource budget; a zero field keeps
// its default.
func WithLimits(l Limits) Option {
	return func(o *options) {
		if l.MaxProbes > 0 {
			o.limits.MaxProbes = l.MaxProbes
		}
	}
}

// bound is the memoized knowledge about one pattern weight: an exact
// first-length boundary once discovered, or the tightest proven-clear
// prefix and cheapest known hit until then. All fields are monotone —
// queries only ever extend knowledge — which is what makes every
// Analyzer method safe to answer from the memo.
type bound struct {
	clearTo int   // no weight-w pattern at any data length <= clearTo
	hitAt   int   // 0 if unknown; else a data length with a known pattern
	witness []int // pattern positions backing hitAt (or first, once exact)
	first   int   // exact smallest data length with a pattern, if exact
	exact   bool
	elapsed time.Duration // cost of the exact boundary search
}

// Analyzer is a long-lived, concurrency-safe evaluation session for one
// polynomial. It owns the syndrome tables, period and factorization
// facts, and memoizes every weight boundary and existence answer it
// computes, so repeated or overlapping queries — Evaluate then HDAt then
// Select over the same candidate — stop re-paying the boundary scans
// that dominate CRC analysis.
//
// All long-running methods are context-first: cancellation is polled
// inside the engine's scan loops and surfaces as ctx.Err().
type Analyzer struct {
	p   Polynomial
	opt options

	// sem serializes evaluation work (capacity-1 channel rather than a
	// mutex so waiting callers can honour their context's deadline).
	// Everything below it is guarded by holding sem.
	sem    chan struct{}
	ev     *hamming.Evaluator
	ctx    context.Context // context of the in-flight call, read by the cancel hook
	bounds map[int]*bound
	wts    map[[2]int]uint64 // exact weight memo, keyed by {w, dataLen}
	// restoredProbes is the engine work the session's restored knowledge
	// originally cost (see RestoreMemos); exported snapshots carry it
	// forward so "cost to rebuild" survives restarts. It is NOT part of
	// MemoStats.Probes, which reports only this session's live engine
	// work — a restored session answering from the corpus shows 0.
	restoredProbes int64

	// factsMu guards the algebraic facts and the stats snapshot, so
	// Shape/Period/Stats never wait behind a long evaluation.
	factsMu   sync.Mutex
	stats     EvalStats // snapshot taken as each evaluation call returns
	memo      MemoStats // snapshot taken alongside stats
	factsSet  bool      // shape and period below are filled
	shape     string
	shapeErr  error
	period    uint64
	periodErr error
}

// factorize is the session's one factorization of its generator; a
// variable so tests can count the calls.
var factorize = Polynomial.Factorize

// NewAnalyzer returns an evaluation session for the polynomial. Options
// fix the session's classification depth, progress hook and resource
// limits.
func NewAnalyzer(p Polynomial, opts ...Option) *Analyzer {
	return &Analyzer{
		p:      p,
		opt:    newOptions(opts),
		sem:    make(chan struct{}, 1),
		bounds: make(map[int]*bound),
		wts:    make(map[[2]int]uint64),
	}
}

// Poly returns the polynomial under analysis.
func (a *Analyzer) Poly() Polynomial { return a.p }

// evaluatorLocked lazily builds the underlying engine (sem held).
func (a *Analyzer) evaluatorLocked() (*hamming.Evaluator, error) {
	if a.ev != nil {
		return a.ev, nil
	}
	if a.p.IsZero() {
		return nil, fmt.Errorf("koopmancrc: analyzer has no polynomial (zero value)")
	}
	hopts := []hamming.Option{
		hamming.WithCancel(func() bool { return a.ctx != nil && a.ctx.Err() != nil }),
		hamming.WithPeriod(a.Period),
	}
	if a.opt.limits.MaxProbes > 0 {
		hopts = append(hopts, hamming.WithMaxProbes(a.opt.limits.MaxProbes))
	}
	if fn := a.opt.progress; fn != nil {
		p := a.p
		hopts = append(hopts, hamming.WithProgress(func(ev hamming.Event) {
			fn(Progress{Poly: p, Weight: ev.Weight, DataLen: ev.DataLen, Probes: ev.Probes})
		}))
	}
	if fn := a.opt.spans; fn != nil {
		p := a.p
		hopts = append(hopts, hamming.WithSpanHook(func(ev hamming.SpanEvent) {
			// a.ctx is the in-flight call's context (sem held while the
			// engine runs), letting spans carry the caller's request ID.
			ctx := a.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			fn(ctx, Span{
				Poly:     p,
				Phase:    ev.Phase,
				Weight:   ev.Weight,
				DataLen:  ev.DataLen,
				Duration: ev.Duration,
				Probes:   ev.Probes,
			})
		}))
	}
	a.ev = hamming.New(a.p, hopts...)
	return a.ev, nil
}

// mapErr converts the engine's cancellation sentinel into the context's
// error, the convention of context-first APIs.
func mapErr(ctx context.Context, err error) error {
	if err != nil && errors.Is(err, hamming.ErrCanceled) && ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// boundLocked returns (creating if needed) the memo entry for weight w.
func (a *Analyzer) boundLocked(w int) *bound {
	b := a.bounds[w]
	if b == nil {
		b = &bound{}
		a.bounds[w] = b
	}
	return b
}

// existsLocked answers "does a weight-w pattern fit at dataLen?" from the
// memo when possible, otherwise by the boundary search up to dataLen,
// whose answer is memoized as an exact boundary that also answers every
// later length (sem held, a.ctx set).
func (a *Analyzer) existsLocked(w, dataLen int) ([]int, bool, error) {
	if w == 1 {
		return nil, false, nil // a single flipped bit is always detected
	}
	b := a.boundLocked(w)
	switch {
	case b.exact && b.first <= dataLen:
		return b.witness, true, nil
	case b.exact: // first > dataLen
		return nil, false, nil
	case b.hitAt != 0 && b.hitAt <= dataLen:
		return b.witness, true, nil
	case b.clearTo >= dataLen:
		return nil, false, nil
	}
	b, found, err := a.boundaryLocked(w, dataLen)
	if err != nil || !found {
		return nil, false, err
	}
	return b.witness, true, nil
}

// boundaryLocked answers "what is the smallest data length with a
// weight-w pattern, searching up to maxLen?" from the memo when
// possible, running (and memoizing) the exact boundary search otherwise
// (sem held, a.ctx set).
func (a *Analyzer) boundaryLocked(w, maxLen int) (*bound, bool, error) {
	b := a.boundLocked(w)
	if b.exact {
		return b, b.first <= maxLen, nil
	}
	if w == 1 || b.clearTo >= maxLen {
		return b, false, nil
	}
	ev, err := a.evaluatorLocked()
	if err != nil {
		return nil, false, err
	}
	start := time.Now()
	first, wit, found, err := ev.FirstDataLen(w, maxLen)
	if err != nil {
		return nil, false, err
	}
	if found {
		b.exact, b.first, b.hitAt, b.witness = true, first, first, wit
		b.elapsed = time.Since(start)
		if first-1 > b.clearTo {
			b.clearTo = first - 1
		}
		return b, true, nil
	}
	if maxLen > b.clearTo {
		b.clearTo = maxLen
	}
	return b, false, nil
}

// walkLocked is the weight walk behind a Table 1 column: weights 2
// through maxW in turn, each boundary searched up to a limit that starts
// at horizon and drops below every boundary found, since lengths past a
// lower weight's boundary already have a lower HD. visit, if non-nil,
// sees each boundary found before the limit drops, and returning true
// ends the walk there. walkLocked returns the limit it ended with: for
// a full walk, the largest length up to horizon below every boundary of
// weight <= maxW (sem held, a.ctx set).
func (a *Analyzer) walkLocked(horizon, maxW int, visit func(w int, b *bound) bool) (int, error) {
	limit := horizon
	for w := 2; w <= maxW && limit >= 1; w++ {
		b, found, err := a.boundaryLocked(w, limit)
		if err != nil {
			return 0, err
		}
		if !found {
			continue
		}
		if visit != nil && visit(w, b) {
			break
		}
		limit = b.first - 1
	}
	return limit, nil
}

// run executes fn with the session locked and the context wired into the
// engine's cancellation hook. Waiting for the session itself honours the
// context: a caller with a deadline fails fast instead of queueing
// behind a long evaluation.
func (a *Analyzer) run(ctx context.Context, fn func() error) error {
	select {
	case a.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-a.sem }()
	a.ctx = ctx
	defer func() { a.ctx = nil }()
	err := mapErr(ctx, fn())
	memo := MemoStats{BoundWeights: len(a.bounds), WeightEntries: len(a.wts)}
	for _, b := range a.bounds {
		if b.exact {
			memo.ExactBoundaries++
		}
	}
	var s hamming.Stats
	if a.ev != nil {
		s = a.ev.Stats
	}
	memo.Probes = s.Probes
	a.factsMu.Lock()
	a.stats = EvalStats{
		Probes:      s.Probes,
		StoreOps:    s.StoreOps,
		EarlyExits:  s.EarlyExits,
		Resolutions: s.Resolutions,
	}
	a.memo = memo
	a.factsMu.Unlock()
	return err
}

// Evaluate computes the full HD-vs-length profile of the polynomial up
// to maxLen data bits — one column of the paper's Table 1. Boundaries
// already discovered by earlier calls (any method, any length) are
// reused, so growing a profile or re-evaluating after HDAt/Select costs
// only the not-yet-known weights.
func (a *Analyzer) Evaluate(ctx context.Context, maxLen int) (*Report, error) {
	if maxLen < 1 {
		return nil, fmt.Errorf("koopmancrc: invalid maxLen %d", maxLen)
	}
	maxHD := a.opt.maxHD
	if maxHD < 2 {
		return nil, fmt.Errorf("koopmancrc: cannot profile with MaxHD %d (need >= 2)", maxHD)
	}
	var ts []Transition
	err := a.run(ctx, func() error {
		_, err := a.walkLocked(maxLen, maxHD, func(w int, b *bound) bool {
			ts = append(ts, Transition{
				W: w, FirstLen: b.first, Witness: copyPositions(b.witness), Elapsed: b.elapsed,
			})
			return false
		})
		if err != nil {
			return fmt.Errorf("evaluate %v: %w", a.p, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	shape, err := a.Shape()
	if err != nil {
		return nil, err
	}
	period, _ := a.Period() // period can exceed uint64-practical ranges only on error
	return &Report{
		Poly:        a.p,
		MaxLen:      maxLen,
		Bands:       bandsFromTransitions(ts, maxLen, maxHD),
		Transitions: ts,
		Shape:       shape,
		Period:      period,
		ParityBit:   a.ParityBit(),
	}, nil
}

// bandsFromTransitions converts weight boundaries into the contiguous HD
// bands covering [1, maxLen].
func bandsFromTransitions(ts []Transition, maxLen, maxHD int) []Band {
	events := append([]Transition(nil), ts...)
	sort.Slice(events, func(i, j int) bool { return events[i].FirstLen < events[j].FirstLen })
	var bands []Band
	cur := 1
	minW := 0 // 0 = no boundary active yet: HD is at least maxHD+1
	flush := func(to int) {
		if to < cur {
			return
		}
		if minW == 0 {
			bands = append(bands, Band{HD: maxHD + 1, AtLeast: true, From: cur, To: to})
		} else {
			bands = append(bands, Band{HD: minW, From: cur, To: to})
		}
		cur = to + 1
	}
	for i := 0; i < len(events); {
		l := events[i].FirstLen
		if l > maxLen {
			break
		}
		flush(l - 1)
		for i < len(events) && events[i].FirstLen == l {
			if minW == 0 || events[i].W < minW {
				minW = events[i].W
			}
			i++
		}
	}
	flush(maxLen)
	return bands
}

// HDAt returns the exact Hamming distance at one data-word length,
// searching weights up to the session's MaxHD. exact is false when every
// weight up to MaxHD came back clean — the true HD is then at least the
// returned value.
func (a *Analyzer) HDAt(ctx context.Context, dataLen int) (hd int, exact bool, err error) {
	if dataLen < 1 {
		return 0, false, fmt.Errorf("koopmancrc: invalid data length %d", dataLen)
	}
	err = a.run(ctx, func() error {
		for w := 2; w <= a.opt.maxHD; w++ {
			_, found, err := a.existsLocked(w, dataLen)
			if err != nil {
				return err
			}
			if found {
				hd, exact = w, true
				return nil
			}
		}
		hd, exact = a.opt.maxHD+1, false
		return nil
	})
	if err != nil {
		return 0, false, err
	}
	return hd, exact, nil
}

// MaxLenAtHD returns the largest data-word length, searching up to
// horizon, at which the polynomial still guarantees at least the given
// Hamming distance — the paper's figure of merit ("HD=6 up to 16,360
// bits"). ok is false when even length 1 falls short.
func (a *Analyzer) MaxLenAtHD(ctx context.Context, hd, horizon int) (maxLen int, ok bool, err error) {
	if hd < 2 {
		return 0, false, fmt.Errorf("koopmancrc: invalid HD %d", hd)
	}
	if horizon < 1 {
		return 0, false, fmt.Errorf("koopmancrc: invalid horizon %d", horizon)
	}
	err = a.run(ctx, func() error {
		var err error
		maxLen, err = a.walkLocked(horizon, hd-1, nil)
		ok = maxLen >= 1
		return err
	})
	if err != nil {
		return 0, false, err
	}
	return maxLen, ok, nil
}

// Weight returns the exact number of undetectable w-bit error patterns
// at a data-word length (w <= 4), e.g. 223059 for the 802.3 polynomial
// with w=4 at 12112 bits. Results are memoized per (w, length).
func (a *Analyzer) Weight(ctx context.Context, w, dataLen int) (count uint64, err error) {
	err = a.run(ctx, func() error {
		key := [2]int{w, dataLen}
		if v, ok := a.wts[key]; ok {
			count = v
			return nil
		}
		ev, err := a.evaluatorLocked()
		if err != nil {
			return err
		}
		v, err := ev.Weight(w, dataLen)
		if err != nil {
			return err
		}
		a.wts[key] = v
		count = v
		return nil
	})
	if err != nil {
		return 0, err
	}
	return count, nil
}

// Witness returns one undetectable error pattern of exactly w bits at
// the given length, as codeword bit positions (position 0 = last
// transmitted bit). Witnesses discovered by any earlier query are
// reused.
func (a *Analyzer) Witness(ctx context.Context, w, dataLen int) (positions []int, found bool, err error) {
	if dataLen < 1 {
		return nil, false, fmt.Errorf("koopmancrc: invalid data length %d", dataLen)
	}
	if w < 1 {
		return nil, false, fmt.Errorf("koopmancrc: invalid weight %d", w)
	}
	err = a.run(ctx, func() error {
		positions, found, err = a.existsLocked(w, dataLen)
		return err
	})
	if err != nil {
		return nil, false, err
	}
	// The memo retains its own array; callers get a copy they may sort
	// or mutate without corrupting the session.
	return copyPositions(positions), found, nil
}

// copyPositions clones a witness position slice leaving nil as nil.
func copyPositions(w []int) []int {
	if w == nil {
		return nil
	}
	return append([]int(nil), w...)
}

// selectionLocked scores the polynomial for protecting messages of the
// given length, sharing one shrinking-limit boundary scan between the HD
// determination and the coverage exploration (sem held, a.ctx set):
// one boundary search per weight instead of an existence query per
// weight followed by the boundary search.
func (a *Analyzer) selectionLocked(dataLen, horizon, maxHD int) (Selection, error) {
	hd := maxHD + 1
	limit, err := a.walkLocked(horizon, maxHD+1, func(w int, b *bound) bool {
		if b.first <= dataLen {
			hd = w
			return true
		}
		return false
	})
	if err != nil {
		return Selection{}, fmt.Errorf("select: %v: %w", a.p, err)
	}
	return Selection{Poly: a.p, HD: hd, CoverageAtHD: limit}, nil
}

// Coverage scores the polynomial at one data-word length: its HD there
// and how far that HD persists (explored up to four times the length,
// like Select).
func (a *Analyzer) Coverage(ctx context.Context, dataLen int) (Selection, error) {
	if dataLen < 1 {
		return Selection{}, fmt.Errorf("koopmancrc: invalid data length %d", dataLen)
	}
	var sel Selection
	err := a.run(ctx, func() error {
		var err error
		sel, err = a.selectionLocked(dataLen, 4*dataLen, a.opt.maxHD)
		return err
	})
	if err != nil {
		return Selection{}, err
	}
	return sel, nil
}

// Period returns ord(x) mod G — the codeword length at which 2-bit
// errors first become undetectable is Period()+1. It never waits behind
// an in-flight evaluation. Period, Shape and the engine's weight-2
// boundary share one factorization of G per session.
func (a *Analyzer) Period() (uint64, error) {
	a.factsMu.Lock()
	defer a.factsMu.Unlock()
	a.factsLocked()
	return a.period, a.periodErr
}

// Shape returns the paper's factorization-class notation, e.g.
// "{1,3,28}". It never waits behind an in-flight evaluation. Shape,
// Period and the engine's weight-2 boundary share one factorization of G
// per session.
func (a *Analyzer) Shape() (string, error) {
	a.factsMu.Lock()
	defer a.factsMu.Unlock()
	a.factsLocked()
	return a.shape, a.shapeErr
}

// factsLocked factors G on first use and derives the shape and the
// period from that one factorization (factsMu held). A generator that
// cannot be factored reports the error Polynomial.Period gives.
func (a *Analyzer) factsLocked() {
	if a.factsSet {
		return
	}
	a.factsSet = true
	factors, err := factorize(a.p)
	if err != nil {
		a.shapeErr = err
		a.period, a.periodErr = a.p.Period()
		return
	}
	a.shape = poly.ShapeString(gf2.Shape(factors))
	a.period, a.periodErr = gf2.OrderOfXFactors(factors)
}

// ParityBit reports whether (x+1) divides the generator: all odd-weight
// errors are then caught.
func (a *Analyzer) ParityBit() bool { return !a.p.IsZero() && a.p.DivisibleByXPlus1() }

// Stats snapshots the work counters accumulated across the session. The
// snapshot is refreshed as each evaluation call completes (not live
// mid-scan), so monitoring never waits behind an in-flight evaluation.
func (a *Analyzer) Stats() EvalStats {
	a.factsMu.Lock()
	defer a.factsMu.Unlock()
	return a.stats
}

// MemoStats sizes the session's memo: how many weight boundaries and
// exact counts it holds, and the engine probes spent building them. Like
// Stats, the snapshot is refreshed as each evaluation call completes, so
// monitoring never waits behind an in-flight evaluation.
func (a *Analyzer) MemoStats() MemoStats {
	a.factsMu.Lock()
	defer a.factsMu.Unlock()
	return a.memo
}

// Select ranks candidate polynomials for protecting messages of the
// given data-word length: highest HD at that length first, ties broken
// by how far the HD extends (the paper's argument for 0xBA0DC66B over
// 0x8F6E37A0 at iSCSI lengths). Coverage is explored up to four times
// the target length; a candidate whose HD persists beyond that horizon
// reports CoverageAtHD equal to the horizon.
//
// Each candidate gets a fresh Analyzer configured by opts. To reuse
// sessions — and the boundary scans they have already paid for — across
// repeated selections or alongside Evaluate, use SelectAnalyzers.
func Select(ctx context.Context, candidates []Polynomial, dataLen int, opts ...Option) ([]Selection, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("koopmancrc: no candidates")
	}
	analyzers := make([]*Analyzer, len(candidates))
	for i, p := range candidates {
		analyzers[i] = NewAnalyzer(p, opts...)
	}
	return SelectAnalyzers(ctx, analyzers, dataLen, opts...)
}

// SelectAnalyzers is Select over caller-owned evaluation sessions: every
// weight boundary a session has already discovered (through Evaluate,
// HDAt, Coverage or a previous selection) is reused rather than
// recomputed, and the boundaries this call discovers stay cached in the
// sessions for later queries.
//
// Each session is scanned to its own configured MaxHD; an explicit
// WithMaxHD here overrides that for the ranking. Other options
// (WithProgress, WithLimits) cannot be retrofitted onto pre-built
// sessions — configure them at NewAnalyzer — and are ignored here.
func SelectAnalyzers(ctx context.Context, analyzers []*Analyzer, dataLen int, opts ...Option) ([]Selection, error) {
	if len(analyzers) == 0 {
		return nil, fmt.Errorf("koopmancrc: no analyzers")
	}
	if dataLen < 1 {
		return nil, fmt.Errorf("koopmancrc: invalid data length %d", dataLen)
	}
	o := newOptions(opts)
	horizon := 4 * dataLen
	out := make([]Selection, 0, len(analyzers))
	for _, a := range analyzers {
		maxHD := a.opt.maxHD
		if o.maxHDSet {
			maxHD = o.maxHD
		}
		var sel Selection
		err := a.run(ctx, func() error {
			var err error
			sel, err = a.selectionLocked(dataLen, horizon, maxHD)
			return err
		})
		if err != nil {
			return nil, err
		}
		out = append(out, sel)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].HD != out[j].HD {
			return out[i].HD > out[j].HD
		}
		return out[i].CoverageAtHD > out[j].CoverageAtHD
	})
	return out, nil
}
