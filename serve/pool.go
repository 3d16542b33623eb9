package serve

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"koopmancrc"
)

// sessionKey identifies an Analyzer session in the pool. Sessions are
// keyed by the full configuration that shapes their memo — polynomial,
// classification depth and probe budget — so a request only ever reuses
// knowledge computed under its own budget.
type sessionKey struct {
	width   int
	koopman uint64
	maxHD   int
	limits  koopmancrc.Limits
}

// session is one pooled Analyzer plus the progress fan-out that lets any
// number of streaming requests watch its scans. The Analyzer itself
// serializes evaluations; the session only adds subscriber plumbing.
type session struct {
	// id is unique per session instance (pool-assigned), so work keyed on
	// it never coalesces across an eviction: a request that got a fresh
	// session never joins a flight still running on the evicted one.
	id   int64
	poly koopmancrc.Polynomial
	an   *koopmancrc.Analyzer

	// restored marks a session warm-started from the corpus; queries the
	// stored knowledge covers are then answered at zero engine probes.
	restored bool
	// enqueued guards the write-behind queue: a session sits in the
	// persist channel at most once, however many evaluations note it.
	enqueued atomic.Bool
	// persisted is the memo state the persister last wrote (or the state
	// restored from the corpus), read and written only by the persister
	// and the warm-start path, so an unchanged session costs no append.
	persisted koopmancrc.MemoStats

	mu   sync.Mutex
	subs map[int]chan koopmancrc.Progress
	next int
}

func newSession(p koopmancrc.Polynomial, maxHD int, limits koopmancrc.Limits, spans func(context.Context, koopmancrc.Span)) *session {
	s := &session{poly: p, subs: make(map[int]chan koopmancrc.Progress)}
	opts := []koopmancrc.Option{
		koopmancrc.WithMaxHD(maxHD),
		koopmancrc.WithLimits(limits),
		koopmancrc.WithProgress(s.dispatch),
	}
	if spans != nil {
		opts = append(opts, koopmancrc.WithSpans(spans))
	}
	s.an = koopmancrc.NewAnalyzer(p, opts...)
	return s
}

// dispatch fans a progress tick out to every subscriber. It runs on the
// evaluating goroutine under the engine's "must not block" contract, so
// sends are non-blocking: a slow stream drops ticks rather than stalling
// the scan.
func (s *session) dispatch(p koopmancrc.Progress) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ch := range s.subs {
		select {
		case ch <- p:
		default:
		}
	}
}

// subscribe registers a progress channel with the given buffer and
// returns its id for unsubscribe.
func (s *session) subscribe(buf int) (int, <-chan koopmancrc.Progress) {
	ch := make(chan koopmancrc.Progress, buf)
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.next
	s.next++
	s.subs[id] = ch
	return id, ch
}

func (s *session) unsubscribe(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.subs, id)
}

// poolEntry pairs a key with its session inside the LRU list.
type poolEntry struct {
	key  sessionKey
	sess *session
}

// pool is a bounded LRU of Analyzer sessions. An evicted session is not
// torn down — requests already holding it simply finish and let it be
// collected — the pool just stops handing it to new requests.
type pool struct {
	// spans, when non-nil, is installed as the span hook of every session
	// the pool creates, fanning engine phase telemetry into the server's
	// per-phase histograms. Set before the first get.
	spans func(context.Context, koopmancrc.Span)
	// warm, when non-nil, hydrates a freshly created session from the
	// persistent corpus before its first request runs. It is called under
	// the pool lock (restores into a fresh analyzer never contend), so a
	// burst of first requests for one polynomial warm-starts exactly
	// once. The context carries the creating request's trace span.
	warm func(context.Context, *session)
	// evicted, when non-nil, receives each session the pool stops handing
	// out, so the server can persist knowledge the write-behind queue has
	// not flushed yet.
	evicted func(*session)

	mu        sync.Mutex
	cap       int
	seq       int64      // session id generator
	order     *list.List // of *poolEntry; front = most recently used
	byKey     map[sessionKey]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

func newPool(capacity int) *pool {
	return &pool{
		cap:   capacity,
		order: list.New(),
		byKey: make(map[sessionKey]*list.Element),
	}
}

// get returns the session for the key, creating (and, at capacity,
// evicting the least recently used) as needed. hit reports whether the
// session already existed — a warm session answers repeat queries from
// its memo with zero engine probes.
func (p *pool) get(ctx context.Context, poly koopmancrc.Polynomial, maxHD int, limits koopmancrc.Limits) (sess *session, hit bool) {
	key := sessionKey{width: poly.Width(), koopman: poly.Koopman(), maxHD: maxHD, limits: limits}
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.byKey[key]; ok {
		p.order.MoveToFront(el)
		p.hits++
		return el.Value.(*poolEntry).sess, true
	}
	p.misses++
	for p.order.Len() >= p.cap {
		victim := p.cheapestLocked()
		e := victim.Value.(*poolEntry)
		p.order.Remove(victim)
		delete(p.byKey, e.key)
		p.evictions++
		if p.evicted != nil {
			p.evicted(e.sess)
		}
	}
	sess = newSession(poly, maxHD, limits, p.spans)
	p.seq++
	sess.id = p.seq
	if p.warm != nil {
		p.warm(ctx, sess)
	}
	p.byKey[key] = p.order.PushFront(&poolEntry{key: key, sess: sess})
	return sess, false
}

// cheapestLocked picks the eviction victim: the session cheapest to
// rebuild, measured by the live engine probes its memo cost
// (MemoStats.Probes ≈ rebuild cost — and a corpus-restored session
// counts only the probes spent beyond its snapshot, since the snapshot
// part rebuilds for free). Ties — common when several sessions have
// done no live work — fall to the least recently used, scanning from
// the back so recency still breaks cost ties.
func (p *pool) cheapestLocked() *list.Element {
	victim := p.order.Back()
	minProbes := victim.Value.(*poolEntry).sess.an.MemoStats().Probes
	for el := victim.Prev(); el != nil; el = el.Prev() {
		if probes := el.Value.(*poolEntry).sess.an.MemoStats().Probes; probes < minProbes {
			victim, minProbes = el, probes
		}
	}
	return victim
}

// counts returns the pool's scalar gauges without walking the sessions.
func (p *pool) counts() (sessions int, hits, misses, evictions int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.order.Len(), p.hits, p.misses, p.evictions
}

// sessionInfo reports one live session's identity and memoized cost, the
// per-session view the eviction policy and capacity planning read.
type sessionInfo struct {
	Poly            string
	Width           int
	MaxHD           int
	Limits          koopmancrc.Limits // clamped probe budget, 0 = engine default
	BoundWeights    int
	ExactBoundaries int
	WeightEntries   int
	Probes          int64
	// Restored marks a session warm-started from the persistent corpus.
	Restored bool
}

// sessions snapshots the live sessions, most recently used first.
// Session memo numbers come from Analyzer.MemoStats, which never waits
// behind an in-flight evaluation.
func (p *pool) sessions() []sessionInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []sessionInfo
	for el := p.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*poolEntry)
		m := e.sess.an.MemoStats()
		out = append(out, sessionInfo{
			Poly:            hexStr(e.sess.poly.In(koopmancrc.Koopman)),
			Width:           e.key.width,
			MaxHD:           e.key.maxHD,
			Limits:          e.key.limits,
			BoundWeights:    m.BoundWeights,
			ExactBoundaries: m.ExactBoundaries,
			WeightEntries:   m.WeightEntries,
			Probes:          m.Probes,
			Restored:        e.sess.restored,
		})
	}
	return out
}
