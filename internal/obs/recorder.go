package obs

import (
	"sort"
	"sync"
	"time"
)

// FlightRecorder retains completed traces in a bounded ring with tail
// sampling: the retention decision is made when the trace finishes, so
// the traces worth debugging — errored ones and the slowest K per
// endpoint — are always kept, while the healthy fast majority is down-
// sampled probabilistically. Eviction is clock-style: when the ring is
// full the hand advances past pinned entries (errored or currently
// slowest-K) and overwrites the first unpinned one, falling back to the
// oldest pinned entry only when everything is pinned.
//
// Pinning is budgeted: at most half the ring can be pinned at once
// (and error pins at most half of that), so a flood of errored or slow
// traces (an incident, or a hostile client manufacturing errors) can
// never wedge the ring into a state where eviction must overwrite
// pinned entries — retention beyond the budget is best-effort, and slow
// pinning survives an error flood. A warm-up trace additionally needs at least
// slowFloorNS of duration to count as "slow" while its endpoint's set
// is underfull, so the first few requests per endpoint are not pinned
// merely for arriving first.
//
// All operations take one short mutex; Record is O(1) amortized (the
// clock hand moves at most once around per insert), so recording stays
// off the measurable part of the request path.
type FlightRecorder struct {
	mu         sync.Mutex
	capacity   int
	sampleRate float64
	slowK      int
	pinBudget  int // max entries pinned at once: capacity/2

	entries []*recEntry          // ring slots, nil until filled
	filled  int                  // occupied slots, so a full ring skips the empty-slot scan
	hand    int                  // next eviction-scan position
	byID    map[string]*recEntry // trace id -> live entry
	slow    map[string][]*recEntry
	pins    int // entries with pinnedErr or pinnedSlow set
	errPins int // entries with pinnedErr set, capped at half the budget

	seq      uint64 // insertion order stamp
	rng      uint64 // splitmix64 state for the probabilistic sample
	recorded uint64
	kept     uint64
	evicted  uint64
}

// recEntry is one ring slot. pinnedErr never clears while the entry is
// live (though a budget-exhausted recorder may never set it); pinnedSlow
// clears when a faster trace displaces this one from its endpoint's
// slowest-K set, making the entry evictable again. An entry can sit in
// its endpoint's slow set with pinnedSlow false when the pin budget was
// exhausted at insert time.
type recEntry struct {
	td         *TraceData
	seq        uint64
	slot       int
	pinnedErr  bool
	pinnedSlow bool
}

// slowKDefault is how many slowest traces per endpoint stay pinned.
const slowKDefault = 8

// slowFloorNS is the minimum duration for a trace to enter an underfull
// slowest-K set: sub-millisecond requests are never "slow" merely
// because their endpoint's set has not filled yet.
const slowFloorNS = int64(time.Millisecond)

// NewFlightRecorder returns a recorder retaining at most capacity traces
// (minimum 16 enforced so the slowest-K pins cannot starve the ring) and
// keeping healthy fast traces with probability sampleRate (clamped to
// [0, 1]).
func NewFlightRecorder(capacity int, sampleRate float64) *FlightRecorder {
	if capacity < 16 {
		capacity = 16
	}
	if sampleRate < 0 {
		sampleRate = 0
	}
	if sampleRate > 1 {
		sampleRate = 1
	}
	return &FlightRecorder{
		capacity:   capacity,
		sampleRate: sampleRate,
		slowK:      slowKDefault,
		pinBudget:  capacity / 2,
		entries:    make([]*recEntry, capacity),
		byID:       make(map[string]*recEntry, capacity),
		slow:       make(map[string][]*recEntry),
		rng:        ridSeq.Add(1), // random-based seed, free of crypto/rand per recorder
	}
}

// Record applies the tail-sampling decision to a completed trace and,
// when it is retained, stores it (stamping td.Retained with the reason:
// "error", "slow" or "sampled"). td must not be mutated afterwards.
func (r *FlightRecorder) Record(td *TraceData) (retained bool, reason string) {
	if r == nil || td == nil {
		return false, ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	reason, isSlow := r.decideLocked(td.Name, td.DurationNS, td.Error != "")
	if reason == "" {
		return false, ""
	}
	r.keepLocked(td, reason, isSlow)
	return true, reason
}

// RecordTrace applies the same tail-sampling decision to a completed
// live trace, but snapshots the span tree only when the trace is
// retained: the dropped majority pays for the decision (one short
// lock over three scalar fields), never for Data. Call after
// Root().End(). The decision and the insert are two lock acquisitions;
// between them another trace can enter the slowest-K set, so a trace
// that qualified as "slow" may pin in at the set's edge — a benign
// race that at worst keeps one borderline trace.
func (r *FlightRecorder) RecordTrace(tr *Trace) (retained bool, reason string) {
	if r == nil || tr == nil {
		return false, ""
	}
	name, durNS, errMsg := tr.rootState()
	r.mu.Lock()
	reason, isSlow := r.decideLocked(name, durNS, errMsg != "")
	r.mu.Unlock()
	if reason == "" {
		return false, ""
	}
	td := tr.Data() // takes the trace lock; must not nest inside r.mu
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keepLocked(td, reason, isSlow)
	return true, reason
}

// decideLocked counts one completed trace and makes the tail-sampling
// decision: the retention reason ("" drops the trace) and whether the
// trace qualifies for its endpoint's slowest-K set.
func (r *FlightRecorder) decideLocked(name string, durNS int64, isErr bool) (reason string, isSlow bool) {
	r.recorded++
	isSlow = r.qualifiesSlowLocked(name, durNS)
	switch {
	case isErr:
		return "error", isSlow
	case isSlow:
		return "slow", true
	case r.randLocked() < r.sampleRate:
		return "sampled", false
	}
	return "", false
}

// keepLocked stores a retained trace with its reason and pins it as
// decideLocked found: error pins for errored traces, slow pins for
// traces entering the slowest-K set.
func (r *FlightRecorder) keepLocked(td *TraceData, reason string, isSlow bool) {
	td.Retained = reason
	e := &recEntry{td: td, seq: r.seq}
	r.seq++
	r.insertLocked(e)
	if reason == "error" {
		r.pinErrLocked(e)
	}
	if isSlow {
		r.pinSlowLocked(e)
	}
	r.kept++
}

// qualifiesSlowLocked reports whether a trace with this endpoint name
// and duration would enter the endpoint's slowest-K set. An underfull
// set only admits traces at least slowFloorNS long, so warm-up traffic
// is not retained as "slow" regardless of how fast it was; a full set
// admits only traces strictly slower than its fastest member (which,
// by induction, already cleared the floor).
func (r *FlightRecorder) qualifiesSlowLocked(name string, durNS int64) bool {
	set := r.slow[name]
	if len(set) < r.slowK {
		return durNS >= slowFloorNS
	}
	return durNS > set[0].td.DurationNS
}

// pinErrLocked pins an errored entry against eviction, if the pin
// budget allows; past the budget the trace is still retained, just
// evictable. Error pins take at most half the budget, so an error
// flood (an incident, or a client manufacturing request errors) can
// never starve slow-trace pinning.
func (r *FlightRecorder) pinErrLocked(e *recEntry) {
	if r.pins >= r.pinBudget || r.errPins >= r.pinBudget/2 {
		return
	}
	e.pinnedErr = true
	r.pins++
	r.errPins++
}

// pinSlowLocked inserts e into its endpoint's slowest-K set (ascending
// by duration), unpinning whatever it displaces. The pin itself is
// subject to the budget: past it the entry still orders the set (so
// slow qualification keeps working) but stays evictable.
func (r *FlightRecorder) pinSlowLocked(e *recEntry) {
	name := e.td.Name
	set := r.slow[name]
	if len(set) >= r.slowK {
		r.unpinSlowLocked(set[0])
		set = set[1:]
	}
	i := sort.Search(len(set), func(i int) bool { return set[i].td.DurationNS > e.td.DurationNS })
	set = append(set, nil)
	copy(set[i+1:], set[i:])
	set[i] = e
	if e.pinnedErr || r.pins < r.pinBudget {
		if !e.pinnedErr && !e.pinnedSlow {
			r.pins++
		}
		e.pinnedSlow = true
	}
	r.slow[name] = set
}

// unpinSlowLocked clears an entry's slow pin, releasing its budget slot
// unless an error pin still holds the entry.
func (r *FlightRecorder) unpinSlowLocked(e *recEntry) {
	if !e.pinnedSlow {
		return
	}
	e.pinnedSlow = false
	if !e.pinnedErr {
		r.pins--
	}
}

// insertLocked places e in the ring, evicting clock-style if full.
func (r *FlightRecorder) insertLocked(e *recEntry) {
	// Empty slot first: the ring fills before anything is evicted. The
	// scan only runs while slots remain — once the ring is full every
	// insert goes straight to the eviction scan instead of walking the
	// whole ring looking for a hole that cannot exist.
	if r.filled < r.capacity {
		for i := 0; i < r.capacity; i++ {
			slot := (r.hand + i) % r.capacity
			if r.entries[slot] == nil {
				r.placeLocked(e, slot)
				r.hand = (slot + 1) % r.capacity
				return
			}
		}
	}
	// Full: advance the hand past pinned entries; if everything is
	// pinned, the hand's own (oldest-scanned) entry goes.
	victim := r.hand
	for i := 0; i < r.capacity; i++ {
		slot := (r.hand + i) % r.capacity
		v := r.entries[slot]
		if !v.pinnedErr && !v.pinnedSlow {
			victim = slot
			break
		}
	}
	r.evictLocked(victim)
	r.placeLocked(e, victim)
	r.hand = (victim + 1) % r.capacity
}

func (r *FlightRecorder) placeLocked(e *recEntry, slot int) {
	e.slot = slot
	r.entries[slot] = e // always a hole: empty-scan hit or freshly evicted
	r.filled++
	r.byID[e.td.TraceID] = e
}

func (r *FlightRecorder) evictLocked(slot int) {
	v := r.entries[slot]
	if v == nil {
		return
	}
	delete(r.byID, v.td.TraceID)
	// Membership is checked regardless of the pin flag: a budget-
	// exhausted insert leaves entries in the slow set unpinned.
	set := r.slow[v.td.Name]
	for i, se := range set {
		if se == v {
			r.slow[v.td.Name] = append(set[:i:i], set[i+1:]...)
			break
		}
	}
	if v.pinnedErr || v.pinnedSlow {
		r.pins--
	}
	if v.pinnedErr {
		r.errPins--
	}
	r.entries[slot] = nil
	r.filled--
	r.evicted++
}

// randLocked is splitmix64 scaled to [0, 1) — good enough for sampling,
// free of any math/rand locking.
func (r *FlightRecorder) randLocked() float64 {
	r.rng += 0x9e3779b97f4a7c15
	z := r.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// Get returns the retained trace with the given ID.
func (r *FlightRecorder) Get(id string) (*TraceData, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.byID[id]
	if !ok {
		return nil, false
	}
	return e.td, true
}

// TraceFilter selects traces for Summaries. Zero fields match
// everything; Limit 0 means no cap.
type TraceFilter struct {
	Name        string        // root span name (endpoint label)
	MinDuration time.Duration // keep traces at least this long
	ErrorsOnly  bool
	Limit       int
}

// TraceSummary is the one-line view of a retained trace.
type TraceSummary struct {
	TraceID    string    `json:"trace_id"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationNS int64     `json:"duration_ns"`
	Error      string    `json:"error,omitempty"`
	Retained   string    `json:"retained"`
	Spans      int       `json:"spans"`
}

// Summaries lists retained traces matching the filter, newest first.
func (r *FlightRecorder) Summaries(f TraceFilter) []TraceSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	matched := make([]*recEntry, 0, len(r.byID))
	for _, e := range r.entries {
		if e == nil {
			continue
		}
		td := e.td
		if f.Name != "" && td.Name != f.Name {
			continue
		}
		if td.DurationNS < f.MinDuration.Nanoseconds() {
			continue
		}
		if f.ErrorsOnly && td.Error == "" {
			continue
		}
		matched = append(matched, e)
	}
	r.mu.Unlock()
	sort.Slice(matched, func(i, j int) bool { return matched[i].seq > matched[j].seq })
	if f.Limit > 0 && len(matched) > f.Limit {
		matched = matched[:f.Limit]
	}
	out := make([]TraceSummary, len(matched))
	for i, e := range matched {
		td := e.td
		out[i] = TraceSummary{
			TraceID:    td.TraceID,
			Name:       td.Name,
			Start:      td.Start,
			DurationNS: td.DurationNS,
			Error:      td.Error,
			Retained:   td.Retained,
			Spans:      td.Spans,
		}
	}
	return out
}

// RecorderStats are the recorder's lifetime counters.
type RecorderStats struct {
	Recorded uint64 `json:"recorded"`
	Retained uint64 `json:"retained"`
	Evicted  uint64 `json:"evicted"`
	Live     int    `json:"live"`
}

// Stats snapshots the counters.
func (r *FlightRecorder) Stats() RecorderStats {
	if r == nil {
		return RecorderStats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return RecorderStats{Recorded: r.recorded, Retained: r.kept, Evicted: r.evicted, Live: len(r.byID)}
}
