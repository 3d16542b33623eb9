package hamming

import "fmt"

// Strategy selects how FirstDataLen locates a weight boundary for w >= 5.
type Strategy int

// Available strategies.
const (
	// StrategyIncreasing is the paper's §4.1 method: filter at
	// geometrically increasing lengths until the breakpoint is straddled,
	// then binary-subdivide the final interval. Cheap evaluations at short
	// lengths reject quickly; only the last interval pays full cost.
	StrategyIncreasing Strategy = iota + 1
	// StrategyDirect evaluates the full length first and only then binary
	// searches. It is the baseline the paper's method is compared against.
	StrategyDirect
)

// FirstDataLen returns the smallest data-word length (up to maxLen) at
// which some undetectable error pattern of exactly w bits fits, together
// with a witness pattern. found is false if no such length exists within
// maxLen. Weights of 5 and above are located by one incremental scan
// (firstLenScan); FirstDataLenStrategy keeps the paper's §4.1 searches.
func (e *Evaluator) FirstDataLen(w, maxLen int) (int, []int, bool, error) {
	return e.firstDataLen(w, maxLen, e.firstLenScan)
}

// FirstDataLenStrategy is FirstDataLen with the w >= 5 boundary located by
// one of the paper's §4.1 existence-query searches instead of the
// incremental scan: the ablation and the reference the scan is checked
// against.
func (e *Evaluator) FirstDataLenStrategy(w, maxLen int, s Strategy) (int, []int, bool, error) {
	return e.firstDataLen(w, maxLen, func(w, maxLen int) (int, []int, bool, error) {
		return e.firstLenSearch(w, maxLen, s)
	})
}

// firstDataLen answers the weights with dedicated machinery and hands
// w >= 5 to high.
func (e *Evaluator) firstDataLen(w, maxLen int, high func(w, maxLen int) (int, []int, bool, error)) (int, []int, bool, error) {
	if w < 2 {
		return 0, nil, false, fmt.Errorf("hamming: invalid weight %d", w)
	}
	if maxLen < 1 || e.oddWeightImpossible(w) {
		return 0, nil, false, nil
	}
	switch w {
	case 2:
		period, err := e.Period()
		if err != nil {
			return 0, nil, false, err
		}
		// First 2-bit pattern spans positions {0, period}: codeword length
		// period+1, data length period+1-width.
		if period > uint64(e.codewordLen(maxLen)-1) {
			return 0, nil, false, nil
		}
		return e.dataLenFor(int(period)), []int{0, int(period)}, true, nil
	case 3:
		return e.firstLen3(maxLen)
	case 4:
		return e.firstLen4(maxLen)
	default:
		return high(w, maxLen)
	}
}

// firstLen3 scans codeword positions once, maintaining the syndromes of all
// {0,a} prefixes: the first position c whose syndrome completes a weight-3
// pattern is the boundary.
func (e *Evaluator) firstLen3(maxLen int) (int, []int, bool, error) {
	if err := e.begin(3, maxLen); err != nil {
		return 0, nil, false, err
	}
	defer e.spanStart(SpanW3Scan, 3, maxLen)()
	n := e.codewordLen(maxLen)
	syn := e.syndromes(n)
	m := newU32Map(n)
	for c := 1; c < n; c++ {
		if err := e.tick(3, maxLen, 1); err != nil {
			return 0, nil, false, err
		}
		if a := m.get(syn[c]); a >= 0 && int(a) != c {
			wit := []int{0, int(a), c}
			if err := e.verifyWitness(3, n, wit); err != nil {
				return 0, nil, false, err
			}
			e.Stats.EarlyExits++
			return e.dataLenFor(c), wit, true, nil
		}
		m.put(1^syn[c], int32(c))
	}
	e.Stats.Probes += int64(n)
	return 0, nil, false, nil
}

// firstLen4 is the incremental pair scan: for each new maximum position c it
// probes every pair {b,c} against the stored {0,a} syndromes. The first hit
// is the exact weight-4 boundary; the scan is O(c*^2) with a small
// cache-resident hash table.
func (e *Evaluator) firstLen4(maxLen int) (int, []int, bool, error) {
	if err := e.begin(4, maxLen); err != nil {
		return 0, nil, false, err
	}
	defer e.spanStart(SpanW4Scan, 4, maxLen)()
	n := e.codewordLen(maxLen)
	syn := e.syndromes(n)
	m := newU32Map(n)
	// Probes fold into Stats row by row (not once at the end) so the
	// counts carried by progress events stay live through what can be a
	// multi-minute scan; start anchors this call's budget check.
	start := e.Stats.Probes
	for c := 1; c < n; c++ {
		if err := e.tick(4, maxLen, int64(c-1)); err != nil {
			return 0, nil, false, err
		}
		sc := syn[c]
		for b := 1; b < c; b++ {
			if a := m.get(syn[b] ^ sc); a >= 0 {
				ia := int(a)
				if ia == b || ia == c {
					continue // degenerate: implies a lower-weight pattern
				}
				wit := []int{0, ia, b, c}
				if ia > b {
					wit = []int{0, b, ia, c}
				}
				if err := e.verifyWitness(4, n, wit); err != nil {
					return 0, nil, false, err
				}
				e.Stats.EarlyExits++
				e.Stats.Probes += int64(b)
				return e.dataLenFor(c), wit, true, nil
			}
		}
		e.Stats.Probes += int64(c - 1)
		if e.Stats.Probes-start > e.opts.MaxProbes {
			return 0, nil, false, fmt.Errorf("%w: weight-4 scan at %d codeword bits", ErrBudgetExceeded, c)
		}
		m.put(1^sc, int32(c))
	}
	return 0, nil, false, nil
}

// firstLenScan is the incremental boundary scan for w >= 5, generalising
// firstLen3/firstLen4: a code of length n+1 extends the code of length
// n, so the boundary is found in one pass that grows the length a bit at
// a time. A canonical pattern holds position 0 and its largest position
// c; of the w-2 positions between them, p go to the store and q are
// probed. For each c the store first gains every p-subset of [1, c)
// whose largest member is c-1, then every q-subset of [1, c) joined with
// {0, c} is probed against it. The first hit that resolves into a
// disjoint pattern is the exact boundary, so the whole search costs one
// meet-in-the-middle join at the boundary length. It is one query
// against MaxProbes.
func (e *Evaluator) firstLenScan(w, maxLen int) (int, []int, bool, error) {
	if err := e.begin(w, maxLen); err != nil {
		return 0, nil, false, err
	}
	defer e.spanStart(SpanBoundary, w, maxLen)()
	n := e.codewordLen(maxLen)
	syn := e.syndromes(n)
	p := (w - 1) / 2
	q := w - 2 - p
	// The store starts as a compact set that grows with it and moves
	// into the whole-space bitmap once it passes MaxStoreEntries, so a
	// boundary at a few hundred bits never allocates 2^width bits.
	var set synSet
	if e.width <= 20 {
		set = bitmapSet(e.bitset())
	} else {
		set = newMapSet(0)
	}
	var work int64
	for c := 2; c < n; c++ {
		row := binomAtMost(c-2, p-1, 1<<62)
		probes := binomAtMost(c-1, q, 1<<62)
		if work += row + probes; work > e.opts.MaxProbes {
			return 0, nil, false, fmt.Errorf("%w: weight-%d scan at %d codeword bits", ErrBudgetExceeded, w, c)
		}
		if err := e.tick(w, maxLen, row+probes); err != nil {
			return 0, nil, false, err
		}
		// After this row the store holds all C(c-1, p) subsets of [1, c).
		if m, ok := set.(mapSet); ok && binomAtMost(c-1, p, 1<<62) > int64(e.opts.MaxStoreEntries) {
			b := bitmapSet(e.bitset())
			m.m.each(b.add)
			set = b
		}
		if err := e.enumStore(syn, c-1, p-1, syn[c-1], set, w, maxLen); err != nil {
			return 0, nil, false, err
		}
		e.Stats.StoreOps += row
		wit, found, err := e.probe(syn, c, p, q, []int{0, c}, set, w, maxLen)
		if err != nil {
			return 0, nil, false, err
		}
		if found {
			if err := e.verifyWitness(w, c+1, wit); err != nil {
				return 0, nil, false, err
			}
			e.Stats.EarlyExits++
			return e.dataLenFor(c), wit, true, nil
		}
	}
	return 0, nil, false, nil
}

// firstLenSearch locates a w>=5 boundary with existence queries.
func (e *Evaluator) firstLenSearch(w, maxLen int, s Strategy) (int, []int, bool, error) {
	defer e.spanStart(SpanBoundary, w, maxLen)()
	// lo is the largest length known to have no weight-w pattern; hi the
	// smallest known to have one.
	lo, hi := 0, 0
	var hiWitness []int
	switch s {
	case StrategyDirect:
		wit, found, err := e.Exists(w, maxLen)
		if err != nil {
			return 0, nil, false, err
		}
		if !found {
			return 0, nil, false, nil
		}
		hi, hiWitness = maxLen, wit
	default: // StrategyIncreasing
		prev := 0
		for l := 8; ; l *= 2 {
			if l > maxLen {
				l = maxLen
			}
			wit, found, err := e.Exists(w, l)
			if err != nil {
				return 0, nil, false, err
			}
			if found {
				lo, hi, hiWitness = prev, l, wit
				break
			}
			prev = l
			if l == maxLen {
				return 0, nil, false, nil
			}
		}
		lo = prev
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		wit, found, err := e.Exists(w, mid)
		if err != nil {
			return 0, nil, false, err
		}
		if found {
			hi, hiWitness = mid, wit
		} else {
			lo = mid
		}
	}
	return hi, hiWitness, true, nil
}

// HDAt returns the exact Hamming distance at the given data-word length,
// searching weights up to maxHD. If no undetectable pattern of weight <=
// maxHD exists, it returns maxHD+1 with exact = false (the true HD is at
// least that).
func (e *Evaluator) HDAt(dataLen, maxHD int) (hd int, exact bool, err error) {
	for w := 2; w <= maxHD; w++ {
		_, found, err := e.Exists(w, dataLen)
		if err != nil {
			return 0, false, err
		}
		if found {
			return w, true, nil
		}
	}
	return maxHD + 1, false, nil
}

// MeetsHD reports whether the polynomial attains at least the given Hamming
// distance at the data-word length: no undetectable pattern of weight
// < minHD exists. This is the paper's filtering predicate — evaluation
// stops at the first non-zero weight rather than computing exact weights.
func (e *Evaluator) MeetsHD(dataLen, minHD int) (bool, error) {
	for w := 2; w < minHD; w++ {
		_, found, err := e.Exists(w, dataLen)
		if err != nil {
			return false, err
		}
		if found {
			return false, nil
		}
	}
	return true, nil
}

// MeetsHDAtLengths applies MeetsHD at each length in order — the paper's
// "filtering with increasing lengths": a polynomial rejected at a short
// length is never evaluated at the expensive longer ones.
func (e *Evaluator) MeetsHDAtLengths(lengths []int, minHD int) (bool, error) {
	for _, l := range lengths {
		ok, err := e.MeetsHD(l, minHD)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}
