package hamming

import "fmt"

// FirstDataLen returns the smallest data-word length (up to maxLen) at
// which some undetectable error pattern of exactly w bits fits, together
// with a witness pattern. found is false if no such length exists within
// maxLen. Weight 2 comes from the period, weights 3 and 4 from dedicated
// scans and weights of 5 and above from one incremental scan
// (firstLenScan).
func (e *Evaluator) FirstDataLen(w, maxLen int) (int, []int, bool, error) {
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
		return e.firstLenScan(w, maxLen)
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
// probes every pair {b,c} against the stored {0,a} syndromes, the whole
// row of b at once through the store's sieve, and looks up only the few
// pairs that pass. The first hit is the exact weight-4 boundary; the scan
// is O(c*^2) with a small cache-resident hash table. An early exit
// credits the b probes up to the hit, as a pair-at-a-time walk would.
func (e *Evaluator) firstLen4(maxLen int) (int, []int, bool, error) {
	if err := e.begin(4, maxLen); err != nil {
		return 0, nil, false, err
	}
	defer e.spanStart(SpanW4Scan, 4, maxLen)()
	n := e.codewordLen(maxLen)
	syn := e.syndromes(n)
	hsyn := e.hsyn[:n]
	m := newU32Map(n)
	out := e.rowScratch(n)
	// Probes fold into Stats row by row (not once at the end) so the
	// counts carried by progress events stay live through what can be a
	// multi-minute scan; start anchors this call's budget check.
	start := e.Stats.Probes
	for c := 1; c < n; c++ {
		if err := e.tick(4, maxLen, int64(c-1)); err != nil {
			return 0, nil, false, err
		}
		sc := syn[c]
		for _, i := range m.sieve(hsyn[1:c], hsyn[c], out) {
			b := 1 + int(i)
			if a := m.find(syn[b] ^ sc); a >= 0 {
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
// disjoint pattern is the exact boundary, so the whole search costs what
// one meet-in-the-middle join over the boundary length would. It is one
// query against MaxProbes.
func (e *Evaluator) firstLenScan(w, maxLen int) (int, []int, bool, error) {
	if err := e.begin(w, maxLen); err != nil {
		return 0, nil, false, err
	}
	defer e.spanStart(SpanBoundary, w, maxLen)()
	n := e.codewordLen(maxLen)
	syn := e.syndromes(n)
	p := (w - 1) / 2
	q := w - 2 - p
	// The store starts as a compact set, sized ahead of each row, and
	// moves into the whole-space bitmap once it passes
	// DefaultMaxStoreEntries, so a boundary at a few hundred bits never
	// allocates 2^width bits.
	var set synSet
	if e.width <= 20 {
		set = bitmapSet(e.bitset())
	} else {
		set = newMapSet()
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
		if m, ok := set.(mapSet); ok {
			if binomAtMost(c-1, p, 1<<62) > int64(e.opts.maxStoreEntries) {
				b := bitmapSet(e.bitset())
				m.m.each(b.add)
				set = b
			} else {
				reserveRow(m.m, c, n, p, e.opts.maxStoreEntries)
			}
		}
		if err := e.enumStore(syn, c-1, p-1, syn[c-1], set, w, maxLen); err != nil {
			return 0, nil, false, err
		}
		e.Stats.StoreOps += row
		wit, found, err := e.probe(syn, c, p, q, set, w, maxLen)
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

// reserveRow sizes the w >= 5 scan's compact store before the inserts of
// row c, in a scan of n codeword positions that stores p-subsets. After
// row c the store holds C(c-1, p) entries; if that would take the table
// past 50% load, it is reserved for the store at row min(2c, n),
// C(min(2c, n)-1, p), capped at limit, past which the scan moves to the
// bitmap. Looking one doubling of c ahead, not to the end of the scan,
// rebuilds the table a few times instead of at every doubling of its
// entries, while an early exit still pays only for the rows it ran.
func reserveRow(m *u32map, c, n, p, limit int) {
	if binomAtMost(c-1, p, 1<<62) <= int64(len(m.keys)/2) {
		return
	}
	m.reserve(int(min(binomAtMost(min(2*c, n)-1, p, 1<<62), int64(limit))))
}

// MeetsHDAtLengths reports whether the polynomial attains at least
// Hamming distance minHD at each length in order: no undetectable
// pattern of weight below minHD fits there. This is the paper's
// "filtering with increasing lengths": evaluation stops at the first
// pattern found rather than computing exact weights, and a polynomial
// rejected at a short length is never evaluated at the expensive
// longer ones.
func (e *Evaluator) MeetsHDAtLengths(lengths []int, minHD int) (bool, error) {
	for _, l := range lengths {
		for w := 2; w < minHD; w++ {
			if l < 1 {
				return false, fmt.Errorf("hamming: invalid data length %d", l)
			}
			_, _, found, err := e.FirstDataLen(w, l)
			if err != nil || found {
				return false, err
			}
		}
	}
	return true, nil
}
