package hamming

import (
	"fmt"
	"sort"
)

// Exists reports whether an undetectable error pattern of exactly w bits
// fits within the codeword of the given data-word length (dataLen + width
// bits total). On success it returns the sorted bit positions of one such
// pattern — a weight-w multiple of the generator. Position 0 is the lowest
// FCS bit.
//
// Weight 2 follows directly from the polynomial period. Higher weights use
// a meet-in-the-middle join over position syndromes: a canonical pattern
// contains position 0, its remaining w-1 positions are split into a stored
// p-subset side and a probed q-subset side, and a probe hitting a stored
// syndrome value is exactly an undetectable pattern (up to position
// overlap, which is re-verified before reporting). Odd weights of a
// generator divisible by (x+1) are answered without a search.
func (e *Evaluator) Exists(w, dataLen int) ([]int, bool, error) {
	if w < 1 {
		return nil, false, fmt.Errorf("hamming: invalid weight %d", w)
	}
	if dataLen < 1 {
		return nil, false, fmt.Errorf("hamming: invalid data length %d", dataLen)
	}
	n := e.codewordLen(dataLen)
	if w > n || e.oddWeightImpossible(w) {
		return nil, false, nil
	}
	switch w {
	case 1:
		// A single flipped bit always has non-zero syndrome.
		return nil, false, nil
	case 2:
		period, err := e.Period()
		if err != nil {
			return nil, false, err
		}
		if period <= uint64(n-1) {
			return []int{0, int(period)}, true, nil
		}
		return nil, false, nil
	default:
		return e.meetInMiddle(w, n)
	}
}

// meetInMiddle searches for a weight-w multiple of G within n codeword bits.
func (e *Evaluator) meetInMiddle(w, n int) ([]int, bool, error) {
	if err := e.begin(w, n-e.width); err != nil {
		return nil, false, err
	}
	rem := w - 1
	p := rem / 2
	q := rem - p // p <= q; the smaller side is materialised
	storeCount := binomAtMost(n-1, p, 1<<62)
	probeCount := binomAtMost(n-1, q, 1<<62)
	if storeCount+probeCount > e.opts.MaxProbes {
		return nil, false, fmt.Errorf("%w: weight %d at %d codeword bits needs %d operations",
			ErrBudgetExceeded, w, n, storeCount+probeCount)
	}
	syn := e.syndromes(n)

	var set synSet
	if storeCount <= int64(e.opts.MaxStoreEntries) && e.width > 20 {
		set = newMapSet(int(storeCount))
	} else {
		set = bitmapSet(e.bitset())
	}
	endStore := e.spanStart(SpanMITMStore, w, n-e.width)
	if err := e.enumStore(syn, n, p, 0, set, w, n-e.width); err != nil {
		endStore()
		return nil, false, err
	}
	e.Stats.StoreOps += storeCount
	endStore()

	endProbe := e.spanStart(SpanMITMProbe, w, n-e.width)
	witness, found, err := e.probe(syn, n, p, q, []int{0}, set, w, n-e.width)
	endProbe()
	if err != nil {
		return nil, false, err
	}
	if found {
		e.Stats.EarlyExits++
		if err := e.verifyWitness(w, n, witness); err != nil {
			return nil, false, err
		}
		return witness, true, nil
	}
	return nil, false, nil
}

// verifyWitness defensively re-checks a reported pattern: correct weight,
// in-range sorted distinct positions, zero syndrome.
func (e *Evaluator) verifyWitness(w, n int, witness []int) error {
	if len(witness) != w {
		return fmt.Errorf("hamming: internal error: witness size %d != weight %d", len(witness), w)
	}
	var acc uint32
	for i, pos := range witness {
		if pos < 0 || pos >= n || (i > 0 && pos <= witness[i-1]) {
			return fmt.Errorf("hamming: internal error: bad witness %v", witness)
		}
		acc ^= e.syn[pos]
	}
	if acc != 0 {
		return fmt.Errorf("hamming: internal error: witness %v has syndrome %#x", witness, acc)
	}
	return nil
}

// synSet is a presence set over syndrome values.
type synSet interface {
	add(uint32)
	has(uint32) bool
}

// bitmapSet covers the whole 2^width syndrome space; exact and O(1), used
// when the store side is large.
type bitmapSet []uint64

func (b bitmapSet) add(v uint32)      { b[v>>6] |= 1 << (v & 63) }
func (b bitmapSet) has(v uint32) bool { return b[v>>6]&(1<<(v&63)) != 0 }

// mapSet is a compact open-addressed presence set for small store sides,
// avoiding the 512 MiB bitmap for 32-bit generators on trivial queries.
// It grows with its contents.
type mapSet struct{ m *u32map }

func newMapSet(n int) mapSet       { return mapSet{m: newU32Map(n)} }
func (s mapSet) add(v uint32)      { s.m.put(v, 0) }
func (s mapSet) has(v uint32) bool { return s.m.get(v) >= 0 }

// enumStore inserts the syndromes of all k-subsets of positions [1, n),
// each XORed with acc. The weight w and data length of the enclosing
// query label progress events.
func (e *Evaluator) enumStore(syn []uint32, n, k int, acc uint32, set synSet, w, dataLen int) error {
	switch k {
	case 1:
		for i := 1; i < n; i++ {
			set.add(acc ^ syn[i])
		}
	case 2:
		for i := 1; i < n; i++ {
			if err := e.tick(w, dataLen, int64(n-i)); err != nil {
				return err
			}
			si := acc ^ syn[i]
			for j := i + 1; j < n; j++ {
				set.add(si ^ syn[j])
			}
		}
	default:
		var rec func(start, left int, acc uint32) error
		rec = func(start, left int, acc uint32) error {
			if left == 0 {
				set.add(acc)
				return e.tick(w, dataLen, 1)
			}
			for i := start; i <= n-left; i++ {
				if err := rec(i+1, left-1, acc^syn[i]); err != nil {
					return err
				}
			}
			return nil
		}
		return rec(1, k, acc)
	}
	return nil
}

// probe enumerates q-subsets of [1, n) joined with the fixed positions,
// testing each syndrome against the store set of p-subsets of [1, n);
// hits are resolved into explicit disjoint witnesses. The weight w and
// data length of the enclosing query label progress events.
func (e *Evaluator) probe(syn []uint32, n, p, q int, fixed []int, set synSet, w, dataLen int) ([]int, bool, error) {
	var base uint32
	for _, f := range fixed {
		base ^= syn[f]
	}
	probeSet := func(pos ...int) []int {
		return append(append(make([]int, 0, len(fixed)+len(pos)), fixed...), pos...)
	}
	switch q {
	case 1:
		for b := 1; b < n; b++ {
			if set.has(base ^ syn[b]) {
				if wit, ok := e.resolve(syn, n, p, base^syn[b], probeSet(b)); ok {
					return wit, true, nil
				}
			}
		}
		e.Stats.Probes += int64(n - 1)
	case 2:
		for b := 1; b < n; b++ {
			if err := e.tick(w, dataLen, int64(n-1-b)); err != nil {
				return nil, false, err
			}
			vb := base ^ syn[b]
			for c := b + 1; c < n; c++ {
				if set.has(vb ^ syn[c]) {
					if wit, ok := e.resolve(syn, n, p, vb^syn[c], probeSet(b, c)); ok {
						return wit, true, nil
					}
				}
			}
			e.Stats.Probes += int64(n - 1 - b)
		}
	case 3:
		for b := 1; b < n; b++ {
			vb := base ^ syn[b]
			for c := b + 1; c < n; c++ {
				if err := e.tick(w, dataLen, int64(n-1-c)); err != nil {
					return nil, false, err
				}
				vc := vb ^ syn[c]
				for d := c + 1; d < n; d++ {
					if set.has(vc ^ syn[d]) {
						if wit, ok := e.resolve(syn, n, p, vc^syn[d], probeSet(b, c, d)); ok {
							return wit, true, nil
						}
					}
				}
				e.Stats.Probes += int64(n - 1 - c)
			}
		}
	default:
		pos := make([]int, 0, q)
		var rec func(start, left int, acc uint32) ([]int, bool, error)
		rec = func(start, left int, acc uint32) ([]int, bool, error) {
			if left == 0 {
				e.Stats.Probes++
				if err := e.tick(w, dataLen, 1); err != nil {
					return nil, false, err
				}
				if set.has(acc) {
					if wit, ok := e.resolve(syn, n, p, acc, probeSet(pos...)); ok {
						return wit, true, nil
					}
				}
				return nil, false, nil
			}
			for i := start; i <= n-left; i++ {
				pos = append(pos, i)
				wit, ok, err := rec(i+1, left-1, acc^syn[i])
				if ok || err != nil {
					return wit, ok, err
				}
				pos = pos[:len(pos)-1]
			}
			return nil, false, nil
		}
		return rec(1, q, base)
	}
	return nil, false, nil
}

// resolve turns a store hit into an explicit witness: it re-enumerates
// p-subsets with the target syndrome and returns the first one disjoint
// from the probe positions. A hit with no disjoint completion implies a
// lower-weight undetectable pattern; such anomalies are skipped (the caller
// will already have found them at the lower weight).
func (e *Evaluator) resolve(syn []uint32, n, p int, target uint32, probeSet []int) ([]int, bool) {
	e.Stats.Resolutions++
	inProbe := func(i int) bool {
		for _, b := range probeSet {
			if b == i {
				return true
			}
		}
		return false
	}
	emit := func(storePos []int) []int {
		out := make([]int, 0, len(probeSet)+p)
		out = append(out, probeSet...)
		out = append(out, storePos...)
		sort.Ints(out)
		return out
	}
	switch p {
	case 1:
		for i := 1; i < n; i++ {
			if syn[i] == target && !inProbe(i) {
				return emit([]int{i}), true
			}
		}
	case 2:
		for i := 1; i < n; i++ {
			if inProbe(i) {
				continue
			}
			want := target ^ syn[i]
			for j := i + 1; j < n; j++ {
				if syn[j] == want && !inProbe(j) {
					return emit([]int{i, j}), true
				}
			}
		}
	default:
		pos := make([]int, 0, p)
		var rec func(start, left int, acc uint32) ([]int, bool)
		rec = func(start, left int, acc uint32) ([]int, bool) {
			if left == 0 {
				if acc == target {
					return emit(append([]int(nil), pos...)), true
				}
				return nil, false
			}
			for i := start; i <= n-left; i++ {
				if inProbe(i) {
					continue
				}
				pos = append(pos, i)
				if wit, ok := rec(i+1, left-1, acc^syn[i]); ok {
					return wit, true
				}
				pos = pos[:len(pos)-1]
			}
			return nil, false
		}
		return rec(1, p, 0)
	}
	return nil, false
}

// binomAtMost returns min(C(n,k), limit), guarding against overflow.
func binomAtMost(n, k int, limit int64) int64 {
	if k < 0 || n < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	result := int64(1)
	for i := 1; i <= k; i++ {
		// result *= (n-k+i); result /= i — with overflow guard.
		next := result * int64(n-k+i)
		if next/int64(n-k+i) != result || next < 0 {
			return limit
		}
		result = next / int64(i)
		if result >= limit {
			return limit
		}
	}
	return result
}
