package hamming

import (
	"fmt"
	"sort"
)

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

// synSet is a presence set over syndrome values. The probe side asks it
// about a whole row at once: sieve returns, in ascending order, exactly
// the indexes i whose value row[i]^x is held, so a scan makes one
// interface call per row, not per probe. hrow[i] = lin(row[i]) is the
// row's presence-filter hash, sliced from the evaluator's hsyn beside
// row. out is scratch of capacity at least len(row); the result aliases
// it.
type synSet interface {
	add(uint32)
	sieve(row, hrow []uint32, x uint32, out []int32) []int32
}

// bitmapSet covers the whole 2^width syndrome space; exact and O(1), used
// when the store side is large.
type bitmapSet []uint64

func (b bitmapSet) add(v uint32) { b[v>>6] |= 1 << (v & 63) }

// sieve tests each value's bit with sieveBits, the kernel behind
// u32map.sieve too. The bitmap is exact and indexed by the value
// itself, so it ignores hrow, passes a second-bit shift of 0 (the same
// bit tested twice) and no second pass follows.
func (b bitmapSet) sieve(row, _ []uint32, x uint32, out []int32) []int32 {
	return sieveBits(b, row, x, 0, out)
}

// mapSet is a compact open-addressed presence set for small store sides,
// avoiding the 512 MiB bitmap for 32-bit generators on trivial queries.
// It is the keys-only form of u32map: no caller reads a value back, so
// a slot holds its key alone. It starts empty and doubles as it fills,
// and the w >= 5 scan sizes it ahead of its known growth (reserveRow).
type mapSet struct{ m *u32map }

func newMapSet() mapSet       { return mapSet{m: newTable(0, false)} }
func (s mapSet) add(v uint32) { s.m.put(v, 0) }

// sieve runs the pre-hashed row through the map's presence filter, then
// looks up only the indexes that pass, in the key slots alone, and keeps
// those actually held.
func (s mapSet) sieve(row, hrow []uint32, x uint32, out []int32) []int32 {
	hits := s.m.sieve(hrow, lin(x), out)
	k := 0
	for _, i := range hits {
		if s.m.find(row[i]^x) >= 0 {
			hits[k] = i
			k++
		}
	}
	return hits[:k]
}

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

// probe enumerates q-subsets of [1, n) joined with the positions {0, n},
// testing each syndrome against the store set of p-subsets of [1, n);
// hits are resolved into explicit disjoint witnesses. The innermost
// position runs as a row: one sieve call tests the syndromes of every
// choice of it at once, and only the returned hits are resolved. The
// weight w and data length of the enclosing query label progress
// events.
func (e *Evaluator) probe(syn []uint32, n, p, q int, set synSet, w, dataLen int) ([]int, bool, error) {
	hsyn := e.hsyn[:n]
	base := syn[0] ^ syn[n]
	probeSet := func(pos ...int) []int {
		return append([]int{0, n}, pos...)
	}
	out := e.rowScratch(n)
	switch q {
	case 1:
		for _, i := range set.sieve(syn[1:n], hsyn[1:n], base, out) {
			b := 1 + int(i)
			if wit, ok := e.resolve(syn, n, p, base^syn[b], probeSet(b)); ok {
				return wit, true, nil
			}
		}
		e.Stats.Probes += int64(n - 1)
	case 2:
		for b := 1; b < n; b++ {
			if err := e.tick(w, dataLen, int64(n-1-b)); err != nil {
				return nil, false, err
			}
			vb := base ^ syn[b]
			for _, i := range set.sieve(syn[b+1:n], hsyn[b+1:n], vb, out) {
				c := b + 1 + int(i)
				if wit, ok := e.resolve(syn, n, p, vb^syn[c], probeSet(b, c)); ok {
					return wit, true, nil
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
				for _, i := range set.sieve(syn[c+1:n], hsyn[c+1:n], vc, out) {
					d := c + 1 + int(i)
					if wit, ok := e.resolve(syn, n, p, vc^syn[d], probeSet(b, c, d)); ok {
						return wit, true, nil
					}
				}
				e.Stats.Probes += int64(n - 1 - c)
			}
		}
	default:
		// The last position's row is sieved once; probes are still
		// counted and ticked one by one, so cancel points and counts
		// match a probe-at-a-time walk.
		pos := make([]int, 0, q)
		var rec func(start, left int, acc uint32) ([]int, bool, error)
		rec = func(start, left int, acc uint32) ([]int, bool, error) {
			if left == 1 {
				hits := set.sieve(syn[start:n], hsyn[start:n], acc, out)
				for i := start; i < n; i++ {
					e.Stats.Probes++
					if err := e.tick(w, dataLen, 1); err != nil {
						return nil, false, err
					}
					if len(hits) == 0 || start+int(hits[0]) != i {
						continue
					}
					hits = hits[1:]
					if wit, ok := e.resolve(syn, n, p, acc^syn[i], probeSet(append(pos, i)...)); ok {
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
