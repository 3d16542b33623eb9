package hamming

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
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
// u32map.sieve and bucketSet.sieve too. The bitmap is exact and
// indexed by the value itself, so it ignores hrow, passes a second-bit
// shift of 0 (the same bit tested twice) and no second pass follows.
func (b bitmapSet) sieve(row, _ []uint32, x uint32, out []int32) []int32 {
	return sieveBits(b, row, x, 0, out)
}

// bucketKeys is the number of key slots in a bucketSet bucket.
const bucketKeys = 16

// bucketSet is the w >= 5 scan's compact presence set, which spares a
// store side of a few hundred thousand keys the 512 MiB bitmap of a
// 32-bit generator. It holds keys only, in buckets of bucketKeys slots,
// and is sized once, for every insert the scan makes before it would
// move to the bitmap, at <= 50% load: it is never rebuilt. The presence
// filter in front is u32map's, 8 bits per slot, and sieve runs it
// through sieveBits in the same way; bucket b owns filter words 2b and
// 2b+1, and a key's home bucket is the one whose words hold its two
// bits. An insert appends its key at its home bucket's fill count, or
// at the next bucket's when that one is full (the last bucket's next
// is the first); it walks no probe chain and makes no duplicate check,
// so a key inserted twice takes two slots, which the sizing counts. A
// lookup scans the held keys of the home bucket, and of the buckets
// after it while they are full. Keys past a bucket's count are never
// read, so key 0 needs no slot of its own and the key slots are never
// cleared.
//
// Sets come from bucketPools and go back clean: release zeroes the
// count and filter words of each bucket the inserts filled, which
// touched records, without reading a key; once a quarter of the
// buckets were filled, touched holds no more and release clears all
// counts and filter words at once, a memclr, the cheaper there. Every
// key's home bucket was filled, as a key moves past its home only when
// that is full, so no filter bit is left set. A scan that stops after
// a few rows clears only what those rows set, and a run of scans in
// steady state allocates nothing.
type bucketSet struct {
	keys    []uint32 // bucket b's keys are keys[b*bucketKeys:][:counts[b]]
	counts  []uint8  // keys held in each bucket
	filter  []uint64 // presence bits, 8 per slot, 2 per key
	touched []int32  // buckets filled since the set was clean, while they fit
}

// bucketPools holds released bucketSets by size class: pool k those of
// 2^k slots.
var bucketPools [32]sync.Pool

// setsOut counts the bucketSets taken from bucketPools and not yet
// released, so tests can check that every scan gives its set back.
var setsOut atomic.Int64

// getBucketSet returns a clean set for entries inserts at <= 50% load:
// a released one of its size class, or a new one.
func getBucketSet(entries int) *bucketSet {
	slots := bucketKeys
	for slots < 2*entries {
		slots <<= 1
	}
	setsOut.Add(1)
	if s, ok := bucketPools[bits.TrailingZeros(uint(slots))].Get().(*bucketSet); ok {
		return s
	}
	buckets := slots / bucketKeys
	return &bucketSet{
		keys:    make([]uint32, slots),
		counts:  make([]uint8, buckets),
		filter:  make([]uint64, slots/8),
		touched: make([]int32, 0, max(buckets/4, 1)),
	}
}

// release clears what the set's inserts set and returns it to its
// pool. The set must not be used after.
func (s *bucketSet) release() {
	if len(s.touched) == cap(s.touched) {
		clear(s.counts)
		clear(s.filter)
	} else {
		for _, b := range s.touched {
			s.counts[b] = 0
			s.filter[2*b] = 0
			s.filter[2*b+1] = 0
		}
	}
	s.touched = s.touched[:0]
	setsOut.Add(-1)
	bucketPools[bits.TrailingZeros(uint(len(s.keys)))].Put(s)
}

// home returns key's home bucket.
func (s *bucketSet) home(key uint32) int {
	w, _ := filterBits(s.filter, key)
	return w >> 1
}

// bucket returns the keys held in bucket b.
func (s *bucketSet) bucket(b int) []uint32 {
	return s.keys[b*bucketKeys : b*bucketKeys+int(s.counts[b])]
}

func (s *bucketSet) add(key uint32) {
	w, bits := filterBits(s.filter, key)
	s.filter[w] |= bits
	mask := len(s.counts) - 1
	b := w >> 1
	for s.counts[b] == bucketKeys {
		b = (b + 1) & mask
	}
	n := s.counts[b]
	if n == 0 && len(s.touched) < cap(s.touched) {
		s.touched = append(s.touched, int32(b))
	}
	s.keys[b*bucketKeys+int(n)] = key
	s.counts[b] = n + 1
}

// has reports whether key is held, without the filter test: it scans
// the key's home bucket, and the buckets after it while they are full.
func (s *bucketSet) has(key uint32) bool {
	mask := len(s.counts) - 1
	for b := s.home(key); ; b = (b + 1) & mask {
		held := s.bucket(b)
		for _, k := range held {
			if k == key {
				return true
			}
		}
		if len(held) < bucketKeys {
			return false
		}
	}
}

// sieve runs the pre-hashed row through the presence filter, then
// looks up only the indexes that pass, and keeps those actually held.
func (s *bucketSet) sieve(row, hrow []uint32, x uint32, out []int32) []int32 {
	hits := sieveBits(s.filter, hrow, lin(x), filterShift2, out)
	k := 0
	for _, i := range hits {
		if s.has(row[i] ^ x) {
			hits[k] = i
			k++
		}
	}
	return hits[:k]
}

// each calls fn with every key held, once per insert.
func (s *bucketSet) each(fn func(key uint32)) {
	for b := range s.counts {
		for _, k := range s.bucket(b) {
			fn(k)
		}
	}
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
