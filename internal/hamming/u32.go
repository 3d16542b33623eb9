package hamming

import "math/bits"

// u32map is a minimal open-addressed hash map from uint32 keys to int32
// values, tuned for the inner loops of the boundary scans where Go's
// built-in map is too slow. It doubles whenever an insert would take it
// past 50% load; values are stored +1 so the zero word means "empty"
// even for key 0.
//
// Almost every lookup in a scan is a miss, so a presence filter sits in
// front of the slots: one bit array with 8 bits per slot, one byte per
// slot against the slot's eight, so it stays in cache while the slots do
// not. A key's filter bit is the 3 hash bits just below its slot index.
// The scans that probe rows of keys do not look them up one at a time:
// sieve runs a whole row through the filter in one branch-free loop and
// returns the few keys that pass, and only those go to get, which walks
// the probe chain. The filter has no false negatives: put sets the bit
// of every key it inserts, and grow builds a fresh filter by putting
// every key again. A false positive (an absent key sharing a bit, at
// most one chance in 16 at 50% load) passes the sieve and get answers
// it with -1.
type u32map struct {
	slots  []uint64 // key<<32 | (value+1)
	filter []uint64 // presence bits, 8 per slot
	shift  uint
	n      int // entries held
}

// newU32Map creates a map able to hold n entries at ~50% load before it
// first grows.
func newU32Map(n int) *u32map {
	sz := 1
	for sz < 2*n {
		sz <<= 1
	}
	if sz < 16 {
		sz = 16
	}
	return &u32map{
		slots:  make([]uint64, sz),
		filter: make([]uint64, sz/8),
		shift:  uint(64 - bits.Len(uint(sz-1))),
	}
}

// hash spreads the syndrome bits across the table (Fibonacci hashing):
// the top bits pick the slot, the next 3 its filter bit.
func hash(key uint32) uint64 { return uint64(key) * 0x9E3779B97F4A7C15 }

// put inserts key->val; for a key already present the first write wins.
func (m *u32map) put(key uint32, val int32) {
	if 2*(m.n+1) > len(m.slots) {
		m.grow()
	}
	h := hash(key)
	f := h >> (m.shift - 3)
	m.filter[f>>6] |= 1 << (f & 63)
	mask := len(m.slots) - 1
	i := int(h >> m.shift)
	for {
		s := m.slots[i]
		if s == 0 {
			m.slots[i] = uint64(key)<<32 | uint64(uint32(val+1))
			m.n++
			return
		}
		if uint32(s>>32) == key {
			return // keep the first (smallest-position) entry
		}
		i = (i + 1) & mask
	}
}

// get returns the value for key, or -1 if absent.
func (m *u32map) get(key uint32) int32 {
	h := hash(key)
	if f := h >> (m.shift - 3); m.filter[f>>6]&(1<<(f&63)) == 0 {
		return -1
	}
	mask := len(m.slots) - 1
	i := int(h >> m.shift)
	for {
		s := m.slots[i]
		if s == 0 {
			return -1
		}
		if uint32(s>>32) == key {
			return int32(uint32(s)) - 1
		}
		i = (i + 1) & mask
	}
}

// sieve returns the indexes i, in ascending order, whose key row[i]^x
// passes the presence filter: every key held is among them, and an
// absent key only on a false positive. out is scratch of capacity at
// least len(row); the result aliases it. Every index is written and the
// count advances by the filter bit, so the loop has no data-dependent
// branch, and the power-of-two mask drops the filter's bounds check.
func (m *u32map) sieve(row []uint32, x uint32, out []int32) []int32 {
	filter, shift := m.filter, m.shift-3
	if len(filter) == 0 {
		return out[:0] // never true; it lets the mask below drop the bounds check
	}
	fmask := len(filter) - 1
	out = out[:len(row)]
	k := 0
	for i, key := range row {
		f := hash(key^x) >> shift
		out[k] = int32(i)
		k += int(filter[int(f>>6)&fmask] >> (f & 63) & 1)
	}
	return out[:k]
}

// grow doubles the table and re-inserts every entry.
func (m *u32map) grow() {
	old := m.slots
	*m = *newU32Map(len(old))
	for _, s := range old {
		if s != 0 {
			m.put(uint32(s>>32), int32(uint32(s))-1)
		}
	}
}

// each calls fn with every key held.
func (m *u32map) each(fn func(key uint32)) {
	for _, s := range m.slots {
		if s != 0 {
			fn(uint32(s >> 32))
		}
	}
}

// u32count is an open-addressed multiset counter over uint32 keys.
type u32count struct {
	keys   []uint32
	counts []uint32
	used   []bool
	mask   int
	shift  uint
}

func newU32Count(n int) *u32count {
	sz := 1
	for sz < 2*n {
		sz <<= 1
	}
	if sz < 16 {
		sz = 16
	}
	return &u32count{
		keys:   make([]uint32, sz),
		counts: make([]uint32, sz),
		used:   make([]bool, sz),
		mask:   sz - 1,
		shift:  uint(64 - bits.Len(uint(sz-1))),
	}
}

func (m *u32count) idx(key uint32) int {
	return int(hash(key) >> m.shift)
}

// add increments the count of key.
func (m *u32count) add(key uint32) {
	i := m.idx(key)
	for {
		if !m.used[i] {
			m.used[i] = true
			m.keys[i] = key
			m.counts[i] = 1
			return
		}
		if m.keys[i] == key {
			m.counts[i]++
			return
		}
		i = (i + 1) & m.mask
	}
}

// count returns the multiplicity of key.
func (m *u32count) count(key uint32) uint32 {
	i := m.idx(key)
	for {
		if !m.used[i] {
			return 0
		}
		if m.keys[i] == key {
			return m.counts[i]
		}
		i = (i + 1) & m.mask
	}
}
