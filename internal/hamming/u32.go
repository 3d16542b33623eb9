package hamming

import (
	"math/bits"
	"math/rand/v2"
)

// u32map is a minimal open-addressed hash table from uint32 keys to
// int32 values, tuned for the inner loops of the weight-3 and weight-4
// scans and counts, where Go's built-in map is too slow. The w >= 5
// scan's store, which reads no value back, is a bucketSet instead. The
// map also serves as a multiset: inc counts a key's occurrences in its
// value (weight3's W3 count, exact when keys repeat). A zero key word
// marks an empty slot, so key 0 is held beside the slots in hasZero
// and zeroVal. The table is rebuilt by reserve: put doubles it
// whenever an insert would take it past 50% load.
//
// Almost every lookup in a scan is a miss, so a presence filter sits in
// front of the slots: one bit array with 8 bits per slot, one byte per
// slot against the slot's eight, so it stays in cache while the slots
// do not. It is a blocked Bloom filter with two bits per key in one
// 32-bit word: with f = lin(key) & (8*len(keys)-1), bit f and bit
// (f &^ 31) | lin(key)>>filterShift2, so one gathered word tests both.
// Both are independent of the key's slot, which the multiplicative hash
// picks, and lin is invertible, so hash bits 27 to 31 are independent
// of the word index up to 2^24 slots; past that the two bits may
// coincide, which weakens the filter but never makes it wrong. Every
// key a scan probes is an XOR of syndromes and lin is linear, so the
// filter hash of row[i]^x is hrow[i]^lin(x) with hrow[i] = lin(row[i])
// computed once per syndrome: sieve takes the pre-hashed row and runs
// it through the filter with sieveBits, an XOR and a two-bit test per
// key (16 keys a gather in the AVX-512 kernel), and returns the few
// keys that pass; only those go to find, which walks the probe chain
// without testing the filter again.
// The filter has no false negatives: put sets both bits of every key it
// inserts, key 0 included, and reserve builds a fresh filter by putting
// every key again. A false positive (an absent key whose two bits are
// both set, about one chance in 50 at 50% load against one in 16 for a
// single bit) passes the sieve and find answers it with -1.
type u32map struct {
	keys    []uint32 // 0 marks an empty slot
	vals    []int32  // the value of keys[i]
	filter  []uint64 // presence bits, 8 per slot, 2 per key
	shift   uint
	n       int // entries held, key 0 included
	hasZero bool
	zeroVal int32
}

// linTab holds the presence filter's hash, a fixed invertible 32x32
// matrix over GF(2), as one 256-entry table per key byte: lin(k) XORs
// the matrix columns of k's set bits, so lin(a^b) = lin(a)^lin(b) and
// lin(0) = 0. The columns come from a fixed seed, are drawn again
// whenever one falls in the span of those before it, and are tabulated
// at package init.
var linTab = func() (t [4][256]uint32) {
	rng := rand.New(rand.NewPCG(0x6c696e, 0x66696c746572))
	var basis [32]uint32 // basis[b]: a reduced column with top bit b
	for j := 0; j < 32; {
		col := rng.Uint32()
		r := col
		for r != 0 && basis[bits.Len32(r)-1] != 0 {
			r ^= basis[bits.Len32(r)-1]
		}
		if r == 0 {
			continue // dependent on the columns drawn so far
		}
		basis[bits.Len32(r)-1] = r
		byteTab := &t[j/8]
		for v := 1 << (j % 8); v < 1<<(j%8+1); v++ {
			byteTab[v] = byteTab[v-1<<(j%8)] ^ col
		}
		j++
	}
	return t
}()

// filterShift2 is the shift of the presence filter's second bit: a
// key's second bit is lin(key)>>filterShift2 within the 32-bit word of
// its first.
const filterShift2 = 27

// lin is the presence filter's linear hash of a key.
func lin(key uint32) uint32 {
	return linTab[0][uint8(key)] ^ linTab[1][uint8(key>>8)] ^
		linTab[2][uint8(key>>16)] ^ linTab[3][key>>24]
}

// newU32Map creates a map from keys to values able to hold n entries
// at <= 50% load before it first grows.
func newU32Map(n int) *u32map {
	sz := 16
	for sz < 2*n {
		sz <<= 1
	}
	return &u32map{
		keys:   make([]uint32, sz),
		vals:   make([]int32, sz),
		filter: make([]uint64, sz/8),
		shift:  uint(64 - bits.Len(uint(sz-1))),
	}
}

// hash spreads the syndrome bits across the table (Fibonacci hashing):
// its top bits pick the slot.
func hash(key uint32) uint64 { return uint64(key) * 0x9E3779B97F4A7C15 }

// put inserts key->val; for a key already present the first write wins.
func (m *u32map) put(key uint32, val int32) { m.insert(key, val, false) }

// inc adds one to the value of key, counting a key not yet held from 0:
// the valued form as a multiset.
func (m *u32map) inc(key uint32) { m.insert(key, 1, true) }

// insert puts key->val for a key not yet held. A key already present
// keeps its value, or gains val when add is set. A table that is full
// at 50% load is doubled first.
func (m *u32map) insert(key uint32, val int32, add bool) {
	if 2*(m.n+1) > len(m.keys) {
		m.reserve(m.n + 1)
	}
	w, bits := filterBits(m.filter, key)
	m.filter[w] |= bits
	if key == 0 {
		switch {
		case !m.hasZero:
			m.hasZero, m.zeroVal = true, val
			m.n++
		case add:
			m.zeroVal += val
		}
		return
	}
	mask := len(m.keys) - 1
	i := int(hash(key) >> m.shift)
	for {
		k := m.keys[i]
		if k == 0 {
			m.keys[i] = key
			m.vals[i] = val
			m.n++
			return
		}
		if k == key {
			if add {
				m.vals[i] += val
			}
			return // otherwise keep the first (smallest-position) entry
		}
		i = (i + 1) & mask
	}
}

// get returns the value for key, or -1 if absent. It tests the
// presence filter first.
func (m *u32map) get(key uint32) int32 {
	if w, bits := filterBits(m.filter, key); m.filter[w]&bits != bits {
		return -1
	}
	return m.find(key)
}

// find is get without the filter test, for a key that has already
// passed the sieve: it walks the key's probe chain.
func (m *u32map) find(key uint32) int32 {
	if key == 0 {
		if !m.hasZero {
			return -1
		}
		return m.zeroVal
	}
	mask := len(m.keys) - 1
	i := int(hash(key) >> m.shift)
	for {
		k := m.keys[i]
		if k == key {
			return m.vals[i]
		}
		if k == 0 {
			return -1
		}
		i = (i + 1) & mask
	}
}

// filterBits returns key's word in a presence filter of 8 bits per
// slot, whose length is a power of two, and the mask of its two bits
// in that word: f = lin(key) & (64*len(filter)-1) is the
// lin(key) & (8*slots-1) of the u32map and bucketSet docs.
func filterBits(filter []uint64, key uint32) (int, uint64) {
	h := lin(key)
	f := h & uint32(64*len(filter)-1)
	return int(f >> 6), 1<<(f&63) | 1<<(f&32|h>>filterShift2)
}

// sieve returns the indexes i, in ascending order, whose key k with
// lin(k) = hrow[i]^hx passes the presence filter: every key held is
// among them, and an absent key only on a false positive. For a row of
// keys row[i]^x the caller passes hrow[i] = lin(row[i]) and hx =
// lin(x). out is scratch of capacity at least len(hrow); the result
// aliases it. A key's two filter bits come from its hash alone, the
// second from the hash's bits filterShift2 and up, so the row goes
// through sieveBits: the AVX-512 kernel where the CPU has it, the
// branch-free Go loop elsewhere.
func (m *u32map) sieve(hrow []uint32, hx uint32, out []int32) []int32 {
	return sieveBits(m.filter, hrow, hx, filterShift2, out)
}

// reserve readies the map to hold n entries at <= 50% load: a table
// too small is rebuilt at that size and every key is put again with
// its value. A table already large enough is kept.
func (m *u32map) reserve(n int) {
	if 2*n <= len(m.keys) {
		return
	}
	old := *m
	*m = *newU32Map(n)
	if old.hasZero {
		m.put(0, old.zeroVal)
	}
	for i, k := range old.keys {
		if k != 0 {
			m.put(k, old.vals[i])
		}
	}
}
