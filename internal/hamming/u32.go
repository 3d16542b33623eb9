package hamming

import "math/bits"

// u32map is a minimal open-addressed hash map from uint32 keys to int32
// values, tuned for the inner loops of the boundary scans where Go's
// built-in map is too slow. It doubles whenever an insert would take it
// past 50% load; values are stored +1 so the zero word means "empty"
// even for key 0.
type u32map struct {
	slots []uint64 // key<<32 | (value+1)
	shift uint
	n     int // entries held
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
		slots: make([]uint64, sz),
		shift: uint(64 - bits.Len(uint(sz-1))),
	}
}

func (m *u32map) idx(key uint32) int {
	// Fibonacci hashing spreads the syndrome bits across the table.
	return int((uint64(key) * 0x9E3779B97F4A7C15) >> m.shift)
}

// put inserts key->val; for a key already present the first write wins.
func (m *u32map) put(key uint32, val int32) {
	if 2*(m.n+1) > len(m.slots) {
		m.grow()
	}
	mask := len(m.slots) - 1
	i := m.idx(key)
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
	mask := len(m.slots) - 1
	i := m.idx(key)
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
	return int((uint64(key) * 0x9E3779B97F4A7C15) >> m.shift)
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

// radixSortUint32 sorts a in place (using scratch of equal length) by four
// byte passes — linear time for the hundreds of millions of pair syndromes
// produced by exact weight-4 counting.
func radixSortUint32(a, scratch []uint32) []uint32 {
	if len(scratch) < len(a) {
		scratch = make([]uint32, len(a))
	}
	src, dst := a, scratch[:len(a)]
	for pass := 0; pass < 4; pass++ {
		shift := uint(8 * pass)
		var count [257]int
		for _, v := range src {
			count[int(byte(v>>shift))+1]++
		}
		for i := 1; i < 257; i++ {
			count[i] += count[i-1]
		}
		for _, v := range src {
			b := byte(v >> shift)
			dst[count[b]] = v
			count[b]++
		}
		src, dst = dst, src
	}
	return src // four passes: result is back in the original slice
}
