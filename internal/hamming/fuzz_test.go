package hamming

import (
	"encoding/binary"
	"slices"
	"testing"
)

// fuzzRow is the length of FuzzU32Map's sieved rows: two of the vector
// sieve's 16-key blocks and a tail.
const fuzzRow = 2*16 + 5

// FuzzU32Map decodes the input into a sequence of put and get operations
// on a map that starts empty (so it grows along the way) and checks each
// against a Go map: the first write of a key wins, and an absent key
// reads -1. Each operation is one control byte followed by the key's
// bytes. Bit 0 of the control byte picks put or get, bits 1-2 the key's
// size (1, 2 or 4 bytes; 3 reuses the previous key) and bits 3-7 a left
// shift, so short inputs reach colliding, single-bit and high-bit keys.
// Every operation also sieves a row of fuzzRow keys: the key, key-1,
// key+1 and the previous key, then neighbours key^j<<s with s the
// operation's shift, all XORed with a value drawn from the operation
// count and passed pre-hashed. The output must be ascending, name every held key and
// pass a key only if its filter bit is set. A bucketSet, sized once for
// as many inserts as the input has bytes (no input makes more puts),
// takes the same puts, repeats included: after each it must hold one
// key per put, at most bucketKeys in a bucket, at <= 50% load, and
// answer has and every row sieve with exactly the map's presence. A
// 4096-bit bitmapSet takes the puts' low 12 bits and must sieve the
// row's low 12 bits exactly. On each row,
// sieveBits must return sieveBitsGo's slice, over the map's filter with
// its second-bit shift filterShift2 and over the bitmap with 0. A third
// table counts the puts with inc, as weight3's multiset does, and must
// read each key's count as a Go map[uint32]uint32 does, -1 for a key
// never put. Seeds beyond the first three fill one home bucket past
// bucketKeys keys, the last bucket's overflowing into the first, and
// put key 0 and a key repeated past a bucket's size.
func FuzzU32Map(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x01, 0x00, 0x06, 0x07})
	f.Add([]byte{0x02, 0x01, 0x00, 0xf8, 0x01, 0xfa, 0x01, 0x00, 0x05, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte("\x00abcdefghijklmnopqrstuvwxyz0123456789\x01a\x01z\x01!"))
	// 20 distinct keys homed at the last bucket, each read back, then
	// key 0, homed at the first bucket, where the overflow went.
	f.Add(lastBucketSeed(f, 20, []byte{0x00, 0x00, 0x01, 0x00, 0x07, 0x05, 0x01, 0x00, 0x00, 0x80}))
	// Key 0 put 40 times, through three buckets, then another key put
	// 20 times; every put is read back, and key 0 at the end.
	seed := []byte{0x00, 0x00}
	for i := 0; i < 39; i++ {
		seed = append(seed, 0x06, 0x07)
	}
	seed = append(seed, 0x04, 0xef, 0xbe, 0xad, 0xde)
	for i := 0; i < 19; i++ {
		seed = append(seed, 0x06, 0x07)
	}
	f.Add(append(seed, 0x01, 0x00))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newU32Map(0)
		set := getBucketSet(len(data))
		defer set.release()
		puts := 0
		counts := newU32Map(0)
		ref := make(map[uint32]int32)
		refCount := make(map[uint32]uint32)
		const bitmapMask = 1<<12 - 1
		bitmap := bitmapSet(make([]uint64, (bitmapMask+1)/64))
		inBitmap := make(map[uint32]bool)
		var key, prev uint32
		out := make([]int32, fuzzRow)
		for op := int32(0); len(data) > 0; op++ {
			ctl := data[0]
			data = data[1:]
			switch size := []int{1, 2, 4, 0}[ctl>>1&3]; {
			case size > len(data):
				return
			case size > 0:
				var buf [4]byte
				copy(buf[:], data[:size])
				data = data[size:]
				key = binary.LittleEndian.Uint32(buf[:]) << (ctl >> 3)
			}
			if ctl&1 == 0 {
				m.put(key, op)
				set.add(key)
				bitmap.add(key & bitmapMask)
				inBitmap[key&bitmapMask] = true
				counts.inc(key)
				if _, ok := ref[key]; !ok {
					ref[key] = op
				}
				refCount[key]++
				puts++
				if m.n != len(ref) || 2*m.n > len(m.keys) || counts.n != m.n {
					t.Fatalf("%d entries in %d slots (counts: %d), want %d at <= 50%% load",
						m.n, len(m.keys), counts.n, len(ref))
				}
				if held := heldKeys(t, set); held != puts || 2*held > len(set.keys) {
					t.Fatalf("set holds %d keys in %d slots, want one per put, %d, at <= 50%% load",
						held, len(set.keys), puts)
				}
			}
			wantCount := int32(-1)
			if c, ok := refCount[key]; ok {
				wantCount = int32(c)
			}
			if got := counts.get(key); got != wantCount {
				t.Fatalf("op %d: count of %#x = %d, want %d", op, key, got, wantCount)
			}
			want, ok := ref[key]
			if !ok {
				want = -1
			}
			if got := m.get(key); got != want {
				t.Fatalf("op %d: get(%#x) = %d, want %d", op, key, got, want)
			}
			checkSetMatchesMap(t, set, m, key, key^1, prev)
			probed := []uint32{key - 1, key, key + 1, prev}
			for j := uint32(len(probed)) - 2; len(probed) < fuzzRow; j++ {
				probed = append(probed, key^j<<(ctl>>3))
			}
			x := uint32(op) * 0x9E3779B9
			row := make([]uint32, len(probed))
			bitmapRow := make([]uint32, len(probed))
			for i, k := range probed {
				row[i] = k ^ x
				bitmapRow[i] = row[i] & bitmapMask
			}
			hrow := hashRow(row)
			held := func(i int) bool { _, ok := ref[probed[i]]; return ok }
			checkSieve(t, "u32map", m.sieve(hrow, lin(x), out), len(row),
				held, func(i int) bool { return filterHit(m, probed[i]) })
			checkSieve(t, "bucketSet", set.sieve(row, hrow, x, out), len(row), held, held)
			heldBitmap := func(i int) bool { return inBitmap[probed[i]&bitmapMask] }
			checkSieve(t, "bitmapSet", bitmap.sieve(bitmapRow, nil, x&bitmapMask, out), len(row), heldBitmap, heldBitmap)
			checkSieveBits(t, m.filter, hrow, lin(x), filterShift2)
			checkSieveBits(t, bitmap, bitmapRow, x&bitmapMask, 0)
			prev = key
		}
		for k, v := range ref {
			if got := m.get(k); got != v {
				t.Fatalf("get(%#x) = %d at the end, want %d", k, got, v)
			}
			if got := counts.get(k); got != int32(refCount[k]) {
				t.Fatalf("count of %#x = %d at the end, want %d", k, got, refCount[k])
			}
		}
	})
}

// checkSieveBits asserts that sieveBits returns exactly sieveBitsGo's
// slice on one row.
func checkSieveBits(t *testing.T, bits []uint64, keys []uint32, x, s2 uint32) {
	t.Helper()
	want := slices.Clone(sieveBitsGo(bits, keys, x, s2, make([]int32, len(keys))))
	if got := sieveBits(bits, keys, x, s2, make([]int32, len(keys))); !slices.Equal(got, want) {
		t.Fatalf("sieveBits over %d words, x = %#x, s2 = %d: %v, want sieveBitsGo's %v", len(bits), x, s2, got, want)
	}
}

// heldKeys returns the number of keys set holds, the sum of its bucket
// counts, each of which must be at most bucketKeys.
func heldKeys(t *testing.T, set *bucketSet) int {
	t.Helper()
	held := 0
	for b, c := range set.counts {
		if c > bucketKeys {
			t.Fatalf("bucket %d holds %d keys, past its %d slots", b, c, bucketKeys)
		}
		held += int(c)
	}
	return held
}

// lastBucketSeed returns a FuzzU32Map input that puts n distinct keys
// homed at the last bucket of the set the harness sizes for it, each as
// a 4-byte key followed by a get of it, and ends with tail.
func lastBucketSeed(f *testing.F, n int, tail []byte) []byte {
	size := 6*n + len(tail)
	set := getBucketSet(size)
	defer set.release()
	last := len(set.counts) - 1
	var data []byte
	for k := uint32(1); n > 0; k++ {
		if set.home(k) == last {
			data = binary.LittleEndian.AppendUint32(append(data, 0x04), k)
			data = append(data, 0x07)
			n--
		}
	}
	data = append(data, tail...)
	if len(data) != size {
		f.Fatalf("seed of %d bytes, want %d", len(data), size)
	}
	return data
}
