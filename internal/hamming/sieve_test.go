package hamming

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// sieveGuard is the number of guard words a test's out buffer carries
// past the row, which no sieve may write.
const sieveGuard = 32

// sieveCase is one sieve input: a bit array, a row of keys, the x
// XORed into each and the second bit's shift.
type sieveCase struct {
	bits  []uint64
	keys  []uint32
	x, s2 uint32
}

// sieveCases returns the inputs TestSieveBitsMatchesGo runs: bit arrays
// of 1 word (a bitmapSet below width 6) to 2 MiB (the largest presence
// filter the Table 1 scans build), empty, sparse, half-full, dense and
// full, each with rows of 0 to 67 keys and of 12143 (about the longest
// row of 802.3's W4 count at the MTU length) sliced from a pool at
// random alignments, and a random x. Every row is sieved with the
// bitmap's second-bit shift, 0, and the presence filter's,
// filterShift2.
func sieveCases(rng *rand.Rand) []sieveCase {
	pool := make([]uint32, 12143+16)
	for i := range pool {
		pool[i] = rng.Uint32()
	}
	var cases []sieveCase
	for _, words := range []int{1, 2, 64, 4096, 1 << 18} {
		for _, fill := range []func() uint64{
			func() uint64 { return 0 },
			func() uint64 { return rng.Uint64() & rng.Uint64() & rng.Uint64() },
			rng.Uint64,
			func() uint64 { return rng.Uint64() | rng.Uint64() | rng.Uint64() },
			func() uint64 { return ^uint64(0) },
		} {
			bits := make([]uint64, words)
			for i := range bits {
				bits[i] = fill()
			}
			for _, s2 := range []uint32{0, filterShift2} {
				for l := 0; l <= 67; l++ {
					off := rng.IntN(16)
					cases = append(cases, sieveCase{bits, pool[off : off+l], rng.Uint32(), s2})
				}
				off := rng.IntN(16)
				cases = append(cases, sieveCase{bits, pool[off : off+12143], rng.Uint32(), s2})
			}
		}
	}
	return cases
}

// runSieve runs sieve on c with an out buffer holding sieveGuard guard
// words past the row, and fails if any of them changed. It returns a
// copy of the result.
func runSieve(t *testing.T, name string, sieve func([]uint64, []uint32, uint32, uint32, []int32) []int32, c sieveCase) []int32 {
	t.Helper()
	out := make([]int32, len(c.keys)+sieveGuard)
	for i := range out {
		out[i] = -7
	}
	got := slices.Clone(sieve(c.bits, c.keys, c.x, c.s2, out))
	for i, v := range out[len(c.keys):] {
		if v != -7 {
			t.Fatalf("%s: a %d-key row over %d words wrote guard word %d", name, len(c.keys), len(c.bits), i)
		}
	}
	return got
}

// TestSieveBitsMatchesGo checks the row sieve both presence sets run.
// The Go leg checks sieveBitsGo against the two-bit test written out
// per key on 64-bit words; the vector leg requires sieveBits, the
// AVX-512 kernel on every row length, whole blocks and tail alike, to
// return exactly sieveBitsGo's slice. Both must leave every word of out
// past the row untouched. Where the CPU has no kernel, sieveBits is
// sieveBitsGo and the vector leg is skipped.
func TestSieveBitsMatchesGo(t *testing.T) {
	if sieveVector {
		t.Log("sieveBits runs the AVX-512 kernel")
	} else {
		t.Log("sieveBits runs sieveBitsGo: this CPU or architecture has no vector kernel")
	}
	cases := sieveCases(rand.New(rand.NewPCG(22, 16)))
	t.Run("go", func(t *testing.T) {
		for _, c := range cases {
			var want []int32
			for i, key := range c.keys {
				f := uint64(key ^ c.x)
				w := c.bits[f>>6%uint64(len(c.bits))]
				if w>>(f&63)&1 != 0 && w>>(f&32|f>>c.s2&31)&1 != 0 {
					want = append(want, int32(i))
				}
			}
			if got := runSieve(t, "sieveBitsGo", sieveBitsGo, c); !slices.Equal(got, want) {
				t.Fatalf("sieveBitsGo, %d keys over %d words, x = %#x, s2 = %d: %v, want %v",
					len(c.keys), len(c.bits), c.x, c.s2, got, want)
			}
		}
	})
	t.Run("vector", func(t *testing.T) {
		if !sieveVector {
			t.Skip("no AVX-512 kernel on this CPU or architecture")
		}
		for _, c := range cases {
			want := runSieve(t, "sieveBitsGo", sieveBitsGo, c)
			if got := runSieve(t, "sieveBits", sieveBits, c); !slices.Equal(got, want) {
				t.Fatalf("sieveBits, %d keys over %d words, x = %#x, s2 = %d: %v, want sieveBitsGo's %v",
					len(c.keys), len(c.bits), c.x, c.s2, got, want)
			}
		}
	})
}
