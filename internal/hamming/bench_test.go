package hamming

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"koopmancrc/internal/poly"
)

// BenchmarkMeetsHDAtLengths32 is the kernel of the §4.2 filter: the
// increasing-length HD >= 5 check at 64, 256 and 1024 data bits over 16
// seeded 32-bit generators, each in a fresh Evaluator, so every
// candidate pays for its own syndrome table and scans. All 16 pass 64
// and 256 bits and 14 pass 1024, so the time is the weight-3 and
// weight-4 boundary scans, as in filter32. ns/probe is the cost of one
// engine work operation (probe or store insert), apart from how many
// the filter makes.
func BenchmarkMeetsHDAtLengths32(b *testing.B) {
	rng := rand.New(rand.NewPCG(32, 5))
	gens := make([]poly.P, 16)
	for i := range gens {
		gens[i] = randPoly(rng, 32)
	}
	lengths := []int{64, 256, 1024}
	var work int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range gens {
			e := New(g)
			if _, err := e.MeetsHDAtLengths(lengths, 5); err != nil {
				b.Fatal(err)
			}
			work += e.Stats.Probes + e.Stats.StoreOps
		}
	}
	reportPerProbe(b, work)
}

// BenchmarkBoundaryStore is the kernel of a Table 1 column's boundary
// searches, the w >= 5 scan, at its two extremes. store-bound is the
// weight-5 scan of 0xD419CC15 to 512 data bits, which finds no pattern:
// its time is the inserts that fill the store to C(542, 2) entries and
// the probes against it. early-exit is the weight-6 scan of 0x90022004
// to 512 bits, which stops at its boundary of 1 data bit, so its time
// is the setup and the first rows: a store cleared or allocated whole
// for every scan would show here. Each iteration runs in a fresh
// Evaluator, syndrome table included; the store's set comes from the
// pool, so B/op is what a scan allocates once the pool holds one.
func BenchmarkBoundaryStore(b *testing.B) {
	for _, bc := range []struct {
		name      string
		p         poly.P
		w, maxLen int
		found     bool
	}{
		{"store-bound", poly.CastagnoliHD5, 5, 512, false},
		{"early-exit", poly.KoopmanSparse6, 6, 512, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var work int64
			for i := 0; i < b.N; i++ {
				e := New(bc.p)
				if _, _, found, err := e.FirstDataLen(bc.w, bc.maxLen); err != nil || found != bc.found {
					b.Fatalf("FirstDataLen(%d, %d): found = %v, err = %v", bc.w, bc.maxLen, found, err)
				}
				work += e.Stats.Probes + e.Stats.StoreOps
			}
			reportPerProbe(b, work)
		})
	}
}

// reportPerProbe reports the elapsed time per engine work operation
// (probe or store insert): the cost of one lookup or insert in the scan
// kernels, apart from how many of them the search makes.
func reportPerProbe(b *testing.B, work int64) {
	if work > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(work), "ns/probe")
	}
}

// BenchmarkWeight4MTU is the kernel of the weights workload: 802.3's
// exact W4 = 223059 at the MTU length, 12112 data bits, in a fresh
// Evaluator. Its time is the weight-4 count's rows of pair keys, up to
// 12142 keys each, sieved against a store of up to 12143 keys, on
// GOMAXPROCS workers (-cpu 1 times the serial loop). The default
// sub-benchmark runs the sieve the host selects; on amd64, portable
// runs the count again with the vector kernel off, so the Go loop that
// every host without AVX-512 runs is measured here too.
func BenchmarkWeight4MTU(b *testing.B) {
	b.Run("default", benchWeight4MTU)
	runPortable(b, benchWeight4MTU)
}

func benchWeight4MTU(b *testing.B) {
	var work int64
	for i := 0; i < b.N; i++ {
		e := New(poly.IEEE8023)
		if w4, err := e.Weight(4, 12112); err != nil || w4 != 223059 {
			b.Fatalf("Weight(4, 12112) = %d, %v; want 223059", w4, err)
		}
		work += e.Stats.Probes + e.Stats.StoreOps
	}
	reportPerProbe(b, work)
}

// BenchmarkSieve times the row sieve alone, sieveBits against its
// portable loop sieveBitsGo, over a 32 KiB presence filter (the W4
// count's filter at the MTU length) filled as at 50% load: a map of
// 32768 slots holding 16384 random keys, two bits each. The rows are
// about as long as the longest of the §4.2 filter's 1024-bit stage
// (1055 keys) and of the W4 count at the MTU length (12143 keys).
// ns/key is the cost of testing one key.
func BenchmarkSieve(b *testing.B) {
	rng := rand.New(rand.NewPCG(22, 32))
	m := newU32Map(1 << 14)
	for m.n < 1<<14 {
		m.put(rng.Uint32(), 0)
	}
	bits := m.filter
	for _, l := range []int{1055, 12143} {
		keys := make([]uint32, l)
		for i := range keys {
			keys[i] = rng.Uint32()
		}
		out := make([]int32, l)
		for _, s := range []struct {
			name  string
			sieve func([]uint64, []uint32, uint32, uint32, []int32) []int32
		}{{"sieveBits", sieveBits}, {"sieveBitsGo", sieveBitsGo}} {
			b.Run(fmt.Sprintf("%s/%d", s.name, l), func(b *testing.B) {
				hits := 0
				for i := 0; i < b.N; i++ {
					hits += len(s.sieve(bits, keys, uint32(i), filterShift2, out))
				}
				if hits == 0 {
					b.Fatal("no key passed")
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*l), "ns/key")
			})
		}
	}
}
