package hamming

import (
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
	if work > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(work), "ns/probe")
	}
}
