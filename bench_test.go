package koopmancrc

// One benchmark per paper artifact (Table 1, Figure 1, Table 2, the §3/§4.1
// weight computations) plus ablations of every §4.1 search optimisation:
// early bailout, FCS-bits-first ordering, filtering with increasing
// lengths, and the filter-don't-count principle. The end-to-end workloads
// and their per-layer split are measured by paperbench (see
// paperbench/README.md).

import (
	"context"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"runtime"
	"testing"

	"koopmancrc/crchash"
	"koopmancrc/internal/core"
	"koopmancrc/internal/crc"
	"koopmancrc/internal/hamming"
	"koopmancrc/internal/paperdata"
	"koopmancrc/internal/poly"
)

// BenchmarkTable1ProfileColumn regenerates one Table 1 column per named
// polynomial at a reduced 2048-bit range (the full 131072-bit run lives in
// internal/paperdata's TestReproduceTable1 and cmd/crctables).
func BenchmarkTable1ProfileColumn(b *testing.B) {
	for _, col := range poly.Table1() {
		b.Run(col.P.String(), func(b *testing.B) {
			var work int64
			for i := 0; i < b.N; i++ {
				a := NewAnalyzer(col.P, WithMaxHD(10))
				if _, err := a.Evaluate(context.Background(), 2048); err != nil {
					b.Fatal(err)
				}
				work += a.Stats().Probes + a.Stats().StoreOps
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

// BenchmarkTable1FullColumnBA0DC66B is the paper's headline column at full
// range: HD=6 to 16360 and HD=4 to 114663 bits. One iteration performs the
// evaluation that §4.1 reports as "approximately 19 days" (confirming
// 16360) plus the rest of the column.
func BenchmarkTable1FullColumnBA0DC66B(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := NewAnalyzer(poly.Koopman32K).Evaluate(context.Background(), paperdata.MaxComputedBits)
		if err != nil {
			b.Fatal(err)
		}
		if l, _ := rep.MaxLenAtHD(6); l != 16360 {
			b.Fatalf("HD=6 bound %d", l)
		}
	}
}

// BenchmarkFigure1Series regenerates the Figure 1 step series (all eight
// polynomials) over a 1024-bit range.
func BenchmarkFigure1Series(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, col := range poly.Table1() {
			rep, err := NewAnalyzer(col.P, WithMaxHD(10)).Evaluate(context.Background(), 1024)
			if err != nil {
				b.Fatal(err)
			}
			for l := 64; l <= 1024; l *= 2 {
				if _, _, ok := rep.HDAt(l); !ok {
					b.Fatal("missing band")
				}
			}
		}
	}
}

// BenchmarkTable2CensusWidth12 is the scaled Table 2 analog: exhaustive
// search of a complete design space with census by factorization class.
func BenchmarkTable2CensusWidth12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Search(context.Background(), SearchConfig{
			Width: 12, MinHD: 5, Lengths: []int{16, 48},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Survivors) == 0 {
			b.Fatal("no survivors")
		}
	}
}

// BenchmarkWeightsW4MTU computes the §3 exact weight W4 = 223059 of the
// 802.3 polynomial at MTU length.
func BenchmarkWeightsW4MTU(b *testing.B) {
	var work int64
	for i := 0; i < b.N; i++ {
		ev := hamming.New(poly.IEEE8023)
		w4, err := ev.Weight(4, paperdata.MTUDataBits)
		if err != nil {
			b.Fatal(err)
		}
		if w4 != 223059 {
			b.Fatalf("W4 = %d", w4)
		}
		work += ev.Stats.Probes + ev.Stats.StoreOps
	}
	reportPerProbe(b, work)
}

// BenchmarkWeightsW4Breakpoint computes W4(2975) = 1, the §4.1 example.
func BenchmarkWeightsW4Breakpoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ev := hamming.New(poly.IEEE8023)
		if w4, err := ev.Weight(4, 2975); err != nil || w4 != 1 {
			b.Fatalf("W4 = %d, %v", w4, err)
		}
	}
}

// BenchmarkBreakpointScan is the §4.1 worked example, locating the
// 802.3 HD=5-to-4 breakpoint, on the weight-5 boundary (269 bits) inside
// [1, 16384]: the engine's one-pass scan grows the length a bit at a time
// and stops at the boundary, where the paper bisected with existence
// queries.
func BenchmarkBreakpointScan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ev := hamming.New(poly.IEEE8023)
		n, _, found, err := ev.FirstDataLen(5, 16384)
		if err != nil || !found || n != 269 {
			b.Fatalf("boundary %d %v %v", n, found, err)
		}
	}
}

// Early bailout (§4.1): existence with early exit versus computing the
// exact weight, on the paper-faithful enumeration engine.
func BenchmarkEarlyBailoutExists(b *testing.B) {
	ev := hamming.New(poly.CCITT16)
	for i := 0; i < b.N; i++ {
		if _, found, err := ev.ExistsBrute(4, 64, hamming.OrderLex); err != nil || !found {
			b.Fatalf("%v %v", found, err)
		}
	}
}

// BenchmarkFullWeightNoBailout is the same question answered by full
// weight computation — what early bailout avoids.
func BenchmarkFullWeightNoBailout(b *testing.B) {
	ev := hamming.New(poly.CCITT16)
	for i := 0; i < b.N; i++ {
		w, err := ev.WeightBrute(4, 64)
		if err != nil || w == 0 {
			b.Fatalf("%d %v", w, err)
		}
	}
}

// FCS-bits-first ordering (§4.1): time to the first undetectable pattern
// with and without the heuristic.
func BenchmarkOrderFCSFirst(b *testing.B) {
	ev := hamming.New(poly.CCITT16)
	for i := 0; i < b.N; i++ {
		if _, found, err := ev.ExistsBrute(4, 192, hamming.OrderFCSFirst); err != nil || !found {
			b.Fatalf("%v %v", found, err)
		}
	}
}

// BenchmarkOrderLexicographic is the unordered baseline.
func BenchmarkOrderLexicographic(b *testing.B) {
	ev := hamming.New(poly.CCITT16)
	for i := 0; i < b.N; i++ {
		if _, found, err := ev.ExistsBrute(4, 192, hamming.OrderLex); err != nil || !found {
			b.Fatalf("%v %v", found, err)
		}
	}
}

// Inverse filtering asymmetry (§4.1): rejecting "HD=6 at 16361" via the
// first undetectable weight-4 pattern versus confirming "no weight-5
// pattern at 8192" exactly. The paper's analog: 7.4 seconds versus 19 days
// on 2001 hardware.
func BenchmarkInverseRejectHD6At16361(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ev := hamming.New(poly.Koopman32K)
		ok, err := ev.MeetsHDAtLengths([]int{16361}, 6)
		if err != nil || ok {
			b.Fatalf("%v %v", ok, err)
		}
	}
}

// BenchmarkInverseConfirmNoW5At8192 pays the full no-early-exit cost.
func BenchmarkInverseConfirmNoW5At8192(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ev := hamming.New(poly.Koopman32K)
		if _, _, found, err := ev.FirstDataLen(5, 8192); err != nil || found {
			b.Fatalf("%v %v", found, err)
		}
	}
}

// BenchmarkPipelineShardFanout measures the intra-machine worker-pool
// fan-out against the old sequential path on a fixed slice of the
// width-16 space: the sequential RunShard baseline, then Run at 1, 4 and
// GOMAXPROCS workers. The 1-worker case bounds the refactor's overhead
// (it degenerates to RunShard); the others track the multicore speedup
// each dist worker also inherits.
func BenchmarkPipelineShardFanout(b *testing.B) {
	space, err := core.NewSpace(16)
	if err != nil {
		b.Fatal(err)
	}
	lengths := []int{24, 64}
	const start, end = 1024, 1024 + 4096
	b.Run("sequential", func(b *testing.B) {
		pl := &core.Pipeline{Space: space, Lengths: lengths, MinHD: 5}
		for i := 0; i < b.N; i++ {
			res, err := pl.RunShard(context.Background(), start, end)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Rate(), "polys/s")
		}
	})
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pl := &core.Pipeline{Space: space, Lengths: lengths, MinHD: 5, Workers: workers}
			for i := 0; i < b.N; i++ {
				res, err := pl.Run(context.Background(), start, end)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Rate(), "polys/s")
			}
		})
	}
}

// BenchmarkFilterThroughput32 measures the §4.2 metric: 32-bit candidates
// filtered per second for HD>4 at MTU length using the increasing-length
// schedule (the paper sustained ~2 polynomials/s/CPU in 2001). Most
// candidates die at 64 bits, exactly as the schedule intends.
func BenchmarkFilterThroughput32(b *testing.B) {
	space, err := core.NewSpace(32)
	if err != nil {
		b.Fatal(err)
	}
	pl := &core.Pipeline{
		Space:   space,
		Lengths: []int{64, 256, 1024, paperdata.MTUDataBits},
		MinHD:   5,
	}
	rng := rand.New(rand.NewPCG(7, 11))
	b.ResetTimer()
	count := 0
	for i := 0; i < b.N; i++ {
		start := rng.Uint64N(space.TotalPolynomials() - 64)
		res, err := pl.Run(context.Background(), start, start+64)
		if err != nil {
			b.Fatal(err)
		}
		count += int(res.Canonical)
	}
	b.ReportMetric(float64(count)/b.Elapsed().Seconds(), "polys/s")
}

// BenchmarkFilterThroughputBrute32 is the same filter run on the
// paper-faithful enumeration engine with FCS-first ordering — the closest
// analog of the paper's actual inner loop (short lengths only; the fast
// engine takes over beyond them). It walks 16 canonical candidates per
// op on the calling goroutine.
func BenchmarkFilterThroughputBrute32(b *testing.B) {
	space, err := core.NewSpace(32)
	if err != nil {
		b.Fatal(err)
	}
	lengths := []int{64, 256}
	rng := rand.New(rand.NewPCG(13, 17))
	b.ResetTimer()
	count := 0
	for i := 0; i < b.N; i++ {
		start := rng.Uint64N(space.TotalPolynomials() - 16)
		var runErr error
		n, err := space.Enumerate(start, start+16, func(p poly.P) bool {
			ev := hamming.New(p)
			for _, l := range lengths {
				ok, err := ev.MeetsHDBrute(l, 5, hamming.OrderFCSFirst)
				if err != nil {
					runErr = err
					return false
				}
				if !ok {
					break
				}
			}
			return true
		})
		if err == nil {
			err = runErr
		}
		if err != nil {
			b.Fatal(err)
		}
		count += int(n)
	}
	b.ReportMetric(float64(count)/b.Elapsed().Seconds(), "polys/s")
}

// BenchmarkCRCThroughput compares the checksum engines against hash/crc32
// on 64 KiB buffers; the paper's three polynomials through the hardware
// engine at one Ethernet MTU frame (1514 bytes), IEEE and Castagnoli
// beside hash/crc32 and CRC-32K beside slicing-by-16; and CRC-32K at
// 64 KiB and at the short lengths of 16 and 48 bytes.
func BenchmarkCRCThroughput(b *testing.B) {
	data := make([]byte, 64<<10)
	rng := rand.New(rand.NewPCG(3, 5))
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	bitwise := crc.NewBitwise(crc.CRC32IEEE)
	table, err := crc.NewTable(crc.CRC32IEEE)
	if err != nil {
		b.Fatal(err)
	}
	slicing16, err := crc.NewSlicing16(crc.CRC32IEEE)
	if err != nil {
		b.Fatal(err)
	}
	hardware, err := crc.NewHardware(crc.CRC32IEEE)
	if err != nil {
		b.Fatal(err)
	}
	stdTab := crc32.MakeTable(crc32.IEEE)
	type row struct {
		name string
		data []byte
		tab  *crc32.Table // hash/crc32's table for the expected value
		fn   func([]byte) uint32
	}
	engines := []row{
		{"bitwise", data, stdTab, bitwise.Checksum},
		{"table", data, stdTab, table.Checksum},
		{"slicing16", data, stdTab, slicing16.Checksum},
		{"hardware", data, stdTab, hardware.Checksum},
		{"stdlib", data, stdTab, func(d []byte) uint32 { return crc32.Checksum(d, stdTab) }},
	}
	castTab := crc32.MakeTable(crc32.Castagnoli)
	castHW, err := crc.NewHardware(crc.CRC32C)
	if err != nil {
		b.Fatal(err)
	}
	mtu := data[:1514]
	engines = append(engines,
		row{"ieee-hardware-1514", mtu, stdTab, hardware.Checksum},
		row{"ieee-stdlib-1514", mtu, stdTab, func(d []byte) uint32 { return crc32.Checksum(d, stdTab) }},
		row{"castagnoli-hardware-1514", mtu, castTab, castHW.Checksum},
		row{"castagnoli-stdlib-1514", mtu, castTab, func(d []byte) uint32 { return crc32.Checksum(d, castTab) }},
	)
	koopTab := crc32.MakeTable(crc32.Koopman)
	koopHW, err := crc.NewHardware(crc.CRC32K)
	if err != nil {
		b.Fatal(err)
	}
	koopS16, err := crc.NewSlicing16(crc.CRC32K)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{16, 48, 1514, 64 << 10} {
		engines = append(engines,
			row{fmt.Sprintf("crc32k-hardware-%d", n), data[:n], koopTab, koopHW.Checksum},
			row{fmt.Sprintf("crc32k-slicing16-%d", n), data[:n], koopTab, koopS16.Checksum},
		)
	}
	for _, e := range engines {
		b.Run(e.name, func(b *testing.B) {
			want := crc32.Checksum(e.data, e.tab)
			b.SetBytes(int64(len(e.data)))
			for i := 0; i < b.N; i++ {
				if e.fn(e.data) != want {
					b.Fatal("checksum mismatch")
				}
			}
		})
	}
}

// newEngineSink keeps BenchmarkNewEngine's engines live.
var newEngineSink crchash.Engine

// BenchmarkNewEngine times crchash.New, Kind Auto's engine build, for
// each of the paper's three polynomials: the whole set-up of
// paperbench's checksum workload.
func BenchmarkNewEngine(b *testing.B) {
	for _, p := range []crchash.Params{crchash.CRC32IEEE, crchash.CRC32C, crchash.CRC32K} {
		b.Run(p.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				newEngineSink = crchash.New(p)
			}
		})
	}
}

// BenchmarkSelectSession is the v1-API acceptance benchmark: ranking the
// paper's §4.3 contenders at the iSCSI 512-byte storage-block length
// (4496 data bits) through cached Analyzer sessions versus a fresh
// session per candidate per call. The per-call path re-pays every
// boundary scan on every invocation; the session path pays once and
// answers every repeat from the memo — the probes/op metric (work
// actually done by the Hamming engine) makes the difference visible
// even at -benchtime=1x.
func BenchmarkSelectSession(b *testing.B) {
	candidates := []Polynomial{IEEE8023, CastagnoliISCSI, Koopman32K}
	const dataLen = 4496 // iSCSI 512-byte block (paper §4.3)
	const maxHD = 6

	b.Run("independent-calls", func(b *testing.B) {
		// Throwaway state per call: a fresh session per candidate per
		// call, instrumented so the discarded work is countable.
		var probes int64
		for i := 0; i < b.N; i++ {
			for _, p := range candidates {
				a := NewAnalyzer(p, WithMaxHD(maxHD))
				if _, err := SelectAnalyzers(context.Background(), []*Analyzer{a}, dataLen, WithMaxHD(maxHD)); err != nil {
					b.Fatal(err)
				}
				probes += a.Stats().Probes
			}
		}
		b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
	})
	b.Run("cached-sessions", func(b *testing.B) {
		analyzers := make([]*Analyzer, len(candidates))
		for i, p := range candidates {
			analyzers[i] = NewAnalyzer(p, WithMaxHD(maxHD))
		}
		for i := 0; i < b.N; i++ {
			if _, err := SelectAnalyzers(context.Background(), analyzers, dataLen, WithMaxHD(maxHD)); err != nil {
				b.Fatal(err)
			}
		}
		var probes int64
		for _, a := range analyzers {
			probes += a.Stats().Probes
		}
		b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
	})
}

// BenchmarkPeriodComputation times the algebraic period machinery
// (factorization + order), which backs every weight-2 boundary.
func BenchmarkPeriodComputation(b *testing.B) {
	cols := poly.Table1()
	for i := 0; i < b.N; i++ {
		p := cols[i%len(cols)].P
		if _, err := p.Period(); err != nil {
			b.Fatal(err)
		}
	}
}
