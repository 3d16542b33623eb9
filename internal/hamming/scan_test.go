package hamming

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"koopmancrc/internal/poly"
)

// bruteBoundary is the smallest data length in [1, maxLen] holding a
// weight-w pattern, by bisection over the brute-force engine (existence
// is monotone in length); 0 if none fits.
func bruteBoundary(t *testing.T, e *Evaluator, w, maxLen int) int {
	t.Helper()
	exists := func(n int) bool {
		_, found, err := e.ExistsBrute(w, n, OrderLex)
		if err != nil {
			t.Fatal(err)
		}
		return found
	}
	if !exists(maxLen) {
		return 0
	}
	lo, hi := 0, maxLen // no pattern at lo (0 = vacuous), one at hi
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; exists(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// checkBoundaryWitness asserts a reported boundary's witness is a
// weight-w pattern whose largest position is the boundary's last
// codeword bit.
func checkBoundaryWitness(t *testing.T, e *Evaluator, w, dataLen int, wit []int) {
	t.Helper()
	n := e.codewordLen(dataLen)
	e.syndromes(n) // the weight-2 boundary comes from the period, not a scan
	if err := e.verifyWitness(w, n, wit); err != nil {
		t.Fatal(err)
	}
	if wit[0] != 0 || wit[w-1] != n-1 {
		t.Fatalf("witness %v does not span the %d-bit boundary codeword", wit, n)
	}
}

// TestScanMatchesBruteAndDual cross-checks the boundary scans against
// the two references, neither of which shares code with probe. Brute
// force checks boundaries on random generators of 8..16 bits to 40 data
// bits at weights 2..8, and of 21..24 bits to 64 bits at weights 2..6,
// where the scan keeps its store in the compact hash set instead of the
// bitmap. The random generators include ones with lower-weight patterns
// inside the range, whose degenerate store hits the scan must resolve
// away. Existence queries, the HD and MeetsHDAtLengths, which run on the
// same scans, must agree with those boundaries at lengths on both sides of each. The dual-code
// oracle then checks every boundary at weights 2..8, and the exact
// counts of Weight, on random 8..24-bit generators, half of them
// divisible by (x+1), to 4000 data bits, far past what enumeration
// reaches.
func TestScanMatchesBruteAndDual(t *testing.T) {
	brute, dual := scanCheckPolys()
	for _, c := range brute {
		checkScanAgainstBrute(t, c.p, c.maxLen, c.maxHD)
	}
	for _, p := range dual {
		checkScanAgainstDual(t, p, 4000)
	}
}

// bruteCheck is one generator of TestScanMatchesBruteAndDual's
// brute-force checks, with the data length and weight they reach.
type bruteCheck struct {
	p             poly.P
	maxLen, maxHD int
}

// scanCheckPolys draws TestScanMatchesBruteAndDual's generators from its
// fixed seed: those checked by brute force, and the 8..24-bit ones
// checked against the dual-code oracle, every other one divisible by
// (x+1).
func scanCheckPolys() (brute []bruteCheck, dual []poly.P) {
	rng := rand.New(rand.NewPCG(1313, 13))
	for _, tc := range []struct{ minWidth, maxWidth, maxLen, maxHD, trials int }{
		{8, 16, 40, 8, 24},
		{21, 24, 64, 6, 6},
	} {
		for trial := 0; trial < tc.trials; trial++ {
			p := randPoly(rng, tc.minWidth+int(rng.Uint64N(uint64(tc.maxWidth-tc.minWidth+1))))
			brute = append(brute, bruteCheck{p, tc.maxLen, tc.maxHD})
		}
	}
	for i, width := range []int{8, 9, 11, 13, 16, 17, 19, 21, 22, 23, 24, 24} {
		p := randPoly(rng, width)
		for p.DivisibleByXPlus1() != (i%2 == 1) {
			p = randPoly(rng, width)
		}
		dual = append(dual, p)
	}
	return brute, dual
}

// checkScanAgainstBrute runs TestScanMatchesBruteAndDual's brute-force
// checks on one generator.
func checkScanAgainstBrute(t *testing.T, p poly.P, maxLen, maxHD int) {
	t.Helper()
	e := New(p)
	boundary := map[int]int{} // weight -> brute boundary, 0 if none
	lengths := map[int]bool{1: true, maxLen: true}
	for w := 2; w <= maxHD; w++ {
		got, wit, found, err := e.FirstDataLen(w, maxLen)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteBoundary(t, e, w, maxLen)
		if found != (want > 0) || (found && got != want) {
			t.Fatalf("%v w=%d: scan=(%d,%v), brute boundary %d", p, w, got, found, want)
		}
		if found {
			checkBoundaryWitness(t, e, w, got, wit)
			lengths[want] = true
			if want > 1 {
				lengths[want-1] = true
			}
		}
		boundary[w] = want
	}
	for n := range lengths {
		wantHD := maxHD + 1
		for w := maxHD; w >= 2; w-- {
			if b := boundary[w]; b > 0 && b <= n {
				wantHD = w
			}
			wit, found, err := exists(e, w, n)
			if err != nil {
				t.Fatal(err)
			}
			if b := boundary[w]; found != (b > 0 && b <= n) {
				t.Fatalf("%v exists(%d, %d) = %v, brute boundary %d", p, w, n, found, b)
			}
			if found {
				if err := e.verifyWitness(w, e.codewordLen(n), wit); err != nil {
					t.Fatal(err)
				}
			}
		}
		hd, exact, err := hdAt(e, n, maxHD)
		if err != nil {
			t.Fatal(err)
		}
		if hd != wantHD || exact != (wantHD <= maxHD) {
			t.Fatalf("%v hdAt(%d) = %d (exact %v), brute boundaries give %d", p, n, hd, exact, wantHD)
		}
		for _, minHD := range []int{wantHD, wantHD + 1} {
			if minHD > maxHD+1 {
				break // needs weights past the brute boundaries
			}
			ok, err := e.MeetsHDAtLengths([]int{n}, minHD)
			if err != nil {
				t.Fatal(err)
			}
			if ok != (minHD <= wantHD) {
				t.Fatalf("%v MeetsHDAtLengths({%d}, %d) = %v at HD %d", p, n, minHD, ok, wantHD)
			}
		}
	}
}

// TestScanStoreMigration forces the scan's store out of the compact set
// and into the whole-space bitmap partway through — early, and at the
// row before the boundary, where a pattern is found only if the move
// kept every earlier entry. The answers must not change, and the scan
// must give its compact set back to the pool.
func TestScanStoreMigration(t *testing.T) {
	rng := rand.New(rand.NewPCG(1414, 14))
	moves := 0
	for trial := 0; trial < 6; trial++ {
		p := randPoly(rng, 24) // above 20 bits the store starts compact
		compact := New(p)
		for w := 5; w <= 7; w++ {
			n1, wit1, f1, err := compact.FirstDataLen(w, 300)
			if err != nil {
				t.Fatal(err)
			}
			if !f1 {
				continue // odd weight of an (x+1) multiple
			}
			// The store passes this limit on row c-1 of the boundary c.
			c := compact.codewordLen(n1) - 1
			late := int(binomAtMost(c-2, (w-1)/2, 1<<62)) - 1
			for _, limit := range []int{64, late} {
				moved := New(p)
				moved.opts.maxStoreEntries = limit
				out := setsOut.Load()
				n2, wit2, f2, err := moved.FirstDataLen(w, 300)
				if setsOut.Load() != out {
					t.Fatalf("%v w=%d limit=%d: the scan kept its compact set after moving to the bitmap", p, w, limit)
				}
				if err != nil {
					t.Fatal(err)
				}
				if f1 != f2 || n1 != n2 || !equalInts(wit1, wit2) {
					t.Fatalf("%v w=%d limit=%d: compact=(%d,%v,%v), migrated=(%d,%v,%v)",
						p, w, limit, n1, f1, wit1, n2, f2, wit2)
				}
				if moved.bitmap == nil {
					t.Errorf("%v w=%d: a %d-entry store limit never moved into the bitmap", p, w, limit)
				}
				moves++
			}
		}
		if compact.bitmap != nil {
			t.Errorf("%v: compact store allocated the bitmap", p)
		}
	}
	if moves < 12 {
		t.Fatalf("only %d migrating scans ran", moves)
	}
}

// TestBucketSetReleaseClean fills a set of the size class of table1's
// w >= 5 stores (C(542, 2) entries, p = 2 at 512 data bits) twice, and
// releases it each time: first with a few hundred keys, as a scan that
// stops early leaves it, where release clears the buckets filled one by
// one, then to capacity, where it clears the whole filter and counts.
// Key 0 and repeated keys are among the keys. After each release, the
// set and the set the pool hands out next for the same size must have
// every filter word and count zero, and neither has nor sieve may find
// any of the keys put.
func TestBucketSetReleaseClean(t *testing.T) {
	entries := int(binomAtMost(542, 2, 1<<62))
	rng := rand.New(rand.NewPCG(31, 16))
	for _, fill := range []int{300, entries} {
		s := getBucketSet(entries)
		keys := []uint32{0, 0, 7, 7, 7}
		for len(keys) < fill {
			keys = append(keys, rng.Uint32())
		}
		for _, k := range keys {
			s.add(k)
		}
		for _, k := range keys {
			if !s.has(k) {
				t.Fatalf("fill %d: key %#x put but not held", fill, k)
			}
		}
		if wide := len(s.touched) == cap(s.touched); wide != (fill == entries) {
			t.Fatalf("fill %d: %d buckets of %d recorded as filled, so release clears all: %v",
				fill, len(s.touched), cap(s.touched), wide)
		}
		s.release()
		checkBucketSetClean(t, fmt.Sprintf("fill %d, released", fill), s, keys)
		next := getBucketSet(entries)
		checkBucketSetClean(t, fmt.Sprintf("fill %d, taken again", fill), next, keys)
		next.release()
	}
}

// TestBoundaryScansConcurrent runs the w = 5 and w = 6 scans to 512
// data bits of the Table 1 generators, CastagnoliHD5 and
// KoopmanSparse6 from 4 goroutines at once, each scan in a fresh
// Evaluator of its goroutine's own, so the compact sets pass between
// goroutines through the shared pools. Every answer, witness and
// Stats must equal a serial run's, and every set must come back.
func TestBoundaryScansConcurrent(t *testing.T) {
	type result struct {
		n     int
		wit   []int
		found bool
		stats Stats
	}
	polys := []poly.P{poly.CastagnoliHD5, poly.KoopmanSparse6}
	for _, col := range poly.Table1() {
		polys = append(polys, col.P)
	}
	run := func(i int) (result, error) {
		e := New(polys[i/2])
		n, wit, found, err := e.FirstDataLen(5+i%2, 512)
		return result{n, wit, found, e.Stats}, err
	}
	want := make([]result, 2*len(polys))
	for i := range want {
		r, err := run(i)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	out := setsOut.Load()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 2*len(want); j++ {
				i := (j + 5*g) % len(want) // the goroutines run different scans at once
				got, err := run(i)
				if err != nil || !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d: %v w=%d: %+v, %v; serial %+v", g, polys[i/2], 5+i%2, got, err, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := setsOut.Load(); got != out {
		t.Errorf("%d compact sets out after the scans, want %d", got, out)
	}
}

// TestBoundaryScanAllocs: once a first scan has put its compact set in
// the pool, the w = 5 scan of CastagnoliHD5 to 512 data bits, which
// fills a set of C(542, 2) entries (2.5 MiB), allocates under 1 MiB a
// run on average over 20 runs, each in a fresh Evaluator: the set comes
// back from the pool. Under the race detector sync.Pool drops some of
// the values put back, so the test does not run there.
func TestBoundaryScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops values at random under the race detector")
	}
	scan := func() {
		if _, _, found, err := New(poly.CastagnoliHD5).FirstDataLen(5, 512); err != nil || found {
			t.Fatalf("FirstDataLen(5, 512) found %v, %v; want none", found, err)
		}
	}
	scan()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for i := 0; i < runs; i++ {
		scan()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1<<20 {
		t.Fatalf("%d bytes allocated a scan, want under 1 MiB", per)
	}
}

// checkBucketSetClean asserts that s is as a new set is: no filter bit
// or bucket count set, no filled bucket recorded, and none of keys
// found by has or by a sieve of them.
func checkBucketSetClean(t *testing.T, name string, s *bucketSet, keys []uint32) {
	t.Helper()
	for i, w := range s.filter {
		if w != 0 {
			t.Fatalf("%s: filter word %d is %#x", name, i, w)
		}
	}
	for b, c := range s.counts {
		if c != 0 {
			t.Fatalf("%s: bucket %d holds %d keys", name, b, c)
		}
	}
	if len(s.touched) != 0 {
		t.Fatalf("%s: %d filled buckets recorded", name, len(s.touched))
	}
	for _, k := range keys {
		if s.has(k) {
			t.Fatalf("%s: has(%#x)", name, k)
		}
	}
	if hits := s.sieve(keys, hashRow(keys), 0, make([]int32, len(keys))); len(hits) != 0 {
		t.Fatalf("%s: the sieve passed %d keys, key %#x first", name, len(hits), keys[hits[0]])
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestScanCancelAndBudget stops a weight-6 scan (802.3, boundary at 172
// bits, about 1.4M probes) partway through, by the cancel hook and by
// the probe budget. Both scans must give their compact sets back.
func TestScanCancelAndBudget(t *testing.T) {
	out := setsOut.Load()
	defer func() {
		if got := setsOut.Load(); got != out {
			t.Errorf("%d compact sets out after the stopped scans, want %d", got, out)
		}
	}()
	polls := 0
	canceled := New(poly.IEEE8023, WithCancel(func() bool {
		polls++
		return polls > 1 // let the query start, stop it at the first in-scan poll
	}))
	if _, _, _, err := canceled.FirstDataLen(6, 512); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled scan: %v, want ErrCanceled", err)
	}
	if canceled.Stats.Probes == 0 {
		t.Error("cancel fired before the scan probed anything")
	}

	tight := New(poly.IEEE8023, WithMaxProbes(100000))
	if _, _, _, err := tight.FirstDataLen(6, 512); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("budget-capped scan: %v, want ErrBudgetExceeded", err)
	}
	if tight.Stats.Probes == 0 {
		t.Error("budget tripped before the scan probed anything")
	}
}

// TestProfile32BitNoBitmap: the reduced Table 1 (512 bits, HD <= 6) never
// allocates the 512 MiB whole-space bitmap for a 32-bit generator.
func TestProfile32BitNoBitmap(t *testing.T) {
	for _, col := range poly.Table1() {
		e := New(col.P)
		column(t, e, 512, 6)
		if e.bitmap != nil {
			t.Errorf("%v: the column to 512 bits at HD <= 6 allocated the whole-space bitmap", col.P)
		}
	}
}

// TestParityShortcutMatchesBrute checks the fast engine's odd-weight
// answers for generators divisible by (x+1) against the brute-force
// engine, which enumerates rather than assuming the parity argument.
func TestParityShortcutMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewPCG(1515, 15))
	for trial := 0; trial < 10; trial++ {
		p := xp1Poly(rng, 8)
		e := New(p)
		for _, n := range []int{3, 9, 16} {
			for w := 2; w <= 7; w++ {
				count, err := e.WeightBrute(w, n)
				if err != nil {
					t.Fatal(err)
				}
				_, found, err := exists(e, w, n)
				if err != nil {
					t.Fatal(err)
				}
				if found != (count > 0) {
					t.Fatalf("%v w=%d n=%d: exists=%v brute=%d", p, w, n, found, count)
				}
				if w%2 == 0 {
					continue
				}
				if got, err := e.Weight(w, n); err != nil || got != count {
					t.Fatalf("%v W%d(%d) = %d, %v; brute %d", p, w, n, got, err, count)
				}
				if _, _, found, err := e.FirstDataLen(w, n); err != nil || found {
					t.Fatalf("%v FirstDataLen(%d, %d) found=%v, %v", p, w, n, found, err)
				}
			}
		}
	}
}

// TestScanProbeCounts pins the exact Stats of the scans the benchmark's
// workloads and the package's benchmarks run, so a change that makes a
// scan probe or store a different set of keys fails here, not only in
// a benchmark's probe count. The weights case is 802.3's W2..W4 at the
// MTU length in one Evaluator, as the weights workload runs it: its
// Probes + StoreOps, 73,756,582, is that workload's engine_probes. The
// boundary cases are BenchmarkBoundaryStore's two scans, and the filter
// cases two 32-bit candidates of the §4.2 increasing-length check, one
// rejected at its first weight-4 pattern and one that passes all three
// lengths.
func TestScanProbeCounts(t *testing.T) {
	check := func(name string, e *Evaluator, want Stats) {
		t.Helper()
		if e.Stats != want {
			t.Errorf("%s: Stats = %+v, want %+v", name, e.Stats, want)
		}
	}
	e := New(poly.IEEE8023)
	for _, c := range []struct {
		w    int
		want uint64
	}{{2, 0}, {3, 0}, {4, 223059}} {
		if got, err := e.Weight(c.w, 12112); err != nil || got != c.want {
			t.Fatalf("802.3 W%d(12112) = %d, %v; want %d", c.w, got, err, c.want)
		}
	}
	check("802.3 Weight(2..4, 12112)", e, Stats{Probes: 73732296, StoreOps: 24286})

	for _, bc := range []struct {
		name      string
		p         poly.P
		w, maxLen int
		found     bool
		want      Stats
	}{
		{"store-bound", poly.CastagnoliHD5, 5, 512, false, Stats{Probes: 147153, StoreOps: 146611}},
		{"early-exit", poly.KoopmanSparse6, 6, 512, true, Stats{Probes: 4554, StoreOps: 465, EarlyExits: 1, Resolutions: 1}},
	} {
		e := New(bc.p)
		if _, _, found, err := e.FirstDataLen(bc.w, bc.maxLen); err != nil || found != bc.found {
			t.Fatalf("%s: FirstDataLen(%d, %d): found = %v, err = %v", bc.name, bc.w, bc.maxLen, found, err)
		}
		check(bc.name, e, bc.want)
	}

	for _, bc := range []struct {
		koopman uint64
		meets   bool
		want    Stats
	}{
		{0xEE3544BF, false, Stats{Probes: 115682, EarlyExits: 1}},
		{0xBCAFF2C9, true, Stats{Probes: 602931}},
	} {
		e := New(poly.MustKoopman(32, bc.koopman))
		if ok, err := e.MeetsHDAtLengths([]int{64, 256, 1024}, 5); err != nil || ok != bc.meets {
			t.Fatalf("%#x: MeetsHDAtLengths = %v, %v; want %v", bc.koopman, ok, err, bc.meets)
		}
		check(fmt.Sprintf("%#x MeetsHDAtLengths({64, 256, 1024}, 5)", bc.koopman), e, bc.want)
	}
}
