package hamming

import (
	"errors"
	"fmt"
	"math/rand/v2"
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
// away. Exists, HDAt and MeetsHD, which run on the same scans, must agree
// with those boundaries at lengths on both sides of each. The dual-code
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
			wit, found, err := e.Exists(w, n)
			if err != nil {
				t.Fatal(err)
			}
			if b := boundary[w]; found != (b > 0 && b <= n) {
				t.Fatalf("%v Exists(%d, %d) = %v, brute boundary %d", p, w, n, found, b)
			}
			if found {
				if err := e.verifyWitness(w, e.codewordLen(n), wit); err != nil {
					t.Fatal(err)
				}
			}
		}
		hd, exact, err := e.HDAt(n, maxHD)
		if err != nil {
			t.Fatal(err)
		}
		if hd != wantHD || exact != (wantHD <= maxHD) {
			t.Fatalf("%v HDAt(%d) = %d (exact %v), brute boundaries give %d", p, n, hd, exact, wantHD)
		}
		for _, minHD := range []int{wantHD, wantHD + 1} {
			if minHD > maxHD+1 {
				break // needs weights past the brute boundaries
			}
			ok, err := e.MeetsHD(n, minHD)
			if err != nil {
				t.Fatal(err)
			}
			if ok != (minHD <= wantHD) {
				t.Fatalf("%v MeetsHD(%d, %d) = %v at HD %d", p, n, minHD, ok, wantHD)
			}
		}
	}
}

// TestScanStoreMigration forces the scan's store out of the compact set
// and into the whole-space bitmap partway through — early, and at the
// row before the boundary, where a pattern is found only if the move
// kept every earlier entry. The answers must not change.
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
				moved := New(p, WithMaxStoreEntries(limit))
				n2, wit2, f2, err := moved.FirstDataLen(w, 300)
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

// TestReserveRow drives the w >= 5 scan's store sizing through every
// row c of a w=5, a w=6 and a w=7 scan to 544 data bits (p = 2, 2 and
// 3 stored positions), with the default store
// limit and with one the store passes midway (the scan moves to the
// bitmap there, so the rows after it are not sized). Each row then puts
// its C(c-2, p-1) new entries as distinct keys. Before a row's inserts
// the table must hold the C(c-1, p) entries it has after them at <= 50%
// load, so no insert grows it; a table that was rebuilt must hold the
// store at row min(2c, n), capped at the limit; and it is never sized
// beyond that store, nor past the limit.
func TestReserveRow(t *testing.T) {
	slotsFor := func(entries int64) int {
		sz := 16
		for int64(sz) < 2*entries {
			sz <<= 1
		}
		return sz
	}
	for _, w := range []int{5, 6, 7} {
		p := (w - 1) / 2
		n := 544 + 32
		for _, limit := range []int{DefaultMaxStoreEntries, 40000} {
			s := newMapSet()
			key := uint32(1)
			rows, rebuilds := 0, 0
			for c := 2; c < n; c++ {
				held := binomAtMost(c-1, p, 1<<62)
				if held > int64(limit) {
					break
				}
				before := len(s.m.keys)
				reserveRow(s.m, c, n, p, limit)
				sz := len(s.m.keys)
				ahead := min(binomAtMost(min(2*c, n)-1, p, 1<<62), int64(limit))
				switch {
				case 2*held > int64(sz):
					t.Fatalf("w=%d limit=%d row %d: %d slots for the %d entries after the row", w, limit, c, sz, held)
				case sz > slotsFor(ahead):
					t.Fatalf("w=%d limit=%d row %d: %d slots, past the %d of the store at row %d (%d entries)",
						w, limit, c, sz, slotsFor(ahead), min(2*c, n), ahead)
				case sz > slotsFor(int64(limit)):
					t.Fatalf("w=%d limit=%d row %d: %d slots, past the limit's %d", w, limit, c, sz, slotsFor(int64(limit)))
				case sz != before && 2*ahead > int64(sz):
					t.Fatalf("w=%d limit=%d row %d: rebuilt to %d slots, short of the %d entries at row %d",
						w, limit, c, sz, ahead, min(2*c, n))
				}
				if sz != before {
					rebuilds++
				}
				for i := binomAtMost(c-2, p-1, 1<<62); i > 0; i-- {
					s.add(key)
					key++
				}
				if len(s.m.keys) != sz || int64(s.m.n) != held {
					t.Fatalf("w=%d limit=%d row %d: inserts took %d slots to %d; %d entries, want %d",
						w, limit, c, sz, len(s.m.keys), s.m.n, held)
				}
				rows++
			}
			if rows < 50 || rebuilds < 3 {
				t.Fatalf("w=%d limit=%d: %d rows and %d rebuilds checked", w, limit, rows, rebuilds)
			}
			t.Logf("w=%d limit=%d: %d rows, %d rebuilds, %d slots at the end", w, limit, rows, rebuilds, len(s.m.keys))
		}
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
// the probe budget.
func TestScanCancelAndBudget(t *testing.T) {
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
		if _, err := e.Profile(512, 6); err != nil {
			t.Fatal(err)
		}
		if e.bitmap != nil {
			t.Errorf("%v: Profile(512, 6) allocated the whole-space bitmap", col.P)
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
				_, found, err := e.Exists(w, n)
				if err != nil {
					t.Fatal(err)
				}
				if found != (count > 0) {
					t.Fatalf("%v w=%d n=%d: Exists=%v brute=%d", p, w, n, found, count)
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
