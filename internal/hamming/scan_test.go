package hamming

import (
	"errors"
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
	if err := e.verifyWitness(w, n, wit); err != nil {
		t.Fatal(err)
	}
	if wit[0] != 0 || wit[w-1] != n-1 {
		t.Fatalf("witness %v does not span the %d-bit boundary codeword", wit, n)
	}
}

// TestScanMatchesDirectAndBrute cross-checks the incremental boundary
// scan against the §4.1 direct search and a brute-force boundary on
// random 8..16-bit generators, weights 5..8 — including generators with
// lower-weight patterns inside the range, whose degenerate store hits
// the scan must resolve away.
func TestScanMatchesDirectAndBrute(t *testing.T) {
	rng := rand.New(rand.NewPCG(1313, 13))
	const maxLen = 40
	for trial := 0; trial < 24; trial++ {
		p := randPoly(rng, 8+int(rng.Uint64N(9)))
		e := New(p)
		for w := 5; w <= 8; w++ {
			got, wit, found, err := e.FirstDataLen(w, maxLen)
			if err != nil {
				t.Fatal(err)
			}
			direct, _, dfound, err := e.FirstDataLenStrategy(w, maxLen, StrategyDirect)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteBoundary(t, e, w, maxLen)
			if found != (want > 0) || (found && got != want) {
				t.Fatalf("%v w=%d: scan=(%d,%v), brute boundary %d", p, w, got, found, want)
			}
			if dfound != found || direct != got {
				t.Fatalf("%v w=%d: scan=(%d,%v), direct=(%d,%v)", p, w, got, found, direct, dfound)
			}
			if found {
				checkBoundaryWitness(t, e, w, got, wit)
			}
		}
	}
}

// TestScanTable1Polynomials checks the scan against the paper's
// increasing-lengths search for every Table 1 generator to 512 bits,
// HD <= 6.
func TestScanTable1Polynomials(t *testing.T) {
	for _, col := range poly.Table1() {
		e := New(col.P)
		for w := 5; w <= 6; w++ {
			got, wit, found, err := e.FirstDataLen(w, 512)
			if err != nil {
				t.Fatal(err)
			}
			want, _, wfound, err := e.FirstDataLenStrategy(w, 512, StrategyIncreasing)
			if err != nil {
				t.Fatal(err)
			}
			if found != wfound || got != want {
				t.Fatalf("%v w=%d: scan=(%d,%v), increasing=(%d,%v)", col.P, w, got, found, want, wfound)
			}
			if found {
				checkBoundaryWitness(t, e, w, got, wit)
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
