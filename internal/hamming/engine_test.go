package hamming

import (
	"errors"
	"maps"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"koopmancrc/internal/gf2"
	"koopmancrc/internal/poly"
)

// randPoly returns a random generator polynomial of the given width.
func randPoly(rng *rand.Rand, width int) poly.P {
	for {
		k := rng.Uint64N(1<<uint(width)) | 1<<uint(width-1)
		p, err := poly.FromKoopman(width, k)
		if err == nil {
			return p
		}
	}
}

// xp1Poly returns a random width-bit generator divisible by (x+1).
func xp1Poly(rng *rand.Rand, width int) poly.P {
	for {
		g := gf2.Poly(rng.Uint64N(1<<uint(width-1))) | 1<<uint(width-1) | 1
		full := gf2.Mul(g, gf2.XPlus1)
		if full.Deg() != width || full&1 == 0 {
			continue
		}
		p, err := poly.FromFull(full)
		if err == nil {
			return p
		}
	}
}

// exists asks FirstDataLen whether a weight-w pattern fits at dataLen:
// a pattern that fits at one length fits at every longer one.
func exists(e *Evaluator, w, dataLen int) ([]int, bool, error) {
	_, wit, found, err := e.FirstDataLen(w, dataLen)
	return wit, found, err
}

// hdAt is the Hamming distance at dataLen: the smallest weight up to
// maxHD with a pattern there, or maxHD+1 with exact false if none has.
func hdAt(e *Evaluator, dataLen, maxHD int) (hd int, exact bool, err error) {
	for w := 2; w <= maxHD; w++ {
		if _, found, err := exists(e, w, dataLen); err != nil || found {
			return w, found, err
		}
	}
	return maxHD + 1, false, nil
}

// column returns the weight boundaries of a Table 1 column to maxLen:
// weights 2..maxHD in turn, each FirstDataLen search capped below the
// smallest boundary found so far. A weight absent from the map has no
// pattern below that cap.
func column(t *testing.T, e *Evaluator, maxLen, maxHD int) map[int]int {
	t.Helper()
	first, limit := map[int]int{}, maxLen
	for w := 2; w <= maxHD && limit >= 1; w++ {
		n, _, found, err := e.FirstDataLen(w, limit)
		if err != nil {
			t.Fatal(err)
		}
		if found {
			first[w], limit = n, n-1
		}
	}
	return first
}

// maxLenAtHD is the largest length up to maxLen that no boundary of
// weight below hd reaches: where the column still has HD >= hd.
func maxLenAtHD(first map[int]int, maxLen, hd int) int {
	for w, n := range first {
		if w < hd {
			maxLen = min(maxLen, n-1)
		}
	}
	return maxLen
}

func TestExistsMatchesBruteForce8Bit(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 1))
	for trial := 0; trial < 40; trial++ {
		p := randPoly(rng, 8)
		e := New(p)
		for _, n := range []int{1, 2, 5, 9, 17, 24} {
			for w := 2; w <= 6; w++ {
				count, err := e.WeightBrute(w, n)
				if err != nil {
					t.Fatal(err)
				}
				wit, found, err := exists(e, w, n)
				if err != nil {
					t.Fatal(err)
				}
				if found != (count > 0) {
					t.Fatalf("%v w=%d n=%d: exists=%v but brute count=%d", p, w, n, found, count)
				}
				if found && len(wit) != w {
					t.Fatalf("%v: witness %v has wrong weight", p, wit)
				}
			}
		}
	}
}

func TestExistsMatchesBruteForce16Bit(t *testing.T) {
	rng := rand.New(rand.NewPCG(202, 2))
	for trial := 0; trial < 8; trial++ {
		p := randPoly(rng, 16)
		e := New(p)
		for _, n := range []int{3, 12, 25} {
			for w := 2; w <= 5; w++ {
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
			}
		}
	}
}

func TestExistsBruteMatchesFastEngine(t *testing.T) {
	rng := rand.New(rand.NewPCG(303, 3))
	for trial := 0; trial < 20; trial++ {
		p := randPoly(rng, 8)
		e := New(p)
		for _, order := range []Order{OrderLex, OrderFCSFirst} {
			for _, n := range []int{4, 11, 20} {
				for w := 2; w <= 5; w++ {
					wantWit, want, err := exists(e, w, n)
					if err != nil {
						t.Fatal(err)
					}
					_ = wantWit
					wit, got, err := e.ExistsBrute(w, n, order)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("%v w=%d n=%d order=%d: brute=%v fast=%v", p, w, n, order, got, want)
					}
					if got {
						if err := e.verifyWitness(w, e.codewordLen(n), wit); err != nil {
							t.Fatalf("brute witness invalid: %v", err)
						}
					}
				}
			}
		}
	}
}

func TestExactWeightsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(404, 4))
	every := make([]int, 40)
	for i := range every {
		every[i] = i + 1
	}
	// Random widths 4..9 at a few lengths, then 8- and 16-bit generators
	// at every length to 40 bits: the weight-4 pair scan must match the
	// brute count wherever W2 = 0 and refuse every length where W2 > 0.
	type trial struct {
		width   int
		lengths []int
	}
	var trials []trial
	for i := 0; i < 25; i++ {
		trials = append(trials, trial{4 + int(rng.Uint64N(6)), []int{1, 3, 8, 15, 22}})
	}
	for i := 0; i < 6; i++ {
		trials = append(trials, trial{8 + 8*(i%2), every})
	}
	refused := 0
	for _, tr := range trials {
		p := randPoly(rng, tr.width)
		e := New(p)
		for _, n := range tr.lengths {
			w2, err := e.Weight(2, n)
			if err != nil {
				t.Fatal(err)
			}
			for w := 2; w <= 4; w++ {
				want, err := e.WeightBrute(w, n)
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.Weight(w, n)
				if w == 4 && w2 > 0 {
					// The pair scan legitimately refuses lengths where
					// W2 > 0.
					if err == nil {
						t.Fatalf("%v W4(%d) = %d with W2 = %d, want the W2 > 0 error", p, n, got, w2)
					}
					refused++
					continue
				}
				if err != nil {
					t.Fatalf("%v W%d(%d): %v", p, w, n, err)
				}
				if got != want {
					t.Fatalf("%v W%d(%d) = %d, brute = %d", p, w, n, got, want)
				}
			}
		}
	}
	if refused == 0 {
		t.Error("no length with W2 > 0 exercised the W4 refusal")
	}
}

func TestFirstDataLenMatchesBruteScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(505, 5))
	const maxLen = 24
	for trial := 0; trial < 15; trial++ {
		p := randPoly(rng, 8)
		e := New(p)
		for w := 2; w <= 5; w++ {
			want := 0
			for n := 1; n <= maxLen; n++ {
				c, err := e.WeightBrute(w, n)
				if err != nil {
					t.Fatal(err)
				}
				if c > 0 {
					want = n
					break
				}
			}
			got, wit, found, err := e.FirstDataLen(w, maxLen)
			if err != nil {
				t.Fatal(err)
			}
			if (want == 0) == found {
				t.Fatalf("%v w=%d: found=%v want boundary %d", p, w, found, want)
			}
			if found && got != want {
				t.Fatalf("%v w=%d: FirstDataLen=%d, brute scan=%d (witness %v)", p, w, got, want, wit)
			}
		}
	}
}

func TestOddWeightsZeroForParityPolynomials(t *testing.T) {
	// Polynomials divisible by (x+1) detect all odd numbers of bit errors
	// (paper §3) — the first invariant of the paper's validation (§4.5).
	rng := rand.New(rand.NewPCG(707, 7))
	for trial := 0; trial < 15; trial++ {
		p := xp1Poly(rng, 8)
		e := New(p)
		for _, n := range []int{2, 7, 14, 21} {
			for _, w := range []int{3, 5} {
				count, err := e.WeightBrute(w, n)
				if err != nil {
					t.Fatal(err)
				}
				if count != 0 {
					t.Fatalf("%v divisible by x+1 but W%d(%d) = %d", p, w, n, count)
				}
			}
			if _, found, err := exists(e, 3, n); err != nil || found {
				t.Fatalf("%v: exists(3,%d) = %v, %v", p, n, found, err)
			}
		}
	}
}

func TestWeightsNonDecreasingInLength(t *testing.T) {
	// The second §4.5 invariant: weights never decrease as the data word
	// grows (every pattern at length n still fits at n+1).
	rng := rand.New(rand.NewPCG(808, 8))
	for trial := 0; trial < 10; trial++ {
		p := randPoly(rng, 8)
		e := New(p)
		for w := 2; w <= 4; w++ {
			prev := uint64(0)
			for n := 1; n <= 20; n++ {
				c, err := e.WeightBrute(w, n)
				if err != nil {
					t.Fatal(err)
				}
				if c < prev {
					t.Fatalf("%v W%d decreased from %d to %d at n=%d", p, w, prev, c, n)
				}
				prev = c
			}
		}
	}
}

func TestProfileConsistentWithHDAt(t *testing.T) {
	// The boundaries of a column, each search capped below the ones
	// before it, give the same HD at every length as a fresh pointwise
	// query there.
	rng := rand.New(rand.NewPCG(909, 9))
	for trial := 0; trial < 10; trial++ {
		p := randPoly(rng, 8)
		first := column(t, New(p), 30, 8)
		for _, n := range []int{1, 7, 15, 30} {
			want := 9
			for w, l := range first {
				if l <= n && w < want {
					want = w
				}
			}
			hd, exact, err := hdAt(New(p), n, 8)
			if err != nil {
				t.Fatal(err)
			}
			if hd != want || exact != (want <= 8) {
				t.Fatalf("%v n=%d: column %v gives HD=%d, hdAt gives %d (exact=%v)", p, n, first, want, hd, exact)
			}
		}
	}
}

func TestBudgetExceeded(t *testing.T) {
	e := New(poly.IEEE8023, WithMaxProbes(100))
	_, _, err := exists(e, 5, 4096)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if _, err := New(poly.IEEE8023, WithMaxProbes(100)).Weight(4, 1000); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("W4 err = %v, want ErrBudgetExceeded", err)
	}
	if _, err := New(poly.IEEE8023, WithMaxProbes(100)).WeightBrute(4, 1000); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("brute err = %v, want ErrBudgetExceeded", err)
	}
}

func TestInvalidArguments(t *testing.T) {
	e := New(poly.IEEE8023)
	if _, _, _, err := e.FirstDataLen(1, 10); err == nil {
		t.Error("FirstDataLen(1,...) should error")
	}
	if _, err := e.MeetsHDAtLengths([]int{64, 0}, 3); err == nil {
		t.Error("MeetsHDAtLengths at length 0 should error")
	}
	if _, err := e.Weight(2, 0); err == nil {
		t.Error("Weight(...,0) should error")
	}
	if _, err := e.Weight(5, 10); err == nil {
		t.Error("Weight(5,...) should error (exact weights limited to w<=4)")
	}
}

// TestWeightScanCancelAndBudget: the exact W2/W3/W4 scans honour the
// cancel hook and the probe budget like every other engine loop.
func TestWeightScanCancelAndBudget(t *testing.T) {
	// W2 runs on (x+1)(x^3+x+1), period 7. W3 needs a generator without
	// the (x+1) factor, x^4+x+1: with it, odd weights are answered 0
	// without a scan.
	polys := map[int]poly.P{}
	for w, full := range map[int]gf2.Poly{2: 0x1D, 3: 0x13} {
		p, err := poly.FromFull(full)
		if err != nil {
			t.Fatal(err)
		}
		polys[w] = p
	}
	for w := 2; w <= 3; w++ {
		canceled := New(polys[w], WithCancel(func() bool { return true }))
		if _, err := canceled.Weight(w, 10); !errors.Is(err, ErrCanceled) {
			t.Errorf("Weight(%d, 10) with cancel hook: %v, want ErrCanceled", w, err)
		}
		// Data length 12 (codeword 16): W2 needs 2 scan steps at
		// period 7, W3 needs 16 — both beyond a 1-probe budget.
		tight := New(polys[w], WithMaxProbes(1))
		if _, err := tight.Weight(w, 12); !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("Weight(%d, 12) with 1-probe budget: %v, want ErrBudgetExceeded", w, err)
		}
	}
	// W4 of 802.3 at the MTU length is a 73M-probe pair scan, its rows
	// split over GOMAXPROCS goroutines: let it start and stop it at the
	// first in-scan poll. The hooks run on the calling goroutine alone
	// (the race detector sees the unsynchronized counters), the progress
	// events count probes up, and every worker is gone once the count
	// returns.
	goroutines := runtime.NumGoroutine()
	polls := 0
	lastProbes := int64(-1)
	midCount := New(poly.IEEE8023, WithCancel(func() bool {
		polls++
		return polls > 1
	}), WithProgress(func(ev Event) {
		if ev.Probes < lastProbes {
			t.Errorf("progress went back from %d to %d probes", lastProbes, ev.Probes)
		}
		lastProbes = ev.Probes
	}))
	if _, err := midCount.Weight(4, 12112); !errors.Is(err, ErrCanceled) {
		t.Errorf("Weight(4, 12112) canceled mid-count: %v, want ErrCanceled", err)
	}
	full := binomAtMost(midCount.codewordLen(12112)-1, 2, 1<<62)
	if p := midCount.Stats.Probes; p <= 0 || p >= full {
		t.Errorf("W4 count canceled after %d of its %d probes, want some and not all", p, full)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the canceled W4 count, %d before", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(time.Millisecond) // a joined worker may not have exited yet
	}
}

func TestSmallPeriodWeight2(t *testing.T) {
	// (x+1)(x^3+x+1) has period 7: first 2-bit failure spans {0,7}, i.e.
	// codeword length 8, data length 4 for this width-4 generator.
	p, err := poly.FromFull(0x1D)
	if err != nil {
		t.Fatal(err)
	}
	e := New(p)
	if _, found, err := exists(e, 2, 3); err != nil || found {
		t.Fatalf("exists(2,3) = %v, %v; want no", found, err)
	}
	wit, found, err := exists(e, 2, 4)
	if err != nil || !found {
		t.Fatalf("exists(2,4) = %v, %v; want yes", found, err)
	}
	if wit[0] != 0 || wit[1] != 7 {
		t.Fatalf("witness = %v, want [0 7]", wit)
	}
	// Weight formula: at data length n (codeword n+4), pairs {i,i+7k}.
	w2, err := e.Weight(2, 10) // codeword 14: k=1 gives 7 pairs
	if err != nil {
		t.Fatal(err)
	}
	if w2 != 7 {
		t.Fatalf("W2(10) = %d, want 7", w2)
	}
	brute, err := e.WeightBrute(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if brute != w2 {
		t.Fatalf("brute W2 = %d", brute)
	}
}

// TestU32Map checks first-write-wins lookups over colliding random keys
// and over the structured keys the scans see for sparse generators, and
// probes absent keys, including ones whose presence-filter bit a stored
// key has set: those must fall through to the slots and still read -1.
// A keys-only set filled with the same keys must answer presence exactly
// like the map, through get and through find.
func TestU32Map(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 9))
	m := newU32Map(1000)
	set := newMapSet()
	ref := make(map[uint32]int32)
	for i := 0; i < 1000; i++ {
		k := uint32(rng.Uint64N(2000)) // force collisions
		v := int32(i)
		m.put(k, v)
		set.add(k)
		if _, ok := ref[k]; !ok {
			ref[k] = v // first write wins
		}
	}
	for k, v := range ref {
		if got := m.get(k); got != v {
			t.Fatalf("get(%d) = %d, want %d", k, got, v)
		}
	}
	for i := 0; i < 100; i++ {
		k := uint32(rng.Uint64N(100000) + 5000)
		if got := m.get(k); got != -1 {
			t.Fatalf("get(absent %d) = %d", k, got)
		}
	}
	checkSetMatchesMap(t, set, m, 0, 1999, 2000, 1<<31, ^uint32(0))
	shared, cleared := 0, 0
	for i := 0; i < 20000; i++ {
		k := rng.Uint32()
		checkSetMatchesMap(t, set, m, k)
		if _, ok := ref[k]; ok {
			continue
		}
		if filterHit(m, k) {
			shared++
		} else {
			cleared++
		}
		if got := m.get(k); got != -1 {
			t.Fatalf("get(absent %#x) = %d (filter bit set: %v)", k, got, filterHit(m, k))
		}
	}
	if shared == 0 {
		t.Fatal("no absent key shared a filter bit; the false-positive path went untested")
	}
	if 8*shared > cleared {
		t.Fatalf("%d of %d absent keys passed the filter, want under 1 in 8", shared, shared+cleared)
	}
	// Key 0, held beside the slots, and value 0 are representable.
	m2 := newU32Map(4)
	m2.put(0, 0)
	if got := m2.get(0); got != 0 {
		t.Fatalf("get(0) = %d, want 0", got)
	}
	m2 = newU32Map(4)
	m2.put(0, 5)
	m2.put(0, 6)
	if got := m2.get(0); got != 5 || m2.n != 1 {
		t.Fatalf("get(0) = %d with %d entries, want the first write 5 with 1", got, m2.n)
	}

	// Structured keys: single-bit and two-bit words (the syndromes x^i of
	// the low positions) and the syndromes and stored 1^syn[c] of the two
	// sparsest Table 1 generators, put into a map that starts empty so
	// they cross several grows. Every other key is left out and must
	// read -1.
	var keys []uint32
	for i := 0; i < 32; i++ {
		keys = append(keys, 1<<i)
		for j := i + 1; j < 32; j++ {
			keys = append(keys, 1<<i|1<<j)
		}
	}
	for _, p := range []poly.P{poly.KoopmanSparse5, poly.KoopmanSparse6} {
		for _, s := range New(p).syndromes(4096) {
			keys = append(keys, s, 1^s)
		}
	}
	m = newU32Map(0)
	set = newMapSet()
	ref = make(map[uint32]int32)
	for i := 0; i < len(keys); i += 2 {
		m.put(keys[i], int32(i))
		set.add(keys[i])
		if _, ok := ref[keys[i]]; !ok {
			ref[keys[i]] = int32(i)
		}
	}
	for k, v := range ref {
		if got := m.get(k); got != v {
			t.Fatalf("get(%#x) = %d, want %d", k, got, v)
		}
	}
	for i := 1; i < len(keys); i += 2 {
		if _, ok := ref[keys[i]]; ok {
			continue
		}
		if got := m.get(keys[i]); got != -1 {
			t.Fatalf("get(absent %#x) = %d", keys[i], got)
		}
	}
	checkSetMatchesMap(t, set, m, keys...)
}

// checkSetMatchesMap asserts that the keys-only set holds exactly the
// keys among keys that the valued map holds: get and find answer 0 for a
// held key and -1 for an absent one, where the map's answers are its
// value and -1.
func checkSetMatchesMap(t *testing.T, set mapSet, m *u32map, keys ...uint32) {
	t.Helper()
	for _, k := range keys {
		want := int32(-1)
		if m.get(k) >= 0 {
			want = 0
		}
		if got := set.m.get(k); got != want {
			t.Fatalf("set.get(%#x) = %d, want %d (map.get = %d)", k, got, want, m.get(k))
		}
		if got := set.m.find(k); got != want {
			t.Fatalf("set.find(%#x) = %d, want %d (map.get = %d)", k, got, want, m.get(k))
		}
		if got, mv := m.find(k), m.get(k); got != mv {
			t.Fatalf("find(%#x) = %d, get = %d", k, got, mv)
		}
	}
}

// filterHit reports whether both of key's presence bits are set in m's
// filter, 8 bits per slot: bit f = lin(key) & (8*len(m.keys)-1) and bit
// lin(key)>>27 of the 32-bit word holding f.
func filterHit(m *u32map, key uint32) bool {
	h := lin(key)
	f := h & uint32(8*len(m.keys)-1)
	word32 := uint32(m.filter[f>>6] >> (f & 32))
	return word32>>(f&31)&1 == 1 && word32>>(h>>27)&1 == 1
}

// hashRow returns lin of every key in row, the pre-hashed row a sieve
// takes.
func hashRow(row []uint32) []uint32 {
	h := make([]uint32, len(row))
	for i, k := range row {
		h[i] = lin(k)
	}
	return h
}

// TestLinearFilterHash checks the presence filter's hash against its
// contract: lin is linear over GF(2) (lin(0) = 0, lin(a^b) =
// lin(a)^lin(b) over random pairs and every pair of single-bit words),
// invertible (its 32 columns are independent, so every filter size's
// index bits are independent functions of the key), and the
// evaluator's hsyn holds lin of every syndrome after syndromes extends
// the table in uneven steps.
func TestLinearFilterHash(t *testing.T) {
	if got := lin(0); got != 0 {
		t.Fatalf("lin(0) = %#x, want 0", got)
	}
	rng := rand.New(rand.NewPCG(4, 9))
	for i := 0; i < 100000; i++ {
		a, b := rng.Uint32(), rng.Uint32()
		if lin(a^b) != lin(a)^lin(b) {
			t.Fatalf("lin(%#x ^ %#x) = %#x, want %#x", a, b, lin(a^b), lin(a)^lin(b))
		}
	}
	var basis [32]uint32 // basis[b]: a reduced column with top bit b
	for i := 0; i < 32; i++ {
		for j := 0; j < 32; j++ {
			a, b := uint32(1)<<i, uint32(1)<<j
			if lin(a^b) != lin(a)^lin(b) {
				t.Fatalf("lin(%#x ^ %#x) = %#x, want %#x", a, b, lin(a^b), lin(a)^lin(b))
			}
		}
		r := lin(1 << i)
		for r != 0 && basis[bits.Len32(r)-1] != 0 {
			r ^= basis[bits.Len32(r)-1]
		}
		if r == 0 {
			t.Fatalf("column %d of lin is in the span of columns 0..%d", i, i-1)
		}
		basis[bits.Len32(r)-1] = r
	}
	for _, p := range []poly.P{poly.IEEE8023, poly.KoopmanSparse5, randPoly(rng, 12)} {
		e := New(p)
		for _, n := range []int{1, 2, 7, 300, 301, 1000, 999, 4099} {
			syn := e.syndromes(n)
			if len(syn) != n || len(e.hsyn) != len(e.syn) {
				t.Fatalf("%v: syndromes(%d) gave %d, with %d syndromes and %d hashes held",
					p, n, len(syn), len(e.syn), len(e.hsyn))
			}
			for i, s := range e.syn {
				if e.hsyn[i] != lin(s) {
					t.Fatalf("%v: hsyn[%d] = %#x after syndromes(%d), want lin(%#x) = %#x",
						p, i, e.hsyn[i], n, s, lin(s))
				}
			}
		}
	}
}

// TestFilterOnScanKeys bounds the presence filter's false positives on
// the structured keys the scans make, not just random ones: for each
// Table 1 generator (the sparsest two, KoopmanSparse5 and
// KoopmanSparse6, among them) it builds firstLen4's store of 1^syn[a]
// at 1056 codeword bits and sieves every row of pair keys syn[b]^syn[c]
// as the scan does. Every held key must pass, and absent keys that pass
// must stay under 1 in 50: two bits per key let through under 1%, one
// bit let through about 3%.
func TestFilterOnScanKeys(t *testing.T) {
	const n = 1056
	for _, col := range poly.Table1() {
		e := New(col.P)
		syn := e.syndromes(n)
		hsyn := e.hsyn[:n]
		m := newU32Map(n)
		held := make(map[uint32]bool)
		for a := 1; a < n; a++ {
			m.put(1^syn[a], int32(a))
			held[1^syn[a]] = true
		}
		out := make([]int32, n)
		passed, absent := 0, 0
		for c := 2; c < n; c++ {
			hits := m.sieve(hsyn[1:c], hsyn[c], out)
			for b := 1; b < c; b++ {
				pass := len(hits) > 0 && int(hits[0]) == b-1
				if pass {
					hits = hits[1:]
				}
				key := syn[b] ^ syn[c]
				switch {
				case held[key] && !pass:
					t.Fatalf("%s: held key syn[%d]^syn[%d] = %#x did not pass the sieve", col.Label, b, c, key)
				case !held[key]:
					absent++
					if pass {
						passed++
					}
				}
			}
		}
		if 50*passed >= absent {
			t.Errorf("%s: %d of %d absent scan keys passed the filter, want under 1 in 50", col.Label, passed, absent)
		}
		t.Logf("%s: %d of %d absent scan keys passed (%.4f)", col.Label, passed, absent, float64(passed)/float64(absent))
	}
}

// TestFilterPassesW4MTU replays the rows of 802.3's exact W4 count at
// the MTU length, 12112 data bits, through the store's sieve as weight4
// does and counts what reaches find. Exactly 150 of the passing keys
// are held (the 75 patterns, each found from both middle positions);
// the rest are the filter's false positives. A one-bit filter passed
// 2,238,655 keys here; the two-bit filter must pass under a third of
// that.
func TestFilterPassesW4MTU(t *testing.T) {
	e := New(poly.IEEE8023)
	n := e.codewordLen(12112)
	syn := e.syndromes(n)
	hsyn := e.hsyn[:n]
	m := newU32Map(n)
	out := make([]int32, n)
	passed, held := 0, 0
	for c := 1; c < n; c++ {
		hits := m.sieve(hsyn[1:c], hsyn[c], out)
		passed += len(hits)
		for _, i := range hits {
			if m.find(syn[1+i]^syn[c]) >= 0 {
				held++
			}
		}
		m.put(1^syn[c], int32(c))
	}
	t.Logf("%d keys passed the sieve, %d of them held", passed, held)
	if held != 150 {
		t.Fatalf("%d held keys passed the sieve, want 150", held)
	}
	if 3*passed >= 2238655 {
		t.Fatalf("%d keys passed the sieve, want under a third of the one-bit filter's 2,238,655", passed)
	}
}

// TestU32MapGrows fills a map and a keys-only set, each sized for
// nothing, far past their initial capacity: every first write survives
// the doublings, load stays at most 50%, and each visits every key
// exactly once. Key 0, held beside the slots, goes in first and is
// checked, with its filter bit, after every rebuild. Some steps call
// reserve directly, ahead of the inserts: one that asks for room the
// table already has must keep it, and none may grow it again before
// the reserved room is used.
func TestU32MapGrows(t *testing.T) {
	for _, valued := range []bool{true, false} {
		rng := rand.New(rand.NewPCG(2, 9))
		m := newTable(0, valued)
		m.put(0, 0)
		ref := map[uint32]int32{0: 0}
		want := func(k uint32) int32 {
			if !valued {
				return 0
			}
			return ref[k]
		}
		grows, reserves := 0, 0
		for i := 1; i < 50000; i++ {
			if i%6000 == 0 {
				sz := len(m.keys)
				m.reserve(m.n) // room it already has
				if len(m.keys) != sz {
					t.Fatalf("valued=%v: reserve(%d) rebuilt a %d-slot table", valued, m.n, sz)
				}
				m.reserve(m.n + 3000)
				if 2*(m.n+3000) > len(m.keys) {
					t.Fatalf("valued=%v: reserve(%d) left %d slots", valued, m.n+3000, len(m.keys))
				}
				reserves++
			}
			k := rng.Uint32()
			sz := len(m.keys)
			m.put(k, int32(i))
			if _, ok := ref[k]; !ok {
				ref[k] = int32(i)
			}
			if len(m.keys) != sz {
				grows++
				if i >= 6000 && i%6000 < 3000 {
					t.Fatalf("valued=%v: put %d grew the table inside reserved room", valued, i)
				}
			}
			if len(m.keys) != sz || i%6000 == 0 {
				if got := m.get(0); got != 0 || !filterHit(m, 0) {
					t.Fatalf("valued=%v: after a rebuild to %d slots: get(0) = %d (filter bit set: %v), want 0",
						valued, len(m.keys), got, filterHit(m, 0))
				}
			}
		}
		if grows < 10 || reserves < 8 {
			t.Fatalf("valued=%v: %d grows and %d reserves, want at least 10 and 8", valued, grows, reserves)
		}
		if 2*m.n > len(m.keys) || m.n != len(ref) {
			t.Fatalf("valued=%v: %d entries in %d slots, want %d at <= 50%% load", valued, m.n, len(m.keys), len(ref))
		}
		for k := range ref {
			if got := m.get(k); got != want(k) {
				t.Fatalf("valued=%v: get(%d) = %d, want %d", valued, k, got, want(k))
			}
		}
		seen := make(map[uint32]int)
		m.each(func(k uint32) { seen[k]++ })
		if len(seen) != len(ref) {
			t.Fatalf("valued=%v: each visited %d keys, want %d", valued, len(seen), len(ref))
		}
		for k, c := range seen {
			if _, ok := ref[k]; !ok || c != 1 {
				t.Fatalf("valued=%v: each visited key %d %d times (in map: %v)", valued, k, c, ok)
			}
		}
	}
}

// TestU32MapSieve checks the row kernel against the stores' own
// contents. Each row is passed pre-hashed beside its keys, as the scans
// pass hsyn beside syn. Rows are random keys and structured ones (single- and
// two-bit words and the syndromes of the two sparsest Table 1
// generators), each XORed with x the way the scans build them. The keys
// at even indexes are held, in a map that starts empty and grows while
// it is filled. u32map.sieve must return, in ascending order, every held
// key and exactly the keys whose filter bit is set; mapSet.sieve, over
// a keys-only set filled alike, and bitmapSet.sieve must return exactly
// the held keys. One scratch buffer
// serves a long row, two short rows ending in a held key and a long row
// again, so a stale index from an earlier row would show.
func TestU32MapSieve(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	random := make([]uint32, 3001)
	for i := range random {
		random[i] = rng.Uint32()
	}
	var structured []uint32
	for i := 0; i < 32; i++ {
		structured = append(structured, 1<<i)
		for j := i + 1; j < 32; j++ {
			structured = append(structured, 1<<i|1<<j)
		}
	}
	for _, p := range []poly.P{poly.KoopmanSparse5, poly.KoopmanSparse6} {
		structured = append(structured, New(p).syndromes(2048)...)
	}
	const bitmapMask = 1<<20 - 1 // the bitmap covers 20-bit syndromes
	for _, keys := range [][]uint32{random, structured} {
		m := newU32Map(0)
		set := newMapSet()
		b := bitmapSet(make([]uint64, (bitmapMask+1)/64))
		inMap := make(map[uint32]bool)
		inBitmap := make(map[uint32]bool)
		for i := 0; i < len(keys); i += 2 {
			m.put(keys[i], int32(i))
			set.add(keys[i])
			inMap[keys[i]] = true
			b.add(keys[i] & bitmapMask)
			inBitmap[keys[i]&bitmapMask] = true
		}
		out := make([]int32, len(keys))
		for _, x := range []uint32{0, rng.Uint32()} {
			for _, l := range []int{len(keys), 7, 1, len(keys)} {
				row := make([]uint32, l)
				bitmapRow := make([]uint32, l)
				for i := range row {
					row[i] = keys[i] ^ x
					bitmapRow[i] = row[i] & bitmapMask
				}
				hrow := hashRow(row)
				held := func(i int) bool { return inMap[keys[i]] }
				checkSieve(t, "u32map", m.sieve(hrow, lin(x), out), l, held,
					func(i int) bool { return filterHit(m, keys[i]) })
				checkSieve(t, "mapSet", set.sieve(row, hrow, x, out), l, held, held)
				heldBitmap := func(i int) bool { return inBitmap[keys[i]&bitmapMask] }
				checkSieve(t, "bitmapSet", b.sieve(bitmapRow, nil, x&bitmapMask, out), l, heldBitmap, heldBitmap)
			}
		}
	}
}

// checkSieve asserts that got, a sieve's output over a row of l keys,
// holds in strictly ascending order exactly the indexes i with pass(i),
// and that these include every i with held(i).
func checkSieve(t *testing.T, name string, got []int32, l int, held, pass func(int) bool) {
	t.Helper()
	next := 0 // every index below next is accounted for
	for _, gi := range got {
		i := int(gi)
		if i < next || i >= l {
			t.Fatalf("%s: index %d out of order or outside the %d-key row (output %v)", name, i, l, got)
		}
		for ; next < i; next++ {
			if held(next) || pass(next) {
				t.Fatalf("%s: index %d missing from a %d-key row (held %v)", name, next, l, held(next))
			}
		}
		if !pass(i) {
			t.Fatalf("%s: index %d returned, but its key does not pass", name, i)
		}
		next = i + 1
	}
	for ; next < l; next++ {
		if held(next) || pass(next) {
			t.Fatalf("%s: index %d missing from a %d-key row (held %v)", name, next, l, held(next))
		}
	}
}

// TestU32Count checks the valued map as weight3's multiset: after inc
// over keys with repeats, key 0 among them, each key's value is its
// multiplicity and an absent key reads -1.
func TestU32Count(t *testing.T) {
	f := func(keys []uint16) bool {
		c := newU32Map(len(keys) + 1)
		ref := make(map[uint32]int32)
		for _, k := range keys {
			c.inc(uint32(k))
			ref[uint32(k)]++
		}
		for k, want := range ref {
			if c.get(k) != want {
				return false
			}
		}
		return c.get(1<<20) == -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBinomAtMost(t *testing.T) {
	tests := []struct {
		n, k int
		want int64
	}{
		{5, 2, 10}, {10, 0, 1}, {10, 10, 1}, {10, 11, 0}, {0, 0, 1},
		{12144, 2, 73732296}, {52, 5, 2598960}, {-1, 0, 0},
	}
	for _, tt := range tests {
		if got := binomAtMost(tt.n, tt.k, 1<<62); got != tt.want {
			t.Errorf("binom(%d,%d) = %d, want %d", tt.n, tt.k, got, tt.want)
		}
	}
	if got := binomAtMost(1000, 500, 1000); got != 1000 {
		t.Errorf("capped binom = %d, want 1000", got)
	}
}

func TestMeetsHDAtLengthsShortCircuit(t *testing.T) {
	e := New(poly.IEEE8023)
	// 802.3 has HD=4 (not 5) from 2975 on: the schedule must reject at the
	// first length >= 2975 without evaluating the rest.
	ok, err := e.MeetsHDAtLengths([]int{64, 3000, 12112}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("802.3 should fail HD>=5 at 3000 bits")
	}
	ok, err = e.MeetsHDAtLengths([]int{64, 256, 1024}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("802.3 should keep HD>=5 through 1024 bits")
	}
}

// TestExistsMatchesBruteForceHighWeights checks existence against brute
// force at weights 7 to 10, where the boundary scan stores rows of p-1 = 2 (w = 7, 8) and 3 (w = 9, 10) positions, the latter through
// the store's general recursion, and probes q = 2 to 4 positions, q = 4
// (w = 10) through the probe's general recursion.
func TestExistsMatchesBruteForceHighWeights(t *testing.T) {
	rng := rand.New(rand.NewPCG(111, 12))
	for trial := 0; trial < 12; trial++ {
		p := randPoly(rng, 8)
		e := New(p)
		for _, n := range []int{4, 9, 14} {
			for w := 7; w <= 10; w++ {
				count, err := e.WeightBrute(w, n)
				if err != nil {
					t.Fatal(err)
				}
				wit, found, err := exists(e, w, n)
				if err != nil {
					t.Fatal(err)
				}
				if found != (count > 0) {
					t.Fatalf("%v w=%d n=%d: exists=%v brute=%d", p, w, n, found, count)
				}
				if found && len(wit) != w {
					t.Fatalf("witness %v", wit)
				}
			}
		}
	}
}

func TestProfileDeterministic(t *testing.T) {
	// Columns must be reproducible run to run (the EDF factorization uses
	// a fixed-seed RNG; everything else is deterministic).
	a := column(t, New(poly.CastagnoliISCSI), 600, 9)
	b := column(t, New(poly.CastagnoliISCSI), 600, 9)
	if !maps.Equal(a, b) || len(a) == 0 {
		t.Fatalf("boundaries differ: %v vs %v", a, b)
	}
}

func TestGeneratorItselfIsACodeword(t *testing.T) {
	// G(x) is trivially a multiple of itself: a polynomial of weight m has
	// an undetectable m-bit pattern from data length 1 on. This is why
	// Table 1 shows 0x90022004 (6 terms) capped at HD=6 and 0x80108400
	// (5 terms) capped at HD=5 from the start.
	for _, tt := range []struct {
		p      poly.P
		weight int
	}{
		{poly.KoopmanSparse6, 6},
		{poly.KoopmanSparse5, 5},
	} {
		e := New(tt.p)
		wit, found, err := exists(e, tt.weight, 1)
		if err != nil || !found {
			t.Fatalf("%v: exists(%d, 1) = %v, %v", tt.p, tt.weight, found, err)
		}
		// The minimal witness is the generator's own coefficient pattern.
		var acc gf2.Poly
		for _, pos := range wit {
			acc |= 1 << uint(pos)
		}
		if acc != tt.p.Full() {
			t.Errorf("%v: witness %v is not the generator itself", tt.p, wit)
		}
	}
}
