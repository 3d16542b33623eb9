package hamming

import (
	"errors"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

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
				wit, found, err := e.Exists(w, n)
				if err != nil {
					t.Fatal(err)
				}
				if found != (count > 0) {
					t.Fatalf("%v w=%d n=%d: Exists=%v but brute count=%d", p, w, n, found, count)
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
				_, found, err := e.Exists(w, n)
				if err != nil {
					t.Fatal(err)
				}
				if found != (count > 0) {
					t.Fatalf("%v w=%d n=%d: Exists=%v brute=%d", p, w, n, found, count)
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
					wantWit, want, err := e.Exists(w, n)
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
	for trial := 0; trial < 25; trial++ {
		width := 4 + int(rng.Uint64N(6)) // widths 4..9
		p := randPoly(rng, width)
		e := New(p)
		for _, n := range []int{1, 3, 8, 15, 22} {
			for w := 2; w <= 4; w++ {
				want, err := e.WeightBrute(w, n)
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.Weight(w, n)
				if err != nil {
					// The pair-collision W4 formula legitimately refuses
					// lengths where W2 > 0.
					if w == 4 {
						w2, werr := e.Weight(2, n)
						if werr == nil && w2 > 0 {
							continue
						}
					}
					t.Fatalf("%v W%d(%d): %v", p, w, n, err)
				}
				if got != want {
					t.Fatalf("%v W%d(%d) = %d, brute = %d", p, w, n, got, want)
				}
			}
		}
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

func TestStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewPCG(606, 6))
	for trial := 0; trial < 10; trial++ {
		p := randPoly(rng, 10)
		e := New(p)
		for w := 5; w <= 6; w++ {
			n1, _, f1, err := e.FirstDataLenStrategy(w, 80, StrategyIncreasing)
			if err != nil {
				t.Fatal(err)
			}
			n2, _, f2, err := e.FirstDataLenStrategy(w, 80, StrategyDirect)
			if err != nil {
				t.Fatal(err)
			}
			if f1 != f2 || n1 != n2 {
				t.Fatalf("%v w=%d: increasing=(%d,%v) direct=(%d,%v)", p, w, n1, f1, n2, f2)
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
			if _, found, err := e.Exists(3, n); err != nil || found {
				t.Fatalf("%v: Exists(3,%d) = %v, %v", p, n, found, err)
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
	rng := rand.New(rand.NewPCG(909, 9))
	for trial := 0; trial < 10; trial++ {
		p := randPoly(rng, 8)
		e := New(p)
		prof, err := e.Profile(30, 8)
		if err != nil {
			t.Fatal(err)
		}
		// Bands must tile [1, 30] exactly.
		next := 1
		for _, b := range prof.Bands {
			if b.From != next || b.To < b.From {
				t.Fatalf("%v: bad band tiling %+v", p, prof.Bands)
			}
			next = b.To + 1
		}
		if next != 31 {
			t.Fatalf("%v: bands end at %d, want 31", p, next)
		}
		for _, n := range []int{1, 7, 15, 30} {
			hd, exact, err := e.HDAt(n, 8)
			if err != nil {
				t.Fatal(err)
			}
			want, atLeast, ok := prof.HDAtLen(n)
			if !ok {
				t.Fatalf("%v: no band for %d", p, n)
			}
			if want != hd || atLeast == exact {
				t.Fatalf("%v n=%d: profile says HD=%d(atLeast=%v), HDAt says %d(exact=%v)",
					p, n, want, atLeast, hd, exact)
			}
		}
	}
}

func TestBandsFromTransitionsSynthetic(t *testing.T) {
	tests := []struct {
		name   string
		ts     []Transition
		maxLen int
		maxHD  int
		want   []Band
	}{
		{
			name:   "no transitions",
			maxLen: 10, maxHD: 6,
			want: []Band{{HD: 7, AtLeast: true, From: 1, To: 10}},
		},
		{
			name:   "single",
			ts:     []Transition{{W: 4, FirstLen: 5}},
			maxLen: 10, maxHD: 6,
			want: []Band{{HD: 7, AtLeast: true, From: 1, To: 4}, {HD: 4, From: 5, To: 10}},
		},
		{
			name:   "descending weights",
			ts:     []Transition{{W: 5, FirstLen: 3}, {W: 4, FirstLen: 7}, {W: 2, FirstLen: 9}},
			maxLen: 12, maxHD: 8,
			want: []Band{
				{HD: 9, AtLeast: true, From: 1, To: 2},
				{HD: 5, From: 3, To: 6},
				{HD: 4, From: 7, To: 8},
				{HD: 2, From: 9, To: 12},
			},
		},
		{
			name:   "same length",
			ts:     []Transition{{W: 5, FirstLen: 4}, {W: 4, FirstLen: 4}},
			maxLen: 6, maxHD: 6,
			want: []Band{{HD: 7, AtLeast: true, From: 1, To: 3}, {HD: 4, From: 4, To: 6}},
		},
		{
			name:   "boundary at 1",
			ts:     []Transition{{W: 3, FirstLen: 1}},
			maxLen: 5, maxHD: 6,
			want: []Band{{HD: 3, From: 1, To: 5}},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := bandsFromTransitions(tt.ts, tt.maxLen, tt.maxHD)
			if len(got) != len(tt.want) {
				t.Fatalf("bands = %+v, want %+v", got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("band %d = %+v, want %+v", i, got[i], tt.want[i])
				}
			}
		})
	}
}

func TestBudgetExceeded(t *testing.T) {
	e := New(poly.IEEE8023, WithMaxProbes(100))
	_, _, err := e.Exists(5, 4096)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if _, err := New(poly.IEEE8023, WithMaxPairBuffer(10)).Weight(4, 1000); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("W4 err = %v, want ErrBudgetExceeded", err)
	}
	if _, err := New(poly.IEEE8023, WithMaxProbes(100)).WeightBrute(4, 1000); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("brute err = %v, want ErrBudgetExceeded", err)
	}
}

func TestInvalidArguments(t *testing.T) {
	e := New(poly.IEEE8023)
	if _, _, err := e.Exists(0, 10); err == nil {
		t.Error("Exists(0,...) should error")
	}
	if _, _, err := e.Exists(2, 0); err == nil {
		t.Error("Exists(...,0) should error")
	}
	if _, err := e.Weight(5, 10); err == nil {
		t.Error("Weight(5,...) should error (exact weights limited to w<=4)")
	}
	if _, err := e.Profile(0, 6); err == nil {
		t.Error("Profile(0,...) should error")
	}
	if _, err := e.Profile(10, 1); err == nil {
		t.Error("Profile(...,1) should error")
	}
}

// TestWeightScanCancelAndBudget: the exact W2/W3 scans honour the cancel
// hook and the probe budget like every other engine loop.
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
}

func TestSmallPeriodWeight2(t *testing.T) {
	// (x+1)(x^3+x+1) has period 7: first 2-bit failure spans {0,7}, i.e.
	// codeword length 8, data length 4 for this width-4 generator.
	p, err := poly.FromFull(0x1D)
	if err != nil {
		t.Fatal(err)
	}
	e := New(p)
	if _, found, err := e.Exists(2, 3); err != nil || found {
		t.Fatalf("Exists(2,3) = %v, %v; want no", found, err)
	}
	wit, found, err := e.Exists(2, 4)
	if err != nil || !found {
		t.Fatalf("Exists(2,4) = %v, %v; want yes", found, err)
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

func TestU32Map(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 9))
	m := newU32Map(1000)
	ref := make(map[uint32]int32)
	for i := 0; i < 1000; i++ {
		k := uint32(rng.Uint64N(2000)) // force collisions
		v := int32(i)
		m.put(k, v)
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
	// Key 0 and value 0 are representable.
	m2 := newU32Map(4)
	m2.put(0, 0)
	if got := m2.get(0); got != 0 {
		t.Fatalf("get(0) = %d, want 0", got)
	}
}

// TestU32MapGrows fills a map sized for nothing far past its initial
// capacity: every first write survives the doublings, load stays at most
// 50%, and each visits every key exactly once.
func TestU32MapGrows(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 9))
	m := newU32Map(0)
	ref := make(map[uint32]int32)
	for i := 0; i < 50000; i++ {
		k := rng.Uint32()
		m.put(k, int32(i))
		if _, ok := ref[k]; !ok {
			ref[k] = int32(i)
		}
	}
	if 2*m.n > len(m.slots) || m.n != len(ref) {
		t.Fatalf("%d entries in %d slots, want %d at <= 50%% load", m.n, len(m.slots), len(ref))
	}
	for k, v := range ref {
		if got := m.get(k); got != v {
			t.Fatalf("get(%d) = %d, want %d", k, got, v)
		}
	}
	seen := make(map[uint32]int)
	m.each(func(k uint32) { seen[k]++ })
	if len(seen) != len(ref) {
		t.Fatalf("each visited %d keys, want %d", len(seen), len(ref))
	}
	for k, c := range seen {
		if _, ok := ref[k]; !ok || c != 1 {
			t.Fatalf("each visited key %d %d times (in map: %v)", k, c, ok)
		}
	}
}

func TestU32Count(t *testing.T) {
	f := func(keys []uint16) bool {
		c := newU32Count(len(keys) + 1)
		ref := make(map[uint32]uint32)
		for _, k := range keys {
			c.add(uint32(k))
			ref[uint32(k)]++
		}
		for k, want := range ref {
			if c.count(k) != want {
				return false
			}
		}
		return c.count(1<<20) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRadixSortUint32(t *testing.T) {
	f := func(vals []uint32) bool {
		got := append([]uint32(nil), vals...)
		got = radixSortUint32(got, nil)
		want := append([]uint32(nil), vals...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
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

func TestExistsMatchesBruteForceHighWeights(t *testing.T) {
	// Weights 7 and 8 exercise the store-side recursion (p=3) and the
	// probe-side q=4 recursion of the meet-in-the-middle join.
	rng := rand.New(rand.NewPCG(111, 12))
	for trial := 0; trial < 12; trial++ {
		p := randPoly(rng, 8)
		e := New(p)
		for _, n := range []int{4, 9, 14} {
			for w := 7; w <= 8; w++ {
				count, err := e.WeightBrute(w, n)
				if err != nil {
					t.Fatal(err)
				}
				wit, found, err := e.Exists(w, n)
				if err != nil {
					t.Fatal(err)
				}
				if found != (count > 0) {
					t.Fatalf("%v w=%d n=%d: Exists=%v brute=%d", p, w, n, found, count)
				}
				if found && len(wit) != w {
					t.Fatalf("witness %v", wit)
				}
			}
		}
	}
}

func TestProfileDeterministic(t *testing.T) {
	// Profiles must be reproducible run to run (the EDF factorization uses
	// a fixed-seed RNG; everything else is deterministic).
	a, err := New(poly.CastagnoliISCSI).Profile(600, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(poly.CastagnoliISCSI).Profile(600, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Bands) != len(b.Bands) {
		t.Fatalf("band counts differ: %d vs %d", len(a.Bands), len(b.Bands))
	}
	for i := range a.Bands {
		if a.Bands[i] != b.Bands[i] {
			t.Fatalf("band %d differs: %+v vs %+v", i, a.Bands[i], b.Bands[i])
		}
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
		wit, found, err := e.Exists(tt.weight, 1)
		if err != nil || !found {
			t.Fatalf("%v: Exists(%d, 1) = %v, %v", tt.p, tt.weight, found, err)
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
