package gf2

import (
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
)

func TestOrderOfXPaperAnchors(t *testing.T) {
	// Periods implied by Table 1's HD=2 row: the first data-word length with
	// an undetected 2-bit error is period - 31 for a 32-bit CRC, so
	// period = (first HD=2 length) + 31.
	tests := []struct {
		name    string
		koopman uint64
		period  uint64
	}{
		{"0xBA0DC66B", 0xBA0DC66B, 114695},     // HD=2 from 114664
		{"0xFA567D89", 0xFA567D89, 65534},      // HD=2 from 65503
		{"0x992C1A4C", 0x992C1A4C, 65538},      // HD=2 from 65507
		{"0x90022004", 0x90022004, 65538},      // HD=2 from 65507
		{"0xD419CC15", 0xD419CC15, 65537},      // HD=2 from 65506
		{"0x80108400", 0x80108400, 65537},      // HD=2 from 65506
		{"0x8F6E37A0", 0x8F6E37A0, 2147483647}, // {1,31} with primitive degree-31 factor
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := OrderOfX(fullPoly(tt.koopman))
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.period {
				t.Errorf("OrderOfX = %d, want %d", got, tt.period)
			}
		})
	}
}

func TestOrderOfX8023(t *testing.T) {
	// Our computation finds the 802.3 generator has the maximal period
	// 2^32-1 (primitive). The paper's parenthetical says "not primitive";
	// the deviation is recorded in EXPERIMENTS.md. Either way the period is
	// consistent with Table 1 (no HD=2 transition within 131072 bits).
	period, err := OrderOfX(fullPoly(0x82608EDB))
	if err != nil {
		t.Fatal(err)
	}
	if period != 1<<32-1 {
		t.Errorf("period = %d, want 2^32-1", period)
	}
	if period <= 131072+31 {
		t.Errorf("period %d too small; Table 1 shows HD>=3 through 131072 bits", period)
	}
}

func TestOrderOfXCCITT16(t *testing.T) {
	// CRC-16/CCITT x^16+x^12+x^5+1 = (x+1)(primitive degree 15): period 32767.
	got, err := OrderOfX(0x11021)
	if err != nil {
		t.Fatal(err)
	}
	if got != 32767 {
		t.Errorf("OrderOfX(0x11021) = %d, want 32767", got)
	}
}

func TestOrderOfXSmall(t *testing.T) {
	tests := []struct {
		p    Poly
		want uint64
	}{
		{XPlus1, 1},
		{0x7, 3},   // x^2+x+1: x has order 3
		{0xB, 7},   // primitive degree 3
		{0x13, 15}, // primitive degree 4
		{0x1F, 5},  // x^4+x^3+x^2+x+1: order 5
		{0x9, 3},   // x^3+1 = (x+1)(x^2+x+1): lcm(1,3) = 3
		{0x5, 2},   // (x+1)^2: order 1 * 2^1 = 2
		{0x11, 4},  // (x+1)^4: order 1 * 2^2 = 4
	}
	for _, tt := range tests {
		got, err := OrderOfX(tt.p)
		if err != nil {
			t.Fatalf("OrderOfX(%#x): %v", uint64(tt.p), err)
		}
		if got != tt.want {
			t.Errorf("OrderOfX(%#x) = %d, want %d", uint64(tt.p), got, tt.want)
		}
	}
}

func TestOrderOfXErrNotUnit(t *testing.T) {
	if _, err := OrderOfX(X); err != ErrNotUnit {
		t.Errorf("OrderOfX(x) error = %v, want ErrNotUnit", err)
	}
}

func TestOrderMatchesDirectSimulation(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for i := 0; i < 200; i++ {
		p := Poly(rng.Uint64N(1<<16)) | 1<<15 | 1 // degree 15, unit constant term
		want, ok := DirectOrderOfX(p, 1<<17)
		if !ok {
			t.Fatalf("direct order of %#x not found within limit", uint64(p))
		}
		got, err := OrderOfX(p)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("OrderOfX(%#x) = %d, direct simulation says %d", uint64(p), got, want)
		}
	}
}

func TestOrderDefinitionProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 100; i++ {
		p := Poly(rng.Uint64N(1<<14)) | 1<<13 | 1
		o, err := OrderOfX(p)
		if err != nil {
			t.Fatal(err)
		}
		if ExpMod(X, o, p) != One {
			t.Fatalf("x^order != 1 mod %#x", uint64(p))
		}
		for _, q := range DistinctPrimes64(o) {
			if ExpMod(X, o/q, p) == One {
				t.Fatalf("order of x mod %#x is not minimal: x^(o/%d) == 1", uint64(p), q)
			}
		}
	}
}

func TestIsPrimitiveSmall(t *testing.T) {
	// Primitive polynomials of degree 4: x^4+x+1 and x^4+x^3+1, but not
	// x^4+x^3+x^2+x+1 (order 5).
	tests := []struct {
		p    Poly
		want bool
	}{
		{0x13, true},
		{0x19, true},
		{0x1F, false},
		{XPlus1, true},
		{X, false},
		{0x15, false}, // reducible
	}
	for _, tt := range tests {
		if got := IsPrimitive(tt.p); got != tt.want {
			t.Errorf("IsPrimitive(%#x) = %v, want %v", uint64(tt.p), got, tt.want)
		}
	}
}

func TestPrimitiveCountDegree8(t *testing.T) {
	// Number of primitive polynomials of degree n is phi(2^n-1)/n: for n=8,
	// phi(255)/8 = 128/8 = 16.
	count := 0
	for p := Poly(1 << 8); p < 1<<9; p++ {
		if IsPrimitive(p) {
			count++
		}
	}
	if count != 16 {
		t.Errorf("counted %d primitive degree-8 polynomials, want 16", count)
	}
}

func TestFactor64(t *testing.T) {
	tests := []struct {
		n    uint64
		want []uint64
	}{
		{0, nil},
		{1, nil},
		{2, []uint64{2}},
		{12, []uint64{2, 2, 3}},
		{1<<32 - 1, []uint64{3, 5, 17, 257, 65537}},
		{1<<31 - 1, []uint64{2147483647}}, // Mersenne prime
		{1<<28 - 1, []uint64{3, 5, 29, 43, 113, 127}},
		{1<<30 - 1, []uint64{3, 3, 7, 11, 31, 151, 331}},
		{65538, []uint64{2, 3, 3, 11, 331}},
	}
	for _, tt := range tests {
		got := Factor64(tt.n)
		if len(got) != len(tt.want) {
			t.Errorf("Factor64(%d) = %v, want %v", tt.n, got, tt.want)
			continue
		}
		prod := uint64(1)
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("Factor64(%d) = %v, want %v", tt.n, got, tt.want)
				break
			}
			prod *= got[i]
		}
		if tt.n >= 2 && prod != tt.n {
			t.Errorf("Factor64(%d) product = %d", tt.n, prod)
		}
	}
}

func TestIsPrime64SmallExhaustive(t *testing.T) {
	isPrime := func(n uint64) bool {
		if n < 2 {
			return false
		}
		for d := uint64(2); d*d <= n; d++ {
			if n%d == 0 {
				return false
			}
		}
		return true
	}
	for n := uint64(0); n < 2000; n++ {
		if got := IsPrime64(n); got != isPrime(n) {
			t.Errorf("IsPrime64(%d) = %v", n, got)
		}
	}
}

func TestFactor64RandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	for i := 0; i < 200; i++ {
		n := rng.Uint64N(1<<40) + 2
		fs := Factor64(n)
		prod := uint64(1)
		for _, p := range fs {
			if !IsPrime64(p) {
				t.Fatalf("Factor64(%d): non-prime factor %d", n, p)
			}
			prod *= p
		}
		if prod != n {
			t.Fatalf("Factor64(%d): product %d", n, prod)
		}
	}
}

// TestGroupOrderPrimesMemo checks the per-degree memo of 2^d-1's prime
// factors against DistinctPrimes64 for every degree, read from several
// goroutines at once, and that a second read returns the memoized slice
// rather than a fresh factorization.
func TestGroupOrderPrimesMemo(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				d := (i+16*g)%64 + 1
				got := groupOrderPrimes(d)
				if want := DistinctPrimes64(uint64(1)<<uint(d) - 1); !slices.Equal(got, want) {
					t.Errorf("primes of 2^%d-1 = %v, want %v", d, got, want)
				}
			}
		}()
	}
	wg.Wait()
	for d := 2; d <= 64; d++ {
		a, b := groupOrderPrimes(d), groupOrderPrimes(d)
		if len(a) == 0 || &a[0] != &b[0] {
			t.Errorf("degree %d: the memo handed out two different factorizations", d)
		}
	}
	if p := groupOrderPrimes(1); p != nil {
		t.Errorf("primes of 2^1-1 = %v, want none", p)
	}
	// The order modulo an irreducible factor reads the memo: once warm it
	// factors nothing, and so allocates nothing.
	factors, err := Factorize(fullPoly(0x8F6E37A0)) // {1,31}
	if err != nil {
		t.Fatal(err)
	}
	q := factors[len(factors)-1].P
	if allocs := testing.AllocsPerRun(10, func() { orderOfXModIrreducible(q) }); allocs != 0 {
		t.Errorf("order modulo a degree-%d factor allocates %v times per call, want 0", q.Deg(), allocs)
	}
}

// TestOrderOfXFactorsMatchesOrderOfX feeds OrderOfXFactors the
// factorization of random polynomials of degree 3 to 33 — square-free
// ones, (x+1)^k, squared factors and multiples of x — and checks it
// against OrderOfX and, where the period is small, DirectOrderOfX.
func TestOrderOfXFactorsMatchesOrderOfX(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 2))
	polys := []Poly{
		0xF,                            // (x+1)^3
		Product([]Factor{{XPlus1, 8}}), // (x+1)^8
		0x15,                           // (x^2+x+1)^2
		Product([]Factor{{XPlus1, 1}, {0xB, 2}, {0x13, 3}}),
		Product([]Factor{{0x25, 2}, {0x83, 2}}),
	}
	for i := 0; i < 400; i++ {
		d := 3 + rng.IntN(31) // 3..33
		f := Poly(1)<<uint(d) | Poly(rng.Uint64N(1<<uint(d)))
		switch i % 4 {
		case 1: // a squared factor
			h := d/2 - 1
			if h < 1 {
				h = 1
			}
			g := Poly(1)<<uint(h) | Poly(rng.Uint64N(1<<uint(h))) | 1
			f = Mul(Mul(g, g), Poly(1)<<uint(d-2*h)|1)
		case 2:
			f |= 1
		}
		polys = append(polys, f)
	}
	for _, f := range polys {
		want, wantErr := OrderOfX(f)
		factors, err := Factorize(f)
		if err != nil {
			t.Fatalf("Factorize(%#x): %v", uint64(f), err)
		}
		got, err := OrderOfXFactors(factors)
		if err != wantErr || got != want {
			t.Fatalf("OrderOfXFactors(%#x) = %d, %v; OrderOfX says %d, %v", uint64(f), got, err, want, wantErr)
		}
		if f&1 == 0 {
			if err != ErrNotUnit {
				t.Fatalf("%#x is a multiple of x: error %v, want ErrNotUnit", uint64(f), err)
			}
			continue
		}
		if direct, ok := DirectOrderOfX(f, 1<<18); ok && direct != got {
			t.Fatalf("OrderOfXFactors(%#x) = %d, direct iteration says %d", uint64(f), got, direct)
		}
	}
}

// BenchmarkOrderOfX times the period of a {1,31} generator. The prime
// factors of 2^31-1 come from the per-degree memo after the first call.
func BenchmarkOrderOfX(b *testing.B) {
	f := fullPoly(0x8F6E37A0)
	for i := 0; i < b.N; i++ {
		if _, err := OrderOfX(f); err != nil {
			b.Fatal(err)
		}
	}
}
