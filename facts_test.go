package koopmancrc

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"koopmancrc/internal/gf2"
	"koopmancrc/internal/poly"
)

// countFactorizations swaps the session factorization for one that
// counts its calls, until the test ends.
func countFactorizations(t *testing.T) *int {
	t.Helper()
	orig := factorize
	t.Cleanup(func() { factorize = orig })
	calls := new(int)
	factorize = func(p Polynomial) ([]gf2.Factor, error) {
		*calls++
		return orig(p)
	}
	return calls
}

// TestAnalyzerFactorsOnce: a fresh session factors its generator exactly
// once across Evaluate, Shape, Period, HDAt and Weight(2, n), whose
// answers all rest on that factorization.
func TestAnalyzerFactorsOnce(t *testing.T) {
	calls := countFactorizations(t)
	ctx := context.Background()
	p := poly.MustKoopman(32, 0x90022004) // {1,1,30}, period 65538
	an := NewAnalyzer(p, WithMaxHD(4))
	rep, err := an.Evaluate(ctx, 128)
	if err != nil {
		t.Fatal(err)
	}
	shape, err := an.Shape()
	if err != nil || shape != "{1,1,30}" || rep.Shape != shape {
		t.Errorf("Shape = %q, %v; report says %q", shape, err, rep.Shape)
	}
	period, err := an.Period()
	if err != nil || period != 65538 || rep.Period != period {
		t.Errorf("Period = %d, %v; report says %d", period, err, rep.Period)
	}
	if hd, exact, err := an.HDAt(ctx, 70000); err != nil || hd != 2 || !exact {
		t.Errorf("HDAt(70000) = %d, %v, %v; want 2, true", hd, exact, err)
	}
	// Codeword bits 70032 hold the pairs {i, i+65538} for i < 4494.
	if w2, err := an.Weight(ctx, 2, 70000); err != nil || w2 != 4494 {
		t.Errorf("Weight(2, 70000) = %d, %v; want 4494", w2, err)
	}
	if *calls != 1 {
		t.Errorf("the session factored its generator %d times, want 1", *calls)
	}
}

// TestFactsRestOnSessionFactorization: Shape, Period and the engine's
// weight-2 boundary all come from the session's factorization, not from
// one of their own. A session handed the factorization of another
// generator reports that one's shape and period, and that one's
// period+1 as the codeword length of its first 2-bit pattern.
func TestFactsRestOnSessionFactorization(t *testing.T) {
	orig := factorize
	t.Cleanup(func() { factorize = orig })
	other := poly.MustKoopman(16, 0x8810) // CCITT x^16+x^12+x^5+1: {1,15}, period 32767
	factorize = func(Polynomial) ([]gf2.Factor, error) { return orig(other) }

	an := NewAnalyzer(IEEE8023, WithMaxHD(2))
	rep, err := an.Evaluate(context.Background(), 40000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shape != "{1,15}" || rep.Period != 32767 {
		t.Errorf("shape %q, period %d; want the other generator's {1,15} and 32767", rep.Shape, rep.Period)
	}
	if len(rep.Transitions) != 1 || rep.Transitions[0].FirstLen != 32767+1-32 {
		t.Errorf("transitions %+v, want one at weight 2 and %d data bits", rep.Transitions, 32767+1-32)
	}
}

// factsOracleSet is generators of widths 3-32: random ones, (x+1)^k and
// products with squared factors.
func factsOracleSet(t *testing.T) []Polynomial {
	t.Helper()
	var out []Polynomial
	add := func(full gf2.Poly) {
		p, err := poly.FromFull(full)
		if err != nil {
			t.Fatalf("FromFull(%#x): %v", uint64(full), err)
		}
		out = append(out, p)
	}
	for k := 3; k <= 32; k++ {
		add(gf2.Product([]gf2.Factor{{P: gf2.XPlus1, Mult: k}}))
	}
	add(0x15)                                                                                       // (x^2+x+1)^2
	add(gf2.Product([]gf2.Factor{{P: gf2.XPlus1, Mult: 1}, {P: 0xB, Mult: 2}, {P: 0x13, Mult: 3}})) // {1,3,3,4,4,4}
	add(gf2.Product([]gf2.Factor{{P: 0x25, Mult: 2}, {P: 0x83, Mult: 2}}))                          // {5,5,7,7}
	add(gf2.Product([]gf2.Factor{{P: 0x11B, Mult: 4}}))                                             // {8,8,8,8}
	rng := rand.New(rand.NewPCG(30, 3))
	for i := 0; i < 300; i++ {
		w := 3 + rng.IntN(30) // 3..32
		p, err := poly.FromKoopman(w, 1<<uint(w-1)|rng.Uint64N(1<<uint(w-1)))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// TestAnalyzerFactsMatchOracles checks the session's one-factorization
// facts against the polynomial's own Period and Shape, against direct
// iteration where the period is small, and checks that the engine's
// weight-2 boundary is period+1 codeword bits. The zero-value generator
// takes the error path and must fail exactly as Polynomial.Period and
// Polynomial.Shape do.
func TestAnalyzerFactsMatchOracles(t *testing.T) {
	ctx := context.Background()
	for _, p := range factsOracleSet(t) {
		an := NewAnalyzer(p, WithMaxHD(2))
		period, err := an.Period()
		want, wantErr := p.Period()
		if period != want || err != wantErr {
			t.Fatalf("%v: Period = %d, %v; Polynomial.Period says %d, %v", p, period, err, want, wantErr)
		}
		if direct, ok := gf2.DirectOrderOfX(p.Full(), 1<<20); ok && direct != period {
			t.Fatalf("%v: Period = %d, direct iteration says %d", p, period, direct)
		}
		shape, err := an.Shape()
		wantShape, wantErr := p.Shape()
		if shape != wantShape || err != wantErr {
			t.Fatalf("%v: Shape = %q, %v; Polynomial.Shape says %q, %v", p, shape, err, wantShape, wantErr)
		}
		// Data length period+1-width is the first whose codeword holds
		// the pattern {0, period}.
		first := int(period) + 1 - p.Width()
		rep, err := an.Evaluate(ctx, first)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Transitions) != 1 || rep.Transitions[0].FirstLen != first ||
			!slices.Equal(rep.Transitions[0].Witness, []int{0, int(period)}) {
			t.Fatalf("%v: transitions %+v, want weight 2 at %d data bits with witness [0 %d]",
				p, rep.Transitions, first, period)
		}
		if hd, _, err := an.HDAt(ctx, first-1); first > 1 && (err != nil || hd == 2) {
			t.Fatalf("%v: HDAt(%d) = %d, %v; no 2-bit pattern fits there", p, first-1, hd, err)
		}
	}

	var zero Polynomial
	an := NewAnalyzer(zero)
	_, err := an.Period()
	_, wantErr := zero.Period()
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || err == nil {
		t.Errorf("zero generator: Period error %v, Polynomial.Period says %v", err, wantErr)
	}
	_, err = an.Shape()
	_, wantErr = zero.Shape()
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || err == nil {
		t.Errorf("zero generator: Shape error %v, Polynomial.Shape says %v", err, wantErr)
	}
}
