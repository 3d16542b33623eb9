package koopmancrc_test

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"koopmancrc"
	"koopmancrc/internal/gf2"
)

// FuzzParsePolynomialRoundTrip feeds arbitrary (width, notation, value)
// triples through ParsePolynomial and asserts the two invariants that
// make the four notations interchangeable:
//
//  1. a value that parses re-encodes to itself in its own notation
//     (no silent bit dropping — this caught FromReversed accepting
//     overflow bits), and
//  2. re-encoding in every other notation and re-parsing yields the
//     same polynomial.
func FuzzParsePolynomialRoundTrip(f *testing.F) {
	f.Add(32, uint8(0), uint64(0xBA0DC66B)) // the paper's proposal, Koopman form
	f.Add(32, uint8(1), uint64(0x04C11DB7)) // 802.3, normal form
	f.Add(32, uint8(2), uint64(0xEDB88320)) // 802.3, reversed form
	f.Add(32, uint8(3), uint64(0x104C11DB7))
	f.Add(16, uint8(2), uint64(0x8408)) // CCITT reversed
	f.Add(16, uint8(2), uint64(0x18408))
	f.Add(12, uint8(0), uint64(0xC07))
	f.Add(8, uint8(3), uint64(0x107))
	f.Add(1, uint8(0), uint64(1))
	f.Add(33, uint8(0), uint64(1)<<32)

	notations := []koopmancrc.Notation{
		koopmancrc.Koopman, koopmancrc.Normal, koopmancrc.Reversed, koopmancrc.Full,
	}
	f.Fuzz(func(t *testing.T, width int, notationIdx uint8, v uint64) {
		n := notations[int(notationIdx)%len(notations)]
		s := fmt.Sprintf("%#x", v)
		p, err := koopmancrc.ParsePolynomial(width, n, s)
		if err != nil {
			return // invalid encodings must error, not panic — which they just did not
		}
		if p.Width() != width && n != koopmancrc.Full {
			t.Fatalf("parsed %q as width %d, asked for %d", s, p.Width(), width)
		}
		if got := p.In(n); got != v {
			t.Fatalf("%v notation %v: parsed %#x but re-encodes to %#x", p, n, v, got)
		}
		for _, m := range notations {
			enc := fmt.Sprintf("%#x", p.In(m))
			q, err := koopmancrc.ParsePolynomial(p.Width(), m, enc)
			if err != nil {
				t.Fatalf("%v does not re-parse from its own %v form %s: %v", p, m, enc, err)
			}
			if q != p {
				t.Fatalf("round trip through %v changed %v into %v", m, p, q)
			}
		}
	})
}

// FuzzRestoreMemos feeds arbitrary JSON through the corpus read path —
// decode, Validate, RestoreMemos — which must never panic, and checks
// that every snapshot a session accepts serves only real witnesses:
// for each known hit, Witness answers from the memo with a pattern the
// engine's witness rule accepts (the right weight, sorted distinct
// positions inside the codeword, and zero syndrome).
func FuzzRestoreMemos(f *testing.F) {
	ctx := context.Background()
	seed := koopmancrc.NewAnalyzer(koopmancrc.IEEE8023, koopmancrc.WithMaxHD(6))
	if _, err := seed.Evaluate(ctx, 400); err != nil {
		f.Fatal(err)
	}
	if _, err := seed.Weight(ctx, 4, 2975); err != nil {
		f.Fatal(err)
	}
	snap, err := seed.MemoSnapshot(ctx)
	if err != nil {
		f.Fatal(err)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"version":1,"width":8,"poly":131,"bounds":[{"weight":2,"hit_at":10,"witness":[0,99999]}]}`))
	f.Add([]byte(`{"version":1,"width":8,"poly":131,"bounds":[{"weight":3,"first":4,"exact":true}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var snap koopmancrc.MemoSnapshot
		if json.Unmarshal(data, &snap) != nil || snap.Validate() != nil {
			return
		}
		p, err := koopmancrc.ParsePolynomial(snap.Width, koopmancrc.Koopman, fmt.Sprintf("%#x", snap.Poly))
		if err != nil {
			return
		}
		// A tiny probe budget turns any query the memo fails to answer
		// into an error instead of a long engine run.
		a := koopmancrc.NewAnalyzer(p, koopmancrc.WithLimits(koopmancrc.Limits{MaxProbes: 1 << 12}))
		if a.RestoreMemos(ctx, &snap) != nil {
			return
		}
		for _, b := range snap.Bounds {
			hit := b.HitAt
			if b.Exact {
				hit = b.First
			}
			if hit == 0 {
				continue
			}
			wit, found, err := a.Witness(ctx, b.Weight, hit)
			if err != nil {
				t.Fatalf("Witness(%d, %d) on a restored hit: %v", b.Weight, hit, err)
			}
			if !found {
				continue // a conflicting exact boundary for this weight won the merge
			}
			n := hit + p.Width()
			var syndrome gf2.Poly
			for i, pos := range wit {
				if pos < 0 || pos >= n || (i > 0 && pos <= wit[i-1]) {
					t.Fatalf("Witness(%d, %d) = %v: not sorted distinct positions of a %d-bit codeword", b.Weight, hit, wit, n)
				}
				syndrome ^= gf2.ExpMod(gf2.X, uint64(pos), p.Full())
			}
			if len(wit) != b.Weight || syndrome != 0 {
				t.Fatalf("Witness(%d, %d) = %v: weight %d, syndrome %#x", b.Weight, hit, wit, len(wit), syndrome)
			}
		}
	})
}
