package gf2

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

// ErrNotUnit is returned when asking for the order of x modulo a polynomial
// divisible by x (x is then a zero divisor, not a unit).
var ErrNotUnit = errors.New("gf2: x is not a unit (polynomial has zero constant term)")

// OrderOfX returns the multiplicative order of x in GF(2)[x]/(f): the
// smallest e > 0 with x^e == 1 (mod f). This is the classical "period" of a
// CRC generator polynomial and determines the largest codeword length with
// no undetected 2-bit errors (positions i and i+period collide).
//
// f must have a non-zero constant term. OrderOfX factors f and hands the
// factors to OrderOfXFactors.
func OrderOfX(f Poly) (uint64, error) {
	if f&1 == 0 {
		return 0, ErrNotUnit
	}
	if f.Deg() < 1 {
		return 0, fmt.Errorf("gf2: order undefined modulo constant %#x", uint64(f))
	}
	factors, err := Factorize(f)
	if err != nil {
		return 0, err
	}
	return OrderOfXFactors(factors)
}

// OrderOfXFactors returns ord(x) modulo the polynomial whose complete
// factorization is factors (as Factorize returns it), so a caller that
// already holds the factorization does not pay for it twice. The order is
// computed per irreducible factor (dividing 2^d-1 down by its prime
// factors) and combined with the characteristic-2 multiplicity rule
// ord(p^e) = ord(p) * 2^ceil(log2 e), then lcm'd across factors. It
// returns ErrNotUnit when x is among the factors.
func OrderOfXFactors(factors []Factor) (uint64, error) {
	order := uint64(1)
	for _, fa := range factors {
		if fa.P == X {
			return 0, ErrNotUnit
		}
		o := orderOfXModIrreducible(fa.P)
		if fa.Mult > 1 {
			o *= uint64(1) << uint(ceilLog2(fa.Mult))
		}
		order = lcm64(order, o)
	}
	return order, nil
}

// orderOfXModIrreducible computes ord(x) modulo an irreducible p of degree d
// by starting from the group order 2^d-1 and removing prime factors while
// x^(o/q) stays 1.
func orderOfXModIrreducible(p Poly) uint64 {
	d := p.Deg()
	if d == 1 {
		return 1 // p = x+1: x == 1 already
	}
	o := (uint64(1) << uint(d)) - 1
	for _, q := range groupOrderPrimes(d) {
		for o%q == 0 && ExpMod(X, o/q, p) == One {
			o /= q
		}
	}
	return o
}

// groupPrimes memoizes the distinct prime factors of 2^d-1 per degree d:
// a pure function of d, factored at most once per process.
var groupPrimes [65]struct {
	once   sync.Once
	primes []uint64
}

// groupOrderPrimes returns the distinct prime factors of 2^d-1 (1 <= d <=
// 64), the order of the multiplicative group of GF(2^d). Callers must not
// modify the slice.
func groupOrderPrimes(d int) []uint64 {
	m := &groupPrimes[d]
	m.once.Do(func() { m.primes = DistinctPrimes64(uint64(1)<<uint(d) - 1) })
	return m.primes
}

// IsPrimitive reports whether f is a primitive polynomial: irreducible of
// degree d with ord(x) = 2^d - 1.
func IsPrimitive(f Poly) bool {
	d := f.Deg()
	if d < 1 || !IsIrreducible(f) {
		return false
	}
	if d == 1 {
		return f == XPlus1 // x is not primitive (not even a unit modulo x)
	}
	return orderOfXModIrreducible(f) == (uint64(1)<<uint(d))-1
}

// DirectOrderOfX computes ord(x) mod f by explicit iteration, up to limit
// steps. It returns (order, true) if found within the limit, else (0, false).
// Intended as an independent cross-check of OrderOfX for small periods.
func DirectOrderOfX(f Poly, limit uint64) (uint64, bool) {
	if f&1 == 0 || f.Deg() < 1 {
		return 0, false
	}
	dm := f.Deg()
	top := Poly(1) << uint(dm)
	cur := Mod(X, f)
	if cur == One { // deg f == 1, f = x+1
		return 1, true
	}
	for e := uint64(1); e <= limit; e++ {
		if cur == One {
			return e, true
		}
		cur <<= 1
		if cur&top != 0 {
			cur ^= f
		}
	}
	return 0, false
}

func ceilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

func lcm64(a, b uint64) uint64 {
	return a / gcd64(a, b) * b
}
