// Package gf2 implements arithmetic over GF(2)[x] for polynomials of degree
// at most 63, along with irreducibility testing, complete factorization,
// primitivity testing and multiplicative-order (period) computation.
//
// A polynomial is represented as a Poly (uint64) where bit i holds the
// coefficient of x^i. The package is the algebraic substrate for CRC
// polynomial evaluation: a CRC generator of degree r fits in r+1 bits, so a
// uint64 covers every polynomial this repository cares about (r <= 32) with
// room to spare.
package gf2

import "math/bits"

// Poly is a polynomial over GF(2); bit i is the coefficient of x^i.
type Poly uint64

// Common small polynomials.
const (
	// Zero is the zero polynomial.
	Zero Poly = 0
	// One is the constant polynomial 1.
	One Poly = 1
	// X is the monomial x.
	X Poly = 2
	// XPlus1 is x+1, the parity factor central to the paper's Table 2.
	XPlus1 Poly = 3
)

// Deg returns the degree of p, or -1 for the zero polynomial.
func (p Poly) Deg() int {
	if p == 0 {
		return -1
	}
	return 63 - bits.LeadingZeros64(uint64(p))
}

// Weight returns the number of non-zero coefficients of p.
func (p Poly) Weight() int { return bits.OnesCount64(uint64(p)) }

// Add returns p + q (which over GF(2) is also p - q).
func (p Poly) Add(q Poly) Poly { return p ^ q }

// Mul returns the carry-less product p*q. The caller must ensure
// Deg(p)+Deg(q) <= 63; higher-degree products silently wrap and must be
// computed with MulMod instead.
func Mul(p, q Poly) Poly {
	var r Poly
	for q != 0 {
		if q&1 != 0 {
			r ^= p
		}
		p <<= 1
		q >>= 1
	}
	return r
}

// DivMod returns the quotient and remainder of p divided by m.
// It panics if m is zero, mirroring integer division semantics.
func DivMod(p, m Poly) (quo, rem Poly) {
	if m == 0 {
		panic("gf2: division by zero polynomial")
	}
	dm := m.Deg()
	for {
		dp := p.Deg()
		if dp < dm {
			return quo, p
		}
		shift := uint(dp - dm)
		p ^= m << shift
		quo |= 1 << shift
	}
}

// Mod returns p modulo m. It panics if m is zero.
func Mod(p, m Poly) Poly {
	_, r := DivMod(p, m)
	return r
}

// Div returns the quotient of p divided by m. It panics if m is zero.
func Div(p, m Poly) Poly {
	q, _ := DivMod(p, m)
	return q
}

// MulMod returns p*q mod m using shift-and-reduce, which is safe for any
// modulus degree up to 63 (no intermediate overflow). It panics if m is zero.
func MulMod(p, q, m Poly) Poly {
	p = Mod(p, m)
	q = Mod(q, m)
	dm := m.Deg()
	if dm <= 0 {
		return 0 // everything is congruent to 0 mod a constant
	}
	top := Poly(1) << uint(dm)
	var r Poly
	for q != 0 {
		if q&1 != 0 {
			r ^= p
		}
		q >>= 1
		p <<= 1
		if p&top != 0 {
			p ^= m
		}
	}
	return r
}

// ExpMod returns b^e mod m by square-and-multiply. It panics if m is zero.
func ExpMod(b Poly, e uint64, m Poly) Poly {
	if m.Deg() <= 0 {
		return 0
	}
	r := One
	b = Mod(b, m)
	for e != 0 {
		if e&1 != 0 {
			r = MulMod(r, b, m)
		}
		b = MulMod(b, b, m)
		e >>= 1
	}
	return r
}

// Gcd returns the greatest common divisor of p and q (monic by construction
// over GF(2)). Gcd(0, 0) is 0.
func Gcd(p, q Poly) Poly {
	for q != 0 {
		p, q = q, Mod(p, q)
	}
	return p
}

// Derivative returns the formal derivative of p. Over GF(2) only odd-degree
// terms survive: d/dx x^(2k+1) = x^(2k), d/dx x^(2k) = 0.
func Derivative(p Poly) Poly {
	const oddMask = 0xAAAAAAAAAAAAAAAA // bits at odd positions
	return Poly(uint64(p)&oddMask) >> 1
}

// Sqrt returns g such that g*g == p, assuming p is a perfect square
// (equivalently, over GF(2), p has coefficients only at even positions:
// p(x) = g(x^2) = g(x)^2). Odd-position coefficients are ignored.
func Sqrt(p Poly) Poly {
	var g Poly
	for i := 0; i < 32; i++ {
		if p&(1<<(2*uint(i))) != 0 {
			g |= 1 << uint(i)
		}
	}
	return g
}

// Reverse returns the reciprocal of p with respect to the given number of
// bits: the coefficient vector of p is bit-reversed within width bits.
// For a polynomial of degree d with non-zero constant term, Reverse(p, d+1)
// is the classical reciprocal polynomial x^d * p(1/x).
func Reverse(p Poly, width int) Poly {
	return Poly(bits.Reverse64(uint64(p)) >> uint(64-width))
}

// Reciprocal returns the reciprocal polynomial x^Deg(p) * p(1/x).
func Reciprocal(p Poly) Poly {
	if p == 0 {
		return 0
	}
	return Reverse(p, p.Deg()+1)
}
