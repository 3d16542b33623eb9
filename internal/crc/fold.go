package crc

import "math/bits"

// foldConsts holds the carry-less-multiply fold's constants for one
// reflected 32-bit generator P, in the layout the kernel reads through
// its pointer: 16-byte pairs, low quadword first. The pair kN folds a
// 16-byte lane forward by N bytes, D = 8N bits: x^(D+32) mod P for the
// lane's low quadword and x^(D-32) mod P for its high one. Each value
// is a 33-bit reflection (refl33), so that a PCLMULQDQ of reflected
// data by it is the reflected product. For the IEEE generator k64, k16,
// r5 and rupoly equal the DATA values of hash/crc32's ieeeCLMUL kernel.
type foldConsts struct {
	k256   [2]uint64 // the 4×zmm loop: each lane by 256 bytes
	k192   [2]uint64 // 4 zmm to 1: the first by 192 bytes,
	k128   [2]uint64 // the second by 128
	k64    [2]uint64 // and the third by 64; the 1×zmm and 4×xmm loops
	k48    [2]uint64 // zmm to xmm, one 64-byte vector: lane 0 by 48,
	k32    [2]uint64 // lane 1 by 32,
	k16    [2]uint64 // lane 2 by 16; the 16-byte loop and the tail
	zero   [2]uint64 // and lane 3 kept as it is
	r5     [2]uint64 // x^64 mod P (high quadword unused): 64 bits to 32
	rupoly [2]uint64 // P, floor(x^64 / P): the Barrett reduction
}

// newFoldConsts computes the fold constants of the generator whose
// normal form (x^32 implied) is normal, from its reflected byte table.
// The reflected state of the polynomial 1, advanced over n zero bytes,
// is x^(8n) mod P reflected in 32 bits; shifted left once, it is
// refl33. One chain of 68 steps gives every power up to x^544; the
// pairs of k128, k192 and k256 square powers from it, once or twice.
func newFoldConsts(tab *[256]uint32, normal uint32) *foldConsts {
	var pow [69]uint32 // pow[i] is x^(8i) mod P, reflected
	state := uint32(1) << 31
	for i := range pow {
		pow[i] = state
		state = state>>8 ^ tab[byte(state)]
	}
	sq := func(v uint32) uint32 { return squareMod(tab, v) }
	pair := func(lo, hi uint32) [2]uint64 { return [2]uint64{uint64(lo) << 1, uint64(hi) << 1} }
	full := uint64(normal) | 1<<32
	return &foldConsts{
		k256:   pair(sq(sq(pow[65])), sq(sq(pow[63]))), // x^2080 = (x^520)^4, x^2016 = (x^504)^4
		k192:   pair(sq(sq(pow[49])), sq(sq(pow[47]))), // x^1568 = (x^392)^4, x^1504 = (x^376)^4
		k128:   pair(sq(pow[66]), sq(pow[62])),         // x^1056 = (x^528)^2, x^992 = (x^496)^2
		k64:    pair(pow[68], pow[60]),                 // x^544, x^480
		k48:    pair(pow[52], pow[44]),                 // x^416, x^352
		k32:    pair(pow[36], pow[28]),                 // x^288, x^224
		k16:    pair(pow[20], pow[12]),                 // x^160, x^96
		r5:     pair(pow[8], 0),                        // x^64
		rupoly: [2]uint64{refl33(full), refl33(x64Quotient(full))},
	}
}

// squareMod returns v^2 mod P for v reflected in 32 bits, through P's
// reflected byte table. Squaring over GF(2) spreads the coefficients to
// the even powers, which reflected in 64 bits puts bit b of v at bit
// 2b+1; the upper 32 powers then step over four zero bytes into the
// lower ones.
func squareMod(tab *[256]uint32, v uint32) uint32 {
	w := uint64(v)
	w = (w | w<<16) & 0x0000ffff0000ffff
	w = (w | w<<8) & 0x00ff00ff00ff00ff
	w = (w | w<<4) & 0x0f0f0f0f0f0f0f0f
	w = (w | w<<2) & 0x3333333333333333
	w = (w | w<<1) & 0x5555555555555555
	w <<= 1
	state := uint32(w)
	for range 4 {
		state = state>>8 ^ tab[byte(state)]
	}
	return state ^ uint32(w>>32)
}

// x64Quotient returns floor(x^64 / P), a polynomial of degree 32, by
// long division of x^64 one dividend bit at a time.
func x64Quotient(full uint64) uint64 {
	var q, r uint64
	for i := 64; i >= 0; i-- {
		r <<= 1
		if i == 64 {
			r |= 1
		}
		if r&(1<<32) != 0 {
			r ^= full
			q |= 1 << uint(i)
		}
	}
	return q
}

// refl33 reverses the low 33 bits of v.
func refl33(v uint64) uint64 { return bits.Reverse64(v) >> (64 - 33) }
