package crc

import "math/bits"

// foldConsts holds the carry-less-multiply fold's constants for one
// reflected 32-bit generator P, in the layout the kernel reads through
// its pointer: four 16-byte pairs, low quadword first. Each value is a
// 33-bit reflection (refl33), so that a PCLMULQDQ of reflected data by
// it is the reflected product. For the IEEE generator they equal the
// DATA values of hash/crc32's ieeeCLMUL kernel.
type foldConsts struct {
	r2r1   [2]uint64 // x^544, x^480 mod P: fold 64 bytes by 64
	r4r3   [2]uint64 // x^160, x^96 mod P: fold 16 bytes by 16
	r5     [2]uint64 // x^64 mod P (high quadword unused): 64 bits to 32
	rupoly [2]uint64 // P, floor(x^64 / P): the Barrett reduction
}

// newFoldConsts computes the fold constants of the generator whose
// normal form (x^32 implied) is normal, from its slicing tables. The
// reflected state of the polynomial 1, advanced over n zero bytes, is
// x^(8n) mod P reflected in 32 bits; shifted left once, it is refl33.
func newFoldConsts(tab *[16][256]uint32, normal uint32) *foldConsts {
	var zeros [40]byte
	x64 := slicingUpdate(1<<31, tab, zeros[:8])
	x96 := slicingUpdate(x64, tab, zeros[:4])
	x160 := slicingUpdate(x96, tab, zeros[:8])
	x480 := slicingUpdate(x160, tab, zeros[:40])
	x544 := slicingUpdate(x480, tab, zeros[:8])
	full := uint64(normal) | 1<<32
	return &foldConsts{
		r2r1:   [2]uint64{uint64(x544) << 1, uint64(x480) << 1},
		r4r3:   [2]uint64{uint64(x160) << 1, uint64(x96) << 1},
		r5:     [2]uint64{uint64(x64) << 1},
		rupoly: [2]uint64{refl33(full), refl33(x64Quotient(full))},
	}
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
