package hamming

// sieveBitsGo returns, in ascending order, the indexes i whose two bits
// for f = keys[i]^x are both set in bits. Both lie in the 32-bit word
// f>>5 (the half f&32 of the word f>>6 on a little-endian machine), the
// word index masked to the array's power-of-two length: bit f&31 of it,
// and bit f>>s2 & 31 (s2 <= 27). The presence filter passes
// filterShift2, so a key's second bit comes from hash bits its word
// index does not use; bitmapSet passes 0, which tests the one bit twice
// and keeps the bitmap exact. out is scratch of capacity at least
// len(keys); the result aliases it. Every index is written and the
// count advances by the AND of the two bits, so the loop has no
// data-dependent branch, and the mask drops the bounds check. Both bits
// are tested on the 64-bit word and the second bit's index is taken
// with a multiply, so the loop has no shift by a variable count. It is
// the portable row sieve and the oracle the vector kernel is tested
// against.
func sieveBitsGo(bits []uint64, keys []uint32, x, s2 uint32, out []int32) []int32 {
	if len(bits) == 0 {
		return out[:0] // never true; it lets the mask below drop the bounds check
	}
	mask := len(bits) - 1
	out = out[:len(keys)]
	k := 0
	mul := uint32(1) << (27 - s2) // f>>s2 & 31 = f*mul >> 27
	for i, key := range keys {
		f := key ^ x
		out[k] = int32(i)
		w := bits[int(f>>6)&mask]
		b1, b2 := 0, 0
		if w&(1<<(f&63)) != 0 {
			b1 = 1 // a bit test and a set, not a branch
		}
		if w&(1<<((f&32|f*mul>>27)&63)) != 0 {
			b2 = 1
		}
		k += b1 & b2
	}
	return out[:k]
}
