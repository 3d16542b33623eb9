package hamming

// sieveBitsGo returns, in ascending order, the indexes i whose bit
// f = keys[i]^x is set in bits: bit f&63 of the word f>>6, the word
// index masked to the array's power-of-two length. out is scratch of
// capacity at least len(keys); the result aliases it. Every index is
// written and the count advances by the bit, so the loop has no
// data-dependent branch, and the mask drops the bounds check. It is the
// portable row sieve, the path for a row's tail, and the oracle the
// vector kernel is tested against.
func sieveBitsGo(bits []uint64, keys []uint32, x uint32, out []int32) []int32 {
	if len(bits) == 0 {
		return out[:0] // never true; it lets the mask below drop the bounds check
	}
	mask := len(bits) - 1
	out = out[:len(keys)]
	k := 0
	for i, key := range keys {
		f := key ^ x
		out[k] = int32(i)
		bit := 0
		if bits[int(f>>6)&mask]&(1<<(f&63)) != 0 {
			bit = 1 // a bit test and a set, not a branch
		}
		k += bit
	}
	return out[:k]
}
