package hamming

// sieveVector reports whether sieveBits runs the AVX-512 kernel: the
// CPU has AVX-512F and POPCNT, and the operating system saves the
// opmask and ZMM registers. It is read once, at package init.
var sieveVector = hasAVX512()

// hasAVX512 asks CPUID and XGETBV whether the kernel can run.
func hasAVX512() bool

// sieveAVX512 is sieveBitsGo over a whole row (len(out) >= len(keys),
// bits a power of two long). It returns the number of indexes written
// to out. For each block of 16 keys it gathers the 32-bit word f>>5 &
// (2*len(bits)-1) of every key's f = keys[i]^x, the word sieveBitsGo
// reads on a little-endian machine, rotates bit f&31 and bit f>>s2 & 31
// down to bit 0 in two copies, ANDs them and tests bit 0 into a mask,
// and compresses the block's indexes by that mask into one 16-index
// store at out[k]; as k <= i, the store stays inside out[:len(keys)].
// The row's last len(keys)%16 keys, and a row shorter than a block,
// take the same steps under an opmask of the keys left: a zero-masked
// load, a masked gather and test, and a compress straight to memory
// that writes the passing indexes alone. The masked word index keeps
// every read inside bits.
//
//go:noescape
func sieveAVX512(bits []uint64, keys []uint32, x, s2 uint32, out []int32) int

// sieveBits is sieveBitsGo, run by the AVX-512 kernel where the CPU has
// it: the kernel takes the whole row, tail and short rows included.
func sieveBits(bits []uint64, keys []uint32, x, s2 uint32, out []int32) []int32 {
	if !sieveVector || len(bits) == 0 {
		return sieveBitsGo(bits, keys, x, s2, out)
	}
	out = out[:len(keys)]
	return out[:sieveAVX512(bits, keys, x, s2, out)]
}
