package hamming

// sieveVector reports whether sieveBits runs the AVX-512 kernel: the
// CPU has AVX-512F and POPCNT, and the operating system saves the
// opmask and ZMM registers. It is read once, at package init.
var sieveVector = hasAVX512()

// sieveBlock is the kernel's block: the keys one gather tests.
const sieveBlock = 16

// hasAVX512 asks CPUID and XGETBV whether the kernel can run.
func hasAVX512() bool

// sieveAVX512 is sieveBitsGo over a row of whole blocks (len(keys) a
// positive multiple of sieveBlock, len(out) >= len(keys), bits a power
// of two long). It returns the number of indexes written to out. For
// each block it gathers the 32-bit word f>>5 & (2*len(bits)-1) of every
// key's f = keys[i]^x, the same bit sieveBitsGo reads on a
// little-endian machine, rotates bit f&31 down to bit 0 and tests it
// into a mask, and compresses the block's indexes by that mask into one
// 16-index store at out[k]. As k <= i, the store stays inside
// out[:len(keys)], and the masked word index keeps every read inside
// bits.
//
//go:noescape
func sieveAVX512(bits []uint64, keys []uint32, x uint32, out []int32) int

// sieveBits is sieveBitsGo, run by the AVX-512 kernel where the CPU has
// it: the kernel takes the row's whole blocks and sieveBitsGo its tail,
// or the whole of a row shorter than a block.
func sieveBits(bits []uint64, keys []uint32, x uint32, out []int32) []int32 {
	n := len(keys) &^ (sieveBlock - 1)
	if !sieveVector || n == 0 || len(bits) == 0 {
		return sieveBitsGo(bits, keys, x, out)
	}
	out = out[:len(keys)]
	k := sieveAVX512(bits, keys[:n], x, out)
	tail := sieveBitsGo(bits, keys[n:], x, out[k:])
	for j := range tail {
		tail[j] += int32(n)
	}
	return out[:k+len(tail)]
}
