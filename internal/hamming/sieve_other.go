//go:build !amd64

package hamming

// sieveVector is false: only amd64 has a vector kernel.
const sieveVector = false

// sieveBits is sieveBitsGo: without a vector kernel the portable loop
// sieves every row.
func sieveBits(bits []uint64, keys []uint32, x, s2 uint32, out []int32) []int32 {
	return sieveBitsGo(bits, keys, x, s2, out)
}
