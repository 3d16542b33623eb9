package hamming

import "testing"

// runPortable runs bench as the sub-benchmark "portable" with the
// AVX-512 sieve kernel switched off, so sieveBits runs the Go loop
// sieveBitsGo, and switches it back after.
func runPortable(b *testing.B, bench func(*testing.B)) {
	defer func(v bool) { sieveVector = v }(sieveVector)
	sieveVector = false
	b.Run("portable", bench)
}
