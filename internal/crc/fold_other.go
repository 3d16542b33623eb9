//go:build !amd64

package crc

// foldAvailable is false: only amd64 has a fold kernel, so Hardware
// runs the slicing loop for generators hash/crc32 does not accelerate.
const foldAvailable = false

// foldWide is false: there is no fold kernel to widen. It is a
// variable, as on amd64, so that tests can switch it on every host.
var foldWide = false

// foldCLMUL is never called without a fold kernel.
func foldCLMUL(crc uint32, p []byte, k *foldConsts) uint32 {
	panic("crc: no carry-less-multiply fold on this architecture")
}
