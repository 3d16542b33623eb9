package crc

// foldAvailable reports whether the CPU has PCLMULQDQ and SSE4.1, so
// that Hardware can run foldCLMUL for any reflected 32-bit generator.
// It is read once, at package init.
var foldAvailable = hasCLMUL()

// hasCLMUL asks CPUID leaf 1 whether the CPU has PCLMULQDQ (ECX bit 1)
// and SSE4.1 (ECX bit 19).
func hasCLMUL() bool

// foldCLMUL advances the pure reflected CRC state crc over p with
// carry-less multiplies: four 128-bit lanes fold 64 bytes a step, then
// fold into one, take in any 16-byte blocks left, and a Barrett
// reduction brings the 128-bit remainder down to 32 bits. It is
// hash/crc32's ieeeCLMUL with the constants read through k, so it
// serves any generator. len(p) must be at least 64 and a multiple of
// 16.
//
//go:noescape
func foldCLMUL(crc uint32, p []byte, k *foldConsts) uint32
