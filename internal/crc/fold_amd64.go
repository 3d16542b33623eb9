package crc

// foldAvailable reports whether the CPU has PCLMULQDQ, SSSE3 and
// SSE4.1, so that Hardware can run foldCLMUL for any reflected 32-bit
// generator. It is read once, at package init.
var foldAvailable = hasCLMUL()

// foldWide reports whether foldCLMUL runs its 512-bit loops: the CPU
// also has AVX2, AVX-512F and VPCLMULQDQ, and the operating system
// saves the opmask and ZMM registers. It is read once, at package init;
// the kernel reads it on every call, and tests switch it off to cover
// the 128-bit loop.
var foldWide = foldAvailable && hasWideCLMUL()

// hasCLMUL asks CPUID leaf 1 whether the CPU has PCLMULQDQ (ECX bit 1),
// SSSE3 (ECX bit 9) and SSE4.1 (ECX bit 19).
func hasCLMUL() bool

// hasWideCLMUL asks CPUID and XGETBV whether the 512-bit loops can run.
func hasWideCLMUL() bool

// foldCLMUL advances the pure reflected CRC state crc over p with
// carry-less multiplies, for any generator whose constants k holds.
// Where foldWide is set, inputs of 256 bytes or more fold 256 bytes a
// step in four zmm accumulators, which then fold into one; inputs of
// 64 bytes or more fold 64 bytes a step in one zmm, which then folds
// into one xmm. Elsewhere four xmm lanes fold 64 bytes a step and then
// fold into one. Either way the 128-bit remainder takes in the 16-byte
// blocks left, then a last partial block (the 16 bytes ending the
// input, shuffled against the remainder), and a Barrett reduction
// brings it down to 32 bits. len(p) must be at least 16.
//
//go:noescape
func foldCLMUL(crc uint32, p []byte, k *foldConsts) uint32
