package crchash_test

import (
	"testing"

	"koopmancrc/crchash"
	"koopmancrc/internal/poly"
)

// FuzzKernelCrossValidation drives every concrete checksum kernel over
// a fuzzer-chosen parameter set and payload and asserts they all agree
// with the bitwise reference — both one-shot and through a chunked
// hash.Hash32 digest whose write boundaries the fuzzer also chooses
// (so the 16-byte slicing stride sees partial blocks at arbitrary
// offsets). Selection can never change the answer; a kernel that
// drifts from the reference on any (params, payload, split) triple is
// a bug this fuzzer is built to surface.
func FuzzKernelCrossValidation(f *testing.F) {
	f.Add(uint64(0xBA0DC66B), uint32(0xFFFFFFFF), uint32(0xFFFFFFFF), []byte("123456789"), uint16(3))
	f.Add(uint64(0x82608EDB), uint32(0), uint32(0), []byte{}, uint16(0)) // 802.3 in Koopman form
	f.Add(uint64(0x8F6E37A0), uint32(0xFFFFFFFF), uint32(0), []byte("hello crc world"), uint16(7))
	f.Add(uint64(1), uint32(1), uint32(1), make([]byte, 64), uint16(17))
	f.Add(uint64(0xDEADBEEF), uint32(0x12345678), uint32(0x9ABCDEF0), make([]byte, 100), uint16(23))
	// Lengths at the hardware fold's edges: the shortest input it takes,
	// one byte past it, one short of two 64-byte steps, and an MTU frame.
	f.Add(uint64(0xBA0DC66B), uint32(0xFFFFFFFF), uint32(0xFFFFFFFF), ramp(64), uint16(0))
	f.Add(uint64(0xBA0DC66B), uint32(0), uint32(0), ramp(65), uint16(64))
	f.Add(uint64(0x8F6E37A0), uint32(0x12345678), uint32(0), ramp(127), uint16(5))
	f.Add(uint64(0x992C1A4C), uint32(0xFFFFFFFF), uint32(0xFFFFFFFF), ramp(1514), uint16(1000))
	// Lengths at the 512-bit fold's edges: one xmm and no 16-byte step,
	// three 16-byte steps, one 256-byte step, a byte past it, an MTU
	// frame under IEEE and Castagnoli (which fold too where the CPU has
	// the 512-bit loops), and a long odd length.
	f.Add(uint64(0xBA0DC66B), uint32(0xFFFFFFFF), uint32(0xFFFFFFFF), ramp(16), uint16(9))
	f.Add(uint64(0xBA0DC66B), uint32(0x12345678), uint32(0), ramp(48), uint16(17))
	f.Add(uint64(0x8F6E37A0), uint32(0xFFFFFFFF), uint32(0xFFFFFFFF), ramp(256), uint16(64))
	f.Add(uint64(0xBA0DC66B), uint32(0), uint32(0xFFFFFFFF), ramp(257), uint16(255))
	f.Add(uint64(0x82608EDB), uint32(0xFFFFFFFF), uint32(0xFFFFFFFF), ramp(1514), uint16(1490))
	f.Add(uint64(0x8F6E37A0), uint32(0xFFFFFFFF), uint32(0xFFFFFFFF), ramp(1514), uint16(300))
	f.Add(uint64(0xDEADBEEF), uint32(0x9ABCDEF0), uint32(0x12345678), ramp(4103), uint16(4000))

	f.Fuzz(func(t *testing.T, kpoly uint64, init, xorout uint32, data []byte, cut uint16) {
		// Koopman form with the top bit forced keeps every fuzz input a
		// valid degree-32 generator.
		p, err := poly.FromKoopman(32, kpoly&0xFFFFFFFF|1<<31)
		if err != nil {
			t.Fatalf("forced top bit but Koopman parse failed: %v", err)
		}
		params := crchash.Params{
			Poly: p, Init: init, RefIn: true, RefOut: true, XorOut: xorout,
		}
		ref, err := crchash.NewEngine(params, crchash.Bitwise)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Checksum(data)
		for _, k := range crchash.Kinds() {
			if !k.Admits(params) {
				continue
			}
			e, err := crchash.NewEngine(params, k)
			if err != nil {
				t.Fatalf("%v admits params but constructor failed: %v", k, err)
			}
			if got := e.Checksum(data); got != want {
				t.Errorf("%v: one-shot %#x != reference %#x (poly %v, len %d)",
					k, got, want, p, len(data))
			}
			// Chunked digest writes at a fuzzer-chosen boundary, then
			// single-byte writes across the next stride so every kernel
			// sees sub-word tails mid-stream.
			d := crchash.NewDigest(e)
			split := int(cut) % (len(data) + 1)
			d.Write(data[:split])
			rest := data[split:]
			for len(rest) > 0 && len(rest) <= 24 {
				d.Write(rest[:1])
				rest = rest[1:]
			}
			d.Write(rest)
			if got := d.Sum32(); got != want {
				t.Errorf("%v: chunked digest %#x != reference %#x (split %d, len %d)",
					k, got, want, split, len(data))
			}
		}
	})
}

// ramp returns n bytes of a fixed non-repeating-looking pattern, so seed
// payloads exercise every table and fold lane with non-zero data.
func ramp(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + i>>3 + 7)
	}
	return b
}
