package crc

import (
	"hash/crc32"
	"math/rand/v2"
	"testing"
)

// TestFoldConstantsMatchStdlibIEEE pins the computed fold constants for
// the IEEE generator to the DATA values of hash/crc32's ieeeCLMUL
// kernel (crc32_amd64.s), exactly.
func TestFoldConstantsMatchStdlibIEEE(t *testing.T) {
	var tab [16][256]uint32
	fillSlicingTables(&tab, crc32.IEEE)
	got := *newFoldConsts(&tab, uint32(CRC32IEEE.Poly.Normal()))
	want := foldConsts{
		r2r1:   [2]uint64{0x154442bd4, 0x1c6e41596},
		r4r3:   [2]uint64{0x1751997d0, 0x0ccaa009e},
		r5:     [2]uint64{0x163cd6124},
		rupoly: [2]uint64{0x1db710641, 0x1f7011641},
	}
	if got != want {
		t.Fatalf("IEEE fold constants %#x, want %#x", got, want)
	}
}

// TestCRC32KCheckValue pins the catalogue's check value for the
// paper's CRC-32K to hash/crc32's Koopman table.
func TestCRC32KCheckValue(t *testing.T) {
	want := crc32.Checksum([]byte("123456789"), crc32.MakeTable(crc32.Koopman))
	if CRC32K.Check != want {
		t.Fatalf("CRC32K.Check = %#x, want %#x", CRC32K.Check, want)
	}
}

// foldTestParams returns every catalogued reflected 32-bit algorithm
// plus 64 seeded random generators with random init and xorout.
func foldTestParams() []Params {
	var out []Params
	for _, p := range Catalogue() {
		if p.Poly.Width() == 32 && p.RefIn && p.RefOut {
			out = append(out, p)
		}
	}
	rng := rand.New(rand.NewPCG(33, 544))
	for range 64 {
		out = append(out, randomReflected32Params(rng))
	}
	return out
}

// foldEngines builds the hardware engine under test and its two
// oracles, the slicing-by-16 loop and the bitwise reference.
func foldEngines(t *testing.T, p Params) (hw *Hardware, s16 *Slicing16, ref *Bitwise) {
	t.Helper()
	hw, err := NewHardware(p)
	if err != nil {
		t.Fatal(err)
	}
	if s16, err = NewSlicing16(p); err != nil {
		t.Fatal(err)
	}
	return hw, s16, NewBitwise(p)
}

// TestFoldMatchesSlicingAndBitwise drives the hardware engine's fold
// against the slicing loop and the bitwise reference: at every length
// up to 1100 and at an MTU frame, an odd length and one past 64 KiB; at
// all 16 start offsets into a larger buffer whose guard bytes before
// and after the input must stay untouched; and through two Update
// calls cut at every position of a 200-byte input. Stdlib generators
// take hash/crc32's path and are checked the same way.
func TestFoldMatchesSlicingAndBitwise(t *testing.T) {
	if !foldAvailable {
		t.Skip("no PCLMULQDQ/SSE4.1 fold on this host: Hardware runs the slicing loop")
	}
	rng := rand.New(rand.NewPCG(7, 1514))
	const guard = 64
	buf := make([]byte, guard+15+65536+13+guard)
	for i := range buf {
		buf[i] = byte(rng.Uint64())
	}
	saved := append([]byte(nil), buf...)
	for _, p := range foldTestParams() {
		hw, s16, ref := foldEngines(t, p)
		if !stdlibAccelerated(uint32(p.Poly.Reversed())) && hw.fold == nil {
			t.Fatalf("%s: fold available but not engaged", p.Name)
		}
		check := func(what string, data []byte, want uint32) {
			t.Helper()
			if got := s16.Checksum(data); got != want {
				t.Fatalf("%s: slicing16 %s len %d: %#x, bitwise %#x", p.Name, what, len(data), got, want)
			}
			if got := hw.Checksum(data); got != want {
				t.Fatalf("%s: hardware %s len %d: %#x, want %#x", p.Name, what, len(data), got, want)
			}
		}
		// Every length 0-1100: the bitwise state advances a byte at a
		// time, so each prefix's reference costs one byte of work.
		data := buf[guard : guard+1100]
		state := ref.Init()
		for n := 0; n <= len(data); n++ {
			check("prefix", data[:n], ref.Finalize(state))
			if n < len(data) {
				state = ref.Update(state, data[n:n+1])
			}
		}
		for _, n := range []int{1514, 4103, 65536 + 13} {
			d := buf[guard : guard+n]
			check("long", d, ref.Checksum(d))
		}
		// All 16 start offsets, at lengths across the fold's edges.
		for off := range 16 {
			for _, n := range []int{64, 65, 79, 127, 128, 200, 1514} {
				d := buf[guard+off : guard+off+n]
				check("offset", d, ref.Checksum(d))
			}
		}
		// Two Update calls cut at every position.
		d := buf[guard : guard+200]
		want := ref.Checksum(d)
		for cut := 0; cut <= len(d); cut++ {
			if got := hw.Finalize(hw.Update(hw.Update(hw.Init(), d[:cut]), d[cut:])); got != want {
				t.Fatalf("%s: hardware cut at %d of %d: %#x, want %#x", p.Name, cut, len(d), got, want)
			}
		}
	}
	for i := range buf {
		if buf[i] != saved[i] {
			t.Fatalf("byte %d of the buffer changed: %#x, was %#x", i, buf[i], saved[i])
		}
	}
}

// TestHardwareWithoutFold checks the path a host without the fold
// takes for a generator hash/crc32 does not accelerate: the slicing
// loop alone, over the slicing tables Hardware builds for it.
func TestHardwareWithoutFold(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 1514))
	data := make([]byte, 1514)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	hw, _, ref := foldEngines(t, CRC32K)
	hw.fold = nil
	if hw.Accelerated() {
		t.Error("Accelerated() with neither the stdlib path nor the fold")
	}
	for _, n := range []int{0, 15, 64, 200, 1514} {
		if got, want := hw.Checksum(data[:n]), ref.Checksum(data[:n]); got != want {
			t.Fatalf("len %d: %#x, want %#x", n, got, want)
		}
	}
}
