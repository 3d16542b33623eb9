package crc

import (
	"hash/crc32"
	"math/rand/v2"
	"testing"

	"koopmancrc/internal/gf2"
)

// TestFoldConstantsMatchStdlibIEEE pins the computed fold constants for
// the IEEE generator to the DATA values of hash/crc32's ieeeCLMUL
// kernel (crc32_amd64.s), exactly.
func TestFoldConstantsMatchStdlibIEEE(t *testing.T) {
	var tab [256]uint32
	fillByteTable(&tab, crc32.IEEE)
	got := newFoldConsts(&tab, uint32(CRC32IEEE.Poly.Normal()))
	for _, c := range []struct {
		name      string
		got, want [2]uint64
	}{
		{"k64 (r2r1)", got.k64, [2]uint64{0x154442bd4, 0x1c6e41596}},
		{"k16 (r4r3)", got.k16, [2]uint64{0x1751997d0, 0x0ccaa009e}},
		{"r5", got.r5, [2]uint64{0x163cd6124}},
		{"rupoly", got.rupoly, [2]uint64{0x1db710641, 0x1f7011641}},
	} {
		if c.got != c.want {
			t.Errorf("IEEE %s = %#x, want %#x", c.name, c.got, c.want)
		}
	}
}

// TestFoldConstantsMatchGF2 checks every fold constant of every
// generator foldTestParams lists against internal/gf2 arithmetic, which
// shares no code with the byte table the constants are stepped out of:
// kN is refl33 of x^(8N+32) and x^(8N-32) mod P, r5 of x^64 mod P, and
// rupoly of P and floor(x^64 / P); the zero pair is zero.
func TestFoldConstantsMatchGF2(t *testing.T) {
	for _, p := range foldTestParams() {
		full := gf2.Poly(p.Poly.Normal()) | 1<<32
		xPow := func(n uint64) uint64 { return refl33(uint64(gf2.ExpMod(gf2.X, n, full))) }
		// floor(x^64 / P) = x·floor(x^63 / P) + floor(x·(x^63 mod P) / P).
		q63, r63 := gf2.DivMod(1<<63, full)
		quot := uint64(q63<<1 ^ gf2.Div(r63<<1, full))

		var tab [256]uint32
		fillByteTable(&tab, uint32(p.Poly.Reversed()))
		k := newFoldConsts(&tab, uint32(p.Poly.Normal()))
		for _, c := range []struct {
			bytes uint64
			got   [2]uint64
		}{{16, k.k16}, {32, k.k32}, {48, k.k48}, {64, k.k64}, {128, k.k128}, {192, k.k192}, {256, k.k256}} {
			want := [2]uint64{xPow(8*c.bytes + 32), xPow(8*c.bytes - 32)}
			if c.got != want {
				t.Fatalf("%s: k%d = %#x, want %#x", p.Name, c.bytes, c.got, want)
			}
		}
		if want := [2]uint64{xPow(64)}; k.r5 != want {
			t.Fatalf("%s: r5 = %#x, want %#x", p.Name, k.r5, want)
		}
		if want := [2]uint64{refl33(uint64(full)), refl33(quot)}; k.rupoly != want {
			t.Fatalf("%s: rupoly = %#x, want %#x", p.Name, k.rupoly, want)
		}
		if k.zero != [2]uint64{} {
			t.Fatalf("%s: zero pair %#x", p.Name, k.zero)
		}
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

// setFoldWide sets foldWide, which the kernel reads on every call and
// NewHardware reads to choose a path, until the test ends.
func setFoldWide(t *testing.T, on bool) {
	saved := foldWide
	foldWide = on
	t.Cleanup(func() { foldWide = saved })
}

// TestFoldMatchesSlicingAndBitwise drives the hardware engine's fold
// against the slicing loop and the bitwise reference for every
// generator foldTestParams lists, IEEE and Castagnoli included: at
// every length up to 1100 (so 16-63, 255-257 and 511-513 among them)
// and at an MTU frame, an odd length and one past 64 KiB; at all 64
// start offsets into a larger buffer, at lengths across the edges of
// every loop, with the guard bytes before and after the input, and the
// whole buffer, unchanged; and through two Update calls cut at every
// position of a 530-byte input. It runs once with the 512-bit loops
// (on hosts that have them) and once with them switched off, as a
// PCLMULQDQ-only host runs, where IEEE and Castagnoli take hash/crc32's
// path and are checked the same way.
func TestFoldMatchesSlicingAndBitwise(t *testing.T) {
	if !foldAvailable {
		t.Skip("no PCLMULQDQ/SSE4.1 fold on this host: Hardware runs the slicing loop")
	}
	params := foldTestParams()
	for _, wide := range []bool{true, false} {
		name := map[bool]string{true: "wide", false: "narrow"}[wide]
		t.Run(name, func(t *testing.T) {
			if wide && !foldWide {
				t.Skip("no AVX-512 VPCLMULQDQ on this host")
			}
			setFoldWide(t, wide)
			for _, p := range params {
				checkFold(t, p, wide)
			}
		})
	}
}

// checkFold is TestFoldMatchesSlicingAndBitwise for one generator.
func checkFold(t *testing.T, p Params, wide bool) {
	t.Helper()
	rng := rand.New(rand.NewPCG(7, 1514))
	const guard = 64
	buf := make([]byte, guard+63+65536+13+guard)
	for i := range buf {
		buf[i] = byte(rng.Uint64())
	}
	saved := append([]byte(nil), buf...)
	hw, s16, ref := foldEngines(t, p)
	if stdlib := stdlibAccelerated(uint32(p.Poly.Reversed())); (hw.fold != nil) != (wide || !stdlib) {
		t.Fatalf("%s: fold engaged %v with the wide loops %v", p.Name, hw.fold != nil, wide)
	}
	if hw.slices != nil {
		t.Fatalf("%s: the hardware engine built the slicing tables on a fold host", p.Name)
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
	// Every length 0-1100: the bitwise state advances a byte at a time,
	// so each prefix's reference costs one byte of work.
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
	// All 64 start offsets, at lengths across the edges of the 16-byte,
	// 64-byte and 256-byte steps.
	for off := range 64 {
		for _, n := range []int{16, 17, 31, 48, 63, 64, 65, 79, 127, 200, 255, 256, 257, 319, 511, 512, 513, 1514} {
			d := buf[guard+off : guard+off+n]
			check("offset", d, ref.Checksum(d))
		}
	}
	// Two Update calls cut at every position.
	d := buf[guard : guard+530]
	want := ref.Checksum(d)
	for cut := 0; cut <= len(d); cut++ {
		if got := hw.Finalize(hw.Update(hw.Update(hw.Init(), d[:cut]), d[cut:])); got != want {
			t.Fatalf("%s: hardware cut at %d of %d: %#x, want %#x", p.Name, cut, len(d), got, want)
		}
	}
	for i := range buf {
		if buf[i] != saved[i] {
			t.Fatalf("%s: byte %d of the buffer changed: %#x, was %#x", p.Name, i, buf[i], saved[i])
		}
	}
}

// TestHardwareBuild checks what each host's hardware engine builds: on
// a fold host one byte table and the constants, hash/crc32's own cached
// table for IEEE and Castagnoli, and never the slicing tables; on a
// host with the fold but not its 512-bit loops, hash/crc32's path for
// IEEE and Castagnoli.
func TestHardwareBuild(t *testing.T) {
	for _, tc := range []struct {
		fold, wide bool
	}{{true, true}, {true, false}, {false, false}} {
		for _, p := range []Params{CRC32IEEE, CRC32C, CRC32K} {
			hw, err := newHardware(p, tc.fold, tc.wide)
			if err != nil {
				t.Fatal(err)
			}
			rev := uint32(p.Poly.Reversed())
			stdlib := stdlibAccelerated(rev)
			wantFold := tc.fold && (tc.wide || !stdlib)
			if (hw.fold != nil) != wantFold || (hw.slices != nil) != (!tc.fold && !stdlib) {
				t.Errorf("%s fold=%v wide=%v: fold %v, slicing tables %v", p.Name, tc.fold, tc.wide, hw.fold != nil, hw.slices != nil)
			}
			if stdlib && hw.tab != (*[256]uint32)(crc32.MakeTable(rev)) {
				t.Errorf("%s: byte table is not hash/crc32's", p.Name)
			}
			if wantFold && !stdlib && *hw.tab != *(*[256]uint32)(crc32.MakeTable(rev)) {
				t.Errorf("%s: byte table differs from hash/crc32's MakeTable", p.Name)
			}
		}
	}
}

// TestHardwareWithoutFold checks, on every host, the paths a host
// without the fold takes: the slicing loop alone for a generator
// hash/crc32 does not accelerate, hash/crc32's for the two it does.
func TestHardwareWithoutFold(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 1514))
	data := make([]byte, 1514)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	for _, p := range []Params{CRC32K, CRC32IEEE, CRC32C} {
		hw, err := newHardware(p, false, false)
		if err != nil {
			t.Fatal(err)
		}
		stdlib := stdlibAccelerated(uint32(p.Poly.Reversed()))
		if hw.Accelerated() != stdlib {
			t.Errorf("%s: Accelerated() = %v without the fold", p.Name, hw.Accelerated())
		}
		ref := NewBitwise(p)
		for _, n := range []int{0, 15, 16, 64, 200, 1514} {
			if got, want := hw.Checksum(data[:n]), ref.Checksum(data[:n]); got != want {
				t.Fatalf("%s len %d: %#x, want %#x", p.Name, n, got, want)
			}
		}
	}
}
