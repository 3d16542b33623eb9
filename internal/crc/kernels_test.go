package crc

import (
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"koopmancrc/internal/poly"
)

// reflected32Kernels builds every reflected-32-bit kernel for the
// parameter set, keyed by a short name.
func reflected32Kernels(t *testing.T, p Params) map[string]Engine {
	t.Helper()
	s16, err := NewSlicing16(p)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := NewHardware(p)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewTable(p)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Engine{
		"table": tab, "slicing16": s16, "hardware": hw,
	}
}

// randomReflected32Params derives a random reflected 32-bit parameter
// set (generator, init and xorout all random) from the rng.
func randomReflected32Params(rng *rand.Rand) Params {
	// Koopman form with the top bit forced keeps the generator degree 32;
	// an odd low bit is not required in that notation.
	k := rng.Uint64()&0xFFFFFFFF | 1<<31
	return Params{
		Name:   fmt.Sprintf("rand-%08x", k),
		Poly:   poly.MustKoopman(32, k),
		Init:   uint32(rng.Uint64()),
		RefIn:  true,
		RefOut: true,
		XorOut: uint32(rng.Uint64()),
	}
}

// TestKernelsCrossValidateRandomParams drives every reflected-32-bit
// kernel against the bitwise reference over random generators, random
// init/xorout conventions and payload lengths that exercise the odd
// (non-8-aligned, non-16-aligned) paths of each kernel.
func TestKernelsCrossValidateRandomParams(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 211))
	for trial := 0; trial < 12; trial++ {
		p := randomReflected32Params(rng)
		ref := NewBitwise(p)
		kernels := reflected32Kernels(t, p)
		for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 39, 40, 63, 100, 257, 1024, 4097} {
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(rng.Uint64())
			}
			want := ref.Checksum(data)
			for name, e := range kernels {
				if got := e.Checksum(data); got != want {
					t.Fatalf("%s: %s mismatch at len %d: got %#x want %#x", p.Name, name, n, got, want)
				}
			}
		}
	}
}

// TestKernelsChunkedDigestOddOffsets pins that hash.Hash32 digests over
// each kernel produce the one-shot answer when writes are split at odd,
// adversarial offsets (1-byte writes straddling the 16-byte slicing
// stride included).
func TestKernelsChunkedDigestOddOffsets(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 77))
	params := []Params{CRC32IEEE, CRC32C, CRC32K, randomReflected32Params(rng)}
	for _, p := range params {
		ref := NewBitwise(p)
		data := make([]byte, 1033) // prime-ish, not a multiple of any stride
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		want := ref.Checksum(data)
		for name, e := range reflected32Kernels(t, p) {
			for _, cuts := range [][]int{
				{1}, {7}, {17}, {23}, {24}, {1, 2, 3}, {5, 30, 100, 1000}, {512, 513},
			} {
				d := NewDigest(e)
				prev := 0
				for _, c := range cuts {
					d.Write(data[prev:c])
					prev = c
				}
				d.Write(data[prev:])
				if got := d.Sum32(); got != want {
					t.Fatalf("%s: %s chunked at %v: got %#x want %#x", p.Name, name, cuts, got, want)
				}
			}
		}
	}
}

// TestKernelsRefuseInadmissibleParams pins that the reflected-32-only
// kernels reject non-reflected and non-32-bit parameter sets with a
// clear error naming the requirement.
func TestKernelsRefuseInadmissibleParams(t *testing.T) {
	nonReflected := CRC32IEEE
	nonReflected.RefIn, nonReflected.RefOut = false, false
	halfReflected := CRC32IEEE
	halfReflected.RefOut = false
	cases := []struct {
		name    string
		params  Params
		wantSub string
	}{
		{"width16", CRC16ARC, "width 32"},
		{"width8", CRC8DARC, "width 32"},
		{"non-reflected", nonReflected, "reflected"},
		{"half-reflected", halfReflected, "reflected"},
	}
	builders := map[string]func(Params) (Engine, error){
		"slicing16": func(p Params) (Engine, error) { return NewSlicing16(p) },
		"hardware":  func(p Params) (Engine, error) { return NewHardware(p) },
	}
	for bname, build := range builders {
		for _, tc := range cases {
			if _, err := build(tc.params); err == nil {
				t.Errorf("%s: expected error for %s params", bname, tc.name)
			} else if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("%s/%s: error %q does not name the %q requirement", bname, tc.name, err, tc.wantSub)
			}
		}
	}
}

// TestHardwareAccelerated pins which generators the hardware engine
// reports a fast path for, and which path it is: the fold for every
// generator where the CPU has its 512-bit loops, the fold for CRC-32K
// and hash/crc32 for IEEE and Castagnoli where it has only the 128-bit
// loop, and hash/crc32 for those two alone where it has no fold.
func TestHardwareAccelerated(t *testing.T) {
	for _, tc := range []struct {
		p                 Params
		accelerated, fold bool
	}{
		{CRC32IEEE, true, foldWide},
		{CRC32C, true, foldWide},
		{CRC32K, foldAvailable, foldAvailable},
	} {
		hw, err := NewHardware(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if hw.Accelerated() != tc.accelerated {
			t.Errorf("%s: Accelerated() = %v, want %v", tc.p.Name, hw.Accelerated(), tc.accelerated)
		}
		if (hw.fold != nil) != tc.fold {
			t.Errorf("%s: fold engaged %v, want %v", tc.p.Name, hw.fold != nil, tc.fold)
		}
	}
}

// throughput measures one checksum function's bytes/sec over a payload
// with a tiny fixed time budget — enough resolution to separate a CLMUL or
// CRC32-instruction path (tens of GB/s) from software slicing.
func throughput(checksum func([]byte) uint32, data []byte) float64 {
	checksum(data) // warm tables and caches
	var done int64
	start := time.Now()
	for time.Since(start) < 30*time.Millisecond {
		checksum(data)
		done += int64(len(data))
	}
	return float64(done) / time.Since(start).Seconds()
}

// TestHardwarePathEngaged asserts the hardware engine actually beats
// the kernel it replaces on this host. Against slicing-by-16, the
// software kernel New falls back to: for Castagnoli where hash/crc32
// runs it, the stdlib decides at run time, and on hosts without
// SSE4.2/ARMv8 CRC32 it falls back to its own software slicing, so that
// leg is skipped rather than failed — detection is empirical. For
// CRC-32K the fold runs exactly where the CPUID probe found PCLMULQDQ
// and SSE4.1, so that leg is asserted whenever the probe says so.
// Against hash/crc32 itself at 64 KiB: where the probe found the
// 512-bit loops, IEEE and Castagnoli fold, and must run at least 1.5x
// the stdlib.
func TestHardwarePathEngaged(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement in -short mode")
	}
	data := make([]byte, 1<<20)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	measure := func(t *testing.T, p Params) (hwBps, s16Bps float64) {
		hw, err := NewHardware(p)
		if err != nil {
			t.Fatal(err)
		}
		s16, err := NewSlicing16(p)
		if err != nil {
			t.Fatal(err)
		}
		hwBps, s16Bps = throughput(hw.Checksum, data), throughput(s16.Checksum, data)
		t.Logf("%s: hardware %.2f GB/s, slicing16 %.2f GB/s, ratio %.2fx",
			p.Name, hwBps/1e9, s16Bps/1e9, hwBps/s16Bps)
		return hwBps, s16Bps
	}
	t.Run("castagnoli", func(t *testing.T) {
		hwBps, s16Bps := measure(t, CRC32C)
		if hwBps < 1.5*s16Bps {
			t.Skip("no hardware CRC acceleration detected on this host (stdlib fell back to software)")
		}
		if hwBps < 2*s16Bps {
			t.Errorf("hardware path engaged but only %.2fx slicing16", hwBps/s16Bps)
		}
	})
	t.Run("koopman", func(t *testing.T) {
		if !foldAvailable {
			t.Skip("no PCLMULQDQ/SSE4.1 fold on this host")
		}
		if hwBps, s16Bps := measure(t, CRC32K); hwBps < 2*s16Bps {
			t.Errorf("fold on but only %.2fx slicing16", hwBps/s16Bps)
		}
	})
	for _, tc := range []struct {
		name string
		p    Params
		poly uint32
	}{{"ieee-vs-stdlib", CRC32IEEE, crc32.IEEE}, {"castagnoli-vs-stdlib", CRC32C, crc32.Castagnoli}} {
		t.Run(tc.name, func(t *testing.T) {
			if !foldWide {
				t.Skip("no AVX-512 VPCLMULQDQ on this host: hash/crc32 runs IEEE and Castagnoli")
			}
			hw, err := NewHardware(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			tab := crc32.MakeTable(tc.poly)
			stdlib := func(d []byte) uint32 { return crc32.Checksum(d, tab) }
			d := data[:64<<10]
			hwBps, stdBps := throughput(hw.Checksum, d), throughput(stdlib, d)
			t.Logf("%s: hardware %.2f GB/s, hash/crc32 %.2f GB/s, ratio %.2fx",
				tc.p.Name, hwBps/1e9, stdBps/1e9, hwBps/stdBps)
			if hwBps < 1.5*stdBps {
				t.Errorf("512-bit fold on but only %.2fx hash/crc32", hwBps/stdBps)
			}
		})
	}
}
