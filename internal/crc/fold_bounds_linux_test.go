package crc

import (
	"math/rand/v2"
	"syscall"
	"testing"
)

// TestFoldStaysInBounds runs the fold over inputs that start right
// after, or end right before, a page the process may not read, so that
// a load before the input's first byte or past its last faults. The
// tail's last-16-bytes load and the 512-bit loads are the ones at risk.
// It runs with the 512-bit loops (on hosts that have them) and without.
func TestFoldStaysInBounds(t *testing.T) {
	if !foldAvailable {
		t.Skip("no PCLMULQDQ/SSE4.1 fold on this host")
	}
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 4*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	for _, guard := range [][]byte{mem[:page], mem[3*page:]} {
		if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
			t.Skipf("mprotect: %v", err)
		}
	}
	body := mem[page : 3*page]
	rng := rand.New(rand.NewPCG(9, 4096))
	for i := range body {
		body[i] = byte(rng.Uint64())
	}
	for _, wide := range []bool{true, false} {
		if wide && !foldWide {
			continue
		}
		setFoldWide(t, wide)
		for _, p := range []Params{CRC32IEEE, CRC32K} {
			hw, s16, _ := foldEngines(t, p)
			for n := 16; n <= len(body); n += 1 + n/64 {
				for _, d := range [][]byte{body[:n], body[len(body)-n:]} {
					if got, want := hw.Checksum(d), s16.Checksum(d); got != want {
						t.Fatalf("%s wide=%v len %d: %#x, want %#x", p.Name, wide, n, got, want)
					}
				}
			}
		}
	}
}
