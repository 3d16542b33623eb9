package main

import (
	"fmt"
	"hash/crc32"
	"math/bits"
)

// The oracles: the paper's published numbers and arithmetic written here
// from first principles, independent of the program under test.

// column is one Table 1 column: a polynomial in Koopman notation and the
// data-word length (bits) where each Hamming-distance band ends, in
// descending HD order. Values are the paper's Table 1 with its 2014
// errata; the bands are contiguous from 8 bits up.
type column struct {
	koopman uint32
	bands   [][2]int // {HD, last length with that HD}
}

var table1 = []column{
	{0x82608EDB, [][2]int{{12, 12}, {11, 21}, {10, 34}, {9, 57}, {8, 91}, {7, 171}, {6, 268}, {5, 2974}, {4, 91607}, {3, 131072}}},
	{0x8F6E37A0, [][2]int{{12, 20}, {10, 47}, {8, 177}, {6, 5243}, {4, 131072}}},
	{0xBA0DC66B, [][2]int{{12, 16}, {10, 18}, {8, 152}, {6, 16360}, {4, 114663}, {2, 131072}}},
	{0xFA567D89, [][2]int{{12, 11}, {10, 24}, {8, 274}, {6, 32736}, {4, 65502}, {2, 131072}}},
	{0x992C1A4C, [][2]int{{12, 16}, {10, 26}, {8, 134}, {6, 32738}, {4, 65506}, {2, 131072}}},
	{0x90022004, [][2]int{{6, 32738}, {4, 65506}, {2, 131072}}},
	{0xD419CC15, [][2]int{{12, 17}, {11, 21}, {10, 27}, {8, 58}, {7, 81}, {6, 1060}, {5, 65505}, {2, 131072}}},
	{0x80108400, [][2]int{{5, 65505}, {2, 131072}}},
}

// table1MinLen is the shortest length Table 1 reports.
const table1MinLen = 8

// maxLenAtHD is the paper's answer to "longest data word, up to limit,
// with HD at least hd"; ok is false when Table 1 does not say (HD >= hd
// only below 8 bits).
func (c column) maxLenAtHD(hd, limit int) (n int, ok bool) {
	for _, b := range c.bands {
		if b[0] >= hd {
			n, ok = max(n, b[1]), true
		}
	}
	return min(n, limit), ok
}

// fullPoly returns the 33-bit generator of a 32-bit polynomial in
// Koopman notation (the implicit +1 term made explicit).
func fullPoly(koopman uint32) uint64 { return uint64(koopman)<<1 | 1 }

// reciprocal returns the Koopman notation of the reciprocal polynomial,
// which detects exactly the same error patterns.
func reciprocal(koopman uint32) uint32 {
	return uint32(bits.Reverse64(fullPoly(koopman)) >> (64 - 33) >> 1)
}

// undetectable reports whether flipping the codeword bits at positions
// (position 0 is the last bit sent) leaves a valid codeword: whether
// the sum of x^pos is divisible by the generator.
func undetectable(koopman uint32, positions []int) bool {
	g := fullPoly(koopman)
	var sum uint64
	for _, pos := range positions {
		r := uint64(1)
		for i := 0; i < pos; i++ {
			r <<= 1
			if r&(1<<32) != 0 {
				r ^= g
			}
		}
		sum ^= r
	}
	return sum == 0
}

// checkWitness verifies that a reported boundary is backed by a real
// undetectable pattern of exactly w distinct bits inside a codeword of
// dataLen data bits.
func checkWitness(koopman uint32, w, dataLen int, positions []int) error {
	if len(positions) != w {
		return fmt.Errorf("poly %#x: weight-%d witness has %d bits", koopman, w, len(positions))
	}
	seen := map[int]bool{}
	for _, p := range positions {
		if p < 0 || p >= dataLen+32 || seen[p] {
			return fmt.Errorf("poly %#x: witness position %d invalid at %d data bits", koopman, p, dataLen)
		}
		seen[p] = true
	}
	if !undetectable(koopman, positions) {
		return fmt.Errorf("poly %#x: weight-%d witness %v at %d bits is detected", koopman, w, positions, dataLen)
	}
	return nil
}

// The checksum algorithms the workloads use, with the
// standard library's tables as their oracle.
var algorithms = []struct {
	name  string // catalogue name in the program
	layer string // per-layer metric name
	table *crc32.Table
}{
	{"CRC-32/IEEE-802.3", "kernel.ieee", crc32.MakeTable(crc32.IEEE)},
	{"CRC-32C/iSCSI", "kernel.castagnoli", crc32.MakeTable(crc32.Castagnoli)},
	{"CRC-32K/Koopman", "kernel.koopman", crc32.MakeTable(crc32.Koopman)},
}
