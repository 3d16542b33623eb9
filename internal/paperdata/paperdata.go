// Package paperdata records the quantitative claims of Koopman, "32-Bit
// Cyclic Redundancy Codes for Internet Applications" (DSN 2002, with the
// 2014 errata), in machine-checkable form, and compares computed results
// against them. It is the single source of truth for EXPERIMENTS.md.
//
// Provenance of each anchor is tagged: "prose" (stated in the running
// text), "table1" (legible Table 1 cell), "errata" (the 2014 correction),
// "derived" (reconstructed from garbled Table 1 cells via band contiguity
// and cross-row consistency; see DESIGN.md), or "measured" (our
// computation; the source cell is illegible).
package paperdata

import (
	"fmt"

	"koopmancrc/internal/poly"
)

// Message lengths from the paper (data-word bits, excluding the CRC).
const (
	// AckDataBits is a 40-byte TCP acknowledgment packet: 400-bit data
	// word including 80 bits of protocol overhead.
	AckDataBits = 400
	// Ack512DataBits is an acknowledgment carrying 512 bytes of data.
	Ack512DataBits = 4496
	// MTUDataBits is the Ethernet maximum transmission unit data word,
	// the paper's headline evaluation length.
	MTUDataBits = 12112
	// MTUCodewordBits includes the 32-bit FCS.
	MTUCodewordBits = 12144
	// JumboDataBits is a 9000-byte Gigabit Ethernet jumbo frame payload.
	JumboDataBits = 72112
	// MaxComputedBits is the largest data-word length Table 1 covers.
	MaxComputedBits = 131072
	// Table1MinBits is the smallest length Table 1 reports.
	Table1MinBits = 8
)

// BandAnchor states that a polynomial holds exactly the given HD up to and
// including data-word length To (and the next band begins at To+1).
type BandAnchor struct {
	HD     int
	To     int
	Open   bool   // band extends beyond the computed range (To==MaxComputedBits)
	Source string // provenance tag
}

// Column is one Table 1 column: a polynomial and its expected band ends.
type Column struct {
	Label   string
	P       poly.P
	Shape   string
	Period  uint64       // expected ord(x); 0 when beyond Table 1's range
	Anchors []BandAnchor // descending HD, contiguous over [Table1MinBits, MaxComputedBits]
	MaxHD   int          // profile depth needed to resolve every anchor
}

// Table1Columns returns the expected Table 1 content.
func Table1Columns() []Column {
	return []Column{
		{
			Label: "IEEE 802.3", P: poly.IEEE8023, Shape: "{32}", Period: 0,
			MaxHD: 13,
			Anchors: []BandAnchor{
				{HD: 12, To: 12, Source: "derived"},
				{HD: 11, To: 21, Source: "derived"},
				{HD: 10, To: 34, Source: "derived"},
				{HD: 9, To: 57, Source: "derived"},
				{HD: 8, To: 91, Source: "prose"},
				{HD: 7, To: 171, Source: "prose"},
				{HD: 6, To: 268, Source: "prose"},
				{HD: 5, To: 2974, Source: "prose"},
				{HD: 4, To: 91607, Source: "prose"},
				{HD: 3, To: MaxComputedBits, Open: true, Source: "prose"},
			},
		},
		{
			Label: "Castagnoli iSCSI 0x8F6E37A0", P: poly.CastagnoliISCSI, Shape: "{1,31}",
			Period: 2147483647, MaxHD: 13,
			Anchors: []BandAnchor{
				{HD: 12, To: 20, Source: "derived"},
				{HD: 10, To: 47, Source: "derived"},
				{HD: 8, To: 177, Source: "table1"},
				{HD: 6, To: 5243, Source: "table1"},
				{HD: 4, To: MaxComputedBits, Open: true, Source: "table1"},
			},
		},
		{
			Label: "Koopman 0xBA0DC66B", P: poly.Koopman32K, Shape: "{1,3,28}",
			Period: 114695, MaxHD: 13,
			Anchors: []BandAnchor{
				{HD: 12, To: 16, Source: "derived"},
				{HD: 10, To: 18, Source: "derived"},
				{HD: 8, To: 152, Source: "table1"},
				{HD: 6, To: 16360, Source: "prose"},
				{HD: 4, To: 114663, Source: "prose"},
				{HD: 2, To: MaxComputedBits, Open: true, Source: "table1"},
			},
		},
		{
			Label: "Castagnoli 0xFA567D89", P: poly.Castagnoli1131515, Shape: "{1,1,15,15}",
			Period: 65534, MaxHD: 13,
			Anchors: []BandAnchor{
				{HD: 12, To: 11, Source: "derived"},
				{HD: 10, To: 24, Source: "derived"},
				{HD: 8, To: 274, Source: "table1"},
				{HD: 6, To: 32736, Source: "table1"},
				{HD: 4, To: 65502, Source: "table1"},
				{HD: 2, To: MaxComputedBits, Open: true, Source: "table1"},
			},
		},
		{
			Label: "Koopman 0x992C1A4C", P: poly.Koopman1130, Shape: "{1,1,30}",
			Period: 65538, MaxHD: 13,
			Anchors: []BandAnchor{
				{HD: 12, To: 16, Source: "derived"},
				{HD: 10, To: 26, Source: "derived"},
				{HD: 8, To: 134, Source: "table1"},
				{HD: 6, To: 32738, Source: "errata"},
				{HD: 4, To: 65506, Source: "derived"},
				{HD: 2, To: MaxComputedBits, Open: true, Source: "table1"},
			},
		},
		{
			Label: "Koopman 0x90022004", P: poly.KoopmanSparse6, Shape: "{1,1,30}",
			Period: 65538, MaxHD: 7,
			Anchors: []BandAnchor{
				{HD: 6, To: 32738, Source: "table1"},
				{HD: 4, To: 65506, Source: "derived"},
				{HD: 2, To: MaxComputedBits, Open: true, Source: "table1"},
			},
		},
		{
			Label: "Castagnoli 0xD419CC15", P: poly.CastagnoliHD5, Shape: "{32}",
			Period: 65537, MaxHD: 13,
			Anchors: []BandAnchor{
				{HD: 12, To: 17, Source: "derived"},
				{HD: 11, To: 21, Source: "derived"},
				{HD: 10, To: 27, Source: "derived"},
				{HD: 8, To: 58, Source: "derived"},
				{HD: 7, To: 81, Source: "derived"},
				{HD: 6, To: 1060, Source: "table1"},
				{HD: 5, To: 65505, Source: "table1"},
				{HD: 2, To: MaxComputedBits, Open: true, Source: "table1"},
			},
		},
		{
			Label: "Koopman 0x80108400", P: poly.KoopmanSparse5, Shape: "{32}",
			Period: 65537, MaxHD: 6,
			Anchors: []BandAnchor{
				{HD: 5, To: 65505, Source: "table1"},
				{HD: 2, To: MaxComputedBits, Open: true, Source: "table1"},
			},
		},
	}
}

// WeightAnchor is an exact weight value stated in the paper.
type WeightAnchor struct {
	P       poly.P
	W       int
	DataLen int
	Count   uint64
	Source  string
}

// WeightAnchors returns the paper's exact weight claims.
func WeightAnchors() []WeightAnchor {
	return []WeightAnchor{
		{P: poly.IEEE8023, W: 4, DataLen: MTUDataBits, Count: 223059, Source: "prose §3"},
		{P: poly.IEEE8023, W: 4, DataLen: 2975, Count: 1, Source: "prose §4.1"},
		{P: poly.IEEE8023, W: 4, DataLen: 2974, Count: 0, Source: "prose §4.1"},
	}
}

// GlobalClaims are paper statements about the whole design space that our
// reproduction checks on the Table 1 polynomials (full-space verification
// is the original multi-CPU-year campaign).
const (
	// NoHD6AtOrAbove is the length from §4.2: "no possible polynomials of
	// any class with HD=6 at or above 32739 bits".
	NoHD6AtOrAbove = 32739
	// NoHD5AtOrAbove: "no polynomials with HD=5 at or above 65507 bits".
	NoHD5AtOrAbove = 65507
	// HD6SurvivorsAtMTU is the §4.2 prose count of polynomials with HD=6
	// at 12112 bits (21,292), all divisible by (x+1).
	HD6SurvivorsAtMTU = 21292
	// Table2Sum is what the published Table 2 classes actually add up to.
	// It disagrees with the prose count by exactly 100 — an internal
	// inconsistency of the paper that EXPERIMENTS.md documents (we cannot
	// resolve which figure is correct without the full-space campaign).
	Table2Sum = 21392
)

// Table2Expected is the paper's Table 2: distinct polynomials achieving
// HD=6 at MTU length, per factorization class.
var Table2Expected = map[string]int{
	"{1,1,30}":        658,
	"{1,3,28}":        448,
	"{1,1,15,15}":     9887,
	"{1,1,2,28}":      895,
	"{1,3,14,14}":     4154,
	"{1,1,1,1,28}":    448,
	"{1,1,2,14,14}":   2639,
	"{1,1,1,1,14,14}": 2263,
}

// CheckResult is one compared value.
type CheckResult struct {
	Name     string
	Expected string
	Measured string
	Source   string
	Match    bool
}

// CompareProfile checks a computed column against a column's anchors.
// maxLenAtHD is the column's largest length with HD at least hd, and
// false when even length 1 falls short (koopmancrc.Report.MaxLenAtHD).
func CompareProfile(col Column, maxLenAtHD func(hd int) (int, bool)) []CheckResult {
	var out []CheckResult
	for _, a := range col.Anchors {
		got, ok := maxLenAtHD(a.HD)
		name := fmt.Sprintf("%s HD=%d through", col.Label, a.HD)
		expected := fmt.Sprintf("%d", a.To)
		if a.Open {
			expected = fmt.Sprintf(">=%d", a.To)
		}
		measured := "none"
		if ok {
			measured = fmt.Sprintf("%d", got)
		}
		match := ok && (got == a.To || (a.Open && got >= a.To))
		out = append(out, CheckResult{
			Name: name, Expected: expected, Measured: measured,
			Source: a.Source, Match: match,
		})
	}
	return out
}
