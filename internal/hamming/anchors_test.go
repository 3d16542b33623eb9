package hamming

import (
	"testing"

	"koopmancrc/internal/poly"
)

// These tests pin the evaluator to values stated in the paper's prose,
// Table 1 (where legible) and the 2014 errata. Only computations cheap
// enough for routine test runs appear here; the full Table 1 reproduction
// to 131072 bits lives in internal/paperdata and cmd/crctables.

func TestAnchor8023Breakpoint(t *testing.T) {
	// §4.1 worked example: the 802.3 HD=5 to HD=4 transition falls between
	// 2974 and 2975 bits, and W4(2975) = 1 — "exactly one such undetected
	// error".
	e := New(poly.IEEE8023)
	n, wit, found, err := e.FirstDataLen(4, 4000)
	if err != nil || !found {
		t.Fatalf("FirstDataLen(4): %v %v", found, err)
	}
	if n != 2975 {
		t.Fatalf("802.3 weight-4 boundary = %d, want 2975", n)
	}
	if len(wit) != 4 {
		t.Fatalf("witness %v", wit)
	}
	w4, err := e.Weight(4, 2975)
	if err != nil {
		t.Fatal(err)
	}
	if w4 != 1 {
		t.Fatalf("W4(2975) = %d, want 1", w4)
	}
	w4prev, err := e.Weight(4, 2974)
	if err != nil {
		t.Fatal(err)
	}
	if w4prev != 0 {
		t.Fatalf("W4(2974) = %d, want 0", w4prev)
	}
}

func TestAnchor8023Bands(t *testing.T) {
	// Prose: "the 802.3 polynomial has a HD greater than or equal to 8 up
	// to a data word length of 91 bits, HD=7 to 171 bits, HD=6 to 268 bits,
	// HD=5 to 2974 bits".
	first := column(t, New(poly.IEEE8023), 4096, 8)
	wantBoundaries := map[int]int{5: 269, 6: 172, 7: 92, 4: 2975}
	for w, want := range wantBoundaries {
		if first[w] != want {
			t.Errorf("weight-%d boundary = %d, want %d", w, first[w], want)
		}
	}
	checks := []struct {
		hd, maxLen int
	}{{8, 91}, {7, 171}, {6, 268}, {5, 2974}}
	for _, c := range checks {
		if got := maxLenAtHD(first, 4096, c.hd); got != c.maxLen {
			t.Errorf("maxLenAtHD(%d) = %d, want %d", c.hd, got, c.maxLen)
		}
	}
}

func TestAnchorISCSIBands(t *testing.T) {
	// Table 1 column 2 (0x8F6E37A0): HD=8 for 48-177, HD=6 for 178-5243,
	// HD=4 from 5244 — "only has HD=6 up to less than half an Ethernet MTU".
	got := column(t, New(poly.CastagnoliISCSI), 8192, 9)
	want := map[int]int{4: 5244, 6: 178, 8: 48}
	for w, n := range want {
		if got[w] != n {
			t.Errorf("weight-%d boundary = %d, want %d", w, got[w], n)
		}
	}
	if _, found := got[3]; found {
		t.Error("odd weight boundary found for (x+1)-divisible polynomial")
	}
	if l := maxLenAtHD(got, 8192, 6); l != 5243 {
		t.Errorf("maxLenAtHD(6) = %d, want 5243", l)
	}
}

func TestAnchorBA0DC66BShortBands(t *testing.T) {
	// Table 1 column 3 (0xBA0DC66B): HD=8 for 19-152, HD=6 from 153 (the
	// 16360 upper end is exercised in the full Table 1 reproduction).
	got := column(t, New(poly.Koopman32K), 1024, 13)
	if got[6] != 153 {
		t.Errorf("weight-6 boundary = %d, want 153", got[6])
	}
	if got[8] != 19 {
		t.Errorf("weight-8 boundary = %d, want 19", got[8])
	}
	for _, w := range []int{3, 5, 7} {
		if _, ok := got[w]; ok {
			t.Errorf("unexpected odd weight-%d boundary", w)
		}
	}
}

func TestAnchorCastagnoliErratum(t *testing.T) {
	// §3: the misprinted Castagnoli polynomial 1F6ACFB13 "has HD=6 up to a
	// length of only 382 bits and so should not be used". Both of our
	// engines (the boundary scan and paper-faithful brute force)
	// independently find the first weight-5 pattern at 384 bits — HD=6
	// through 383, one bit past the paper's prose. EXPERIMENTS.md records
	// the deviation; the paper's point (HD=6 collapses around ~0.4 Kbit
	// instead of ~32 Kbit) reproduces exactly.
	misprint := column(t, New(poly.CastagnoliMisprint), 1024, 8)
	if l := maxLenAtHD(misprint, 1024, 6); l != 383 {
		t.Fatalf("misprint maxLenAtHD(6) = %d, want 383 (paper prose: 382)", l)
	}
	// The corrected polynomial keeps HD=6 well past that.
	ok, err := New(poly.Castagnoli1131515).MeetsHDAtLengths([]int{1024}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("corrected 0xFA567D89 should have HD>=6 at 1024 bits")
	}
	// Cross-check with the paper-faithful engine at the boundary. The two
	// enumerations take about 11 s each, so they run in parallel, each in
	// its own Evaluator: one is not safe for concurrent use.
	t.Run("brute383", func(t *testing.T) {
		t.Parallel()
		if _, found, err := New(poly.CastagnoliMisprint).ExistsBrute(5, 383, OrderLex); err != nil || found {
			t.Fatalf("brute Exists(5, 383) = %v, %v; want none", found, err)
		}
	})
	t.Run("brute384", func(t *testing.T) {
		t.Parallel()
		if _, found, err := New(poly.CastagnoliMisprint).ExistsBrute(5, 384, OrderFCSFirst); err != nil || !found {
			t.Fatalf("brute Exists(5, 384) = %v, %v; want found", found, err)
		}
	})
}

func TestAnchorCCITT16(t *testing.T) {
	// CRC-16/CCITT: period 32767, so HD >= 4 holds through 32751 data bits
	// ((x+1)-divisibility kills weight 3) and fails at 32752.
	e := New(poly.CCITT16)
	n2, wit, found, err := e.FirstDataLen(2, 40000)
	if err != nil || !found {
		t.Fatalf("FirstDataLen(2): %v %v", found, err)
	}
	if n2 != 32752 {
		t.Fatalf("weight-2 boundary = %d, want 32752", n2)
	}
	if wit[1] != 32767 {
		t.Fatalf("witness %v, want {0, 32767}", wit)
	}
	ok, err := e.MeetsHDAtLengths([]int{32751}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("CCITT-16 should hold HD>=4 at 32751 bits")
	}
	ok, err = e.MeetsHDAtLengths([]int{32752}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("CCITT-16 must fail HD>=4 at 32752 bits")
	}
}

func TestAnchorMTUHammingDistances(t *testing.T) {
	if testing.Short() {
		t.Skip("MTU-length evaluation in -short mode")
	}
	// The paper's headline comparison at the Ethernet MTU data-word length
	// of 12112 bits: 802.3 and the iSCSI polynomial achieve HD=4, the new
	// {1,3,28} polynomial achieves HD=6.
	tests := []struct {
		p    poly.P
		want int
	}{
		{poly.IEEE8023, 4},
		{poly.CastagnoliISCSI, 4},
		{poly.Koopman32K, 6},
		{poly.Koopman1130, 6},
		{poly.KoopmanSparse6, 6},
		{poly.Castagnoli1131515, 6},
		{poly.CastagnoliHD5, 5},
		{poly.KoopmanSparse5, 5},
	}
	for _, tt := range tests {
		hd, exact, err := hdAt(New(tt.p), 12112, 7)
		if err != nil {
			t.Fatalf("%v: %v", tt.p, err)
		}
		if !exact || hd != tt.want {
			t.Errorf("HD(%v @ MTU) = %d (exact=%v), want %d", tt.p, hd, exact, tt.want)
		}
	}
}

func TestAnchorW4AtMTU(t *testing.T) {
	if testing.Short() {
		t.Skip("exact MTU weight in -short mode")
	}
	// §3: the 802.3 CRC at 12112 bits has weights {W2=0, W3=0, W4=223059}.
	e := New(poly.IEEE8023)
	var ws []uint64
	for w := 2; w <= 4; w++ {
		c, err := e.Weight(w, 12112)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, c)
	}
	if ws[0] != 0 || ws[1] != 0 || ws[2] != 223059 {
		t.Fatalf("weights at MTU = %v, want [0 0 223059]", ws)
	}
}
