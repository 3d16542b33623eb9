package koopmancrc

import (
	"context"
	"hash/crc32"
	"testing"

	"koopmancrc/crchash"
)

func TestParseAndNotations(t *testing.T) {
	p, err := ParsePolynomial(32, Koopman, "0xBA0DC66B")
	if err != nil {
		t.Fatal(err)
	}
	if p != Koopman32K {
		t.Fatalf("parsed %v", p)
	}
	if p.In(Normal) != 0x741B8CD7 || p.In(Reversed) != 0xEB31D82E {
		t.Errorf("notations: normal %#x reversed %#x", p.In(Normal), p.In(Reversed))
	}
	if _, err := ParsePolynomial(32, Koopman, "xyz"); err == nil {
		t.Error("expected parse error")
	}
}

func TestEvaluate8023Short(t *testing.T) {
	rep, err := NewAnalyzer(IEEE8023).Evaluate(context.Background(), 512)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shape != "{32}" || rep.ParityBit {
		t.Errorf("shape %s parity %v", rep.Shape, rep.ParityBit)
	}
	hd, atLeast, ok := rep.HDAt(400) // 40-byte ack packet
	if !ok || atLeast || hd != 5 {
		t.Errorf("HD at 400 bits = %d (atLeast=%v ok=%v), want exactly 5", hd, atLeast, ok)
	}
	if l, ok := rep.MaxLenAtHD(6); !ok || l != 268 {
		t.Errorf("MaxLenAtHD(6) = %d, want 268", l)
	}
}

func TestHammingDistanceAt(t *testing.T) {
	hd, exact, err := NewAnalyzer(Koopman32K, WithMaxHD(8)).HDAt(context.Background(), 1024)
	if err != nil {
		t.Fatal(err)
	}
	if !exact || hd != 6 {
		t.Errorf("HD = %d exact=%v, want 6", hd, exact)
	}
}

func TestUndetectableWeightAndWitness(t *testing.T) {
	ctx := context.Background()
	w4, err := NewAnalyzer(IEEE8023).Weight(ctx, 4, 2975)
	if err != nil {
		t.Fatal(err)
	}
	if w4 != 1 {
		t.Errorf("W4(2975) = %d, want 1 (paper §4.1)", w4)
	}
	wit, found, err := NewAnalyzer(IEEE8023).Witness(ctx, 4, 2975)
	if err != nil || !found || len(wit) != 4 {
		t.Errorf("witness = %v found=%v err=%v", wit, found, err)
	}
	_, found, err = NewAnalyzer(Koopman32K).Witness(ctx, 4, 2975)
	if err != nil || found {
		t.Errorf("0xBA0DC66B should have no 4-bit failures at 2975 bits (found=%v err=%v)", found, err)
	}
}

func TestSelectPolynomialPrefersKoopmanAtISCSILengths(t *testing.T) {
	// §4.3: at MTU-ish lengths 0xBA0DC66B (HD=6) beats the drafted iSCSI
	// polynomial 0x8F6E37A0 (HD=4). Use a shorter length for test speed:
	// at 4096 bits the iSCSI polynomial already has HD=6 but 0xBA0DC66B
	// holds HD=6 further (16360 vs 5243).
	ctx := context.Background()
	ranked, err := Select(ctx, []Polynomial{CastagnoliISCSI, Koopman32K, IEEE8023}, 4096, WithMaxHD(8))
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0].Poly != Koopman32K {
		t.Fatalf("ranked[0] = %v, want 0xBA0DC66B", ranked[0].Poly)
	}
	if ranked[0].HD != 6 || ranked[0].CoverageAtHD != 16360 {
		t.Errorf("best: HD=%d coverage=%d, want 6/16360", ranked[0].HD, ranked[0].CoverageAtHD)
	}
	if ranked[1].Poly != CastagnoliISCSI || ranked[1].CoverageAtHD != 5243 {
		t.Errorf("second: %v coverage %d, want iSCSI/5243", ranked[1].Poly, ranked[1].CoverageAtHD)
	}
	if ranked[2].Poly != IEEE8023 || ranked[2].HD != 4 {
		t.Errorf("third: %v HD %d, want 802.3/4", ranked[2].Poly, ranked[2].HD)
	}
	if _, err := Select(ctx, nil, 100, WithMaxHD(8)); err == nil {
		t.Error("empty candidates should error")
	}
}

func TestSearchSmallWidth(t *testing.T) {
	res, err := Search(context.Background(), SearchConfig{
		Width: 8, MinHD: 4, Lengths: []int{9, 19},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Survivors) == 0 {
		t.Fatal("expected survivors")
	}
	if res.Candidates != 72 { // canonical width-8 candidates
		t.Errorf("candidates = %d, want 72", res.Candidates)
	}
	total := 0
	for _, n := range res.CensusByShape {
		total += n
	}
	if total != len(res.Survivors) {
		t.Errorf("census sums to %d, survivors %d", total, len(res.Survivors))
	}
	// Every survivor must genuinely achieve the HD.
	for _, p := range res.Survivors {
		hd, _, err := NewAnalyzer(p, WithMaxHD(6)).HDAt(context.Background(), 19)
		if err != nil {
			t.Fatal(err)
		}
		if hd < 4 {
			t.Errorf("survivor %v has HD %d at 19 bits", p, hd)
		}
	}
	if res.PolysPerSecond <= 0 {
		t.Error("throughput should be positive")
	}
}

func TestSearchParallelismMatchesSequential(t *testing.T) {
	seq, err := Search(context.Background(), SearchConfig{
		Width: 10, MinHD: 4, Lengths: []int{11, 25}, Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Search(context.Background(), SearchConfig{
		Width: 10, MinHD: 4, Lengths: []int{11, 25}, Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if par.Candidates != seq.Candidates || len(par.Survivors) != len(seq.Survivors) {
		t.Fatalf("parallel %d/%d, sequential %d/%d",
			par.Candidates, len(par.Survivors), seq.Candidates, len(seq.Survivors))
	}
	for i := range par.Survivors {
		if par.Survivors[i] != seq.Survivors[i] {
			t.Errorf("survivor %d: %v vs %v", i, par.Survivors[i], seq.Survivors[i])
		}
	}
}

func TestSearchValidation(t *testing.T) {
	if _, err := Search(context.Background(), SearchConfig{Width: 99, MinHD: 4, Lengths: []int{8}}); err == nil {
		t.Error("bad width should error")
	}
	if _, err := Search(context.Background(), SearchConfig{Width: 8, MinHD: 1, Lengths: []int{8}}); err == nil {
		t.Error("bad MinHD should error")
	}
	if _, err := Search(context.Background(), SearchConfig{Width: 8, MinHD: 4}); err == nil {
		t.Error("missing lengths should error")
	}
}

func TestChecksumMatchesStdlib(t *testing.T) {
	data := []byte("The quick brown fox jumps over the lazy dog")
	got, err := crchash.Checksum("CRC-32/IEEE-802.3", data)
	if err != nil {
		t.Fatal(err)
	}
	if want := crc32.ChecksumIEEE(data); got != want {
		t.Errorf("Checksum = %#x, want %#x", got, want)
	}
	got, err = crchash.Checksum("CRC-32C/iSCSI", data)
	if err != nil {
		t.Fatal(err)
	}
	if want := crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli)); got != want {
		t.Errorf("CRC-32C = %#x, want %#x", got, want)
	}
	if _, err := crchash.Checksum("nope", data); err == nil {
		t.Error("unknown algorithm should error")
	}
}

func TestNewEngineStreaming(t *testing.T) {
	e, err := crchash.ForAlgorithm("CRC-32K/Koopman")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("streaming interface check")
	s := e.Update(e.Init(), data[:7])
	s = e.Update(s, data[7:])
	if e.Finalize(s) != e.Checksum(data) {
		t.Error("streaming disagrees with one-shot")
	}
	if len(crchash.Algorithms()) < 5 {
		t.Errorf("catalogue too small: %v", crchash.Algorithms())
	}
}

func TestTable1Polynomials(t *testing.T) {
	ps := Table1Polynomials()
	if len(ps) != 8 {
		t.Fatalf("%d polynomials, want 8", len(ps))
	}
	if ps[0] != IEEE8023 || ps[2] != Koopman32K {
		t.Error("unexpected column order")
	}
}

func TestFrameHelpers(t *testing.T) {
	payload := []byte("frame helper payload bytes")
	frame, err := AppendFCS(IEEE8023, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyFCS(IEEE8023, frame) {
		t.Fatal("freshly framed codeword should verify")
	}
	// A single-bit error is always caught.
	if err := CorruptCodeword(frame, []int{5}); err != nil {
		t.Fatal(err)
	}
	if VerifyFCS(IEEE8023, frame) {
		t.Fatal("single-bit error must be detected")
	}
	if err := CorruptCodeword(frame, []int{5}); err != nil {
		t.Fatal(err)
	}
	// An undetectable witness pattern is, by construction, not caught.
	wit, found, err := NewAnalyzer(IEEE8023).Witness(context.Background(), 4, len(payload)*8)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		if err := CorruptCodeword(frame, wit); err != nil {
			t.Fatal(err)
		}
		if !VerifyFCS(IEEE8023, frame) {
			t.Fatal("witness pattern should pass the CRC undetected")
		}
	}
	if _, err := AppendFCS(MustPolynomial(5, Normal, "0x05"), payload); err == nil {
		t.Error("non-byte width should error")
	}
}
