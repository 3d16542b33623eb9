package core

import (
	"context"
	"testing"

	"koopmancrc/internal/hamming"
	"koopmancrc/internal/poly"
)

func TestSpaceCountsMatchPaper(t *testing.T) {
	// §1: "The entire set of 1,073,774,592 distinct polynomials has been
	// evaluated" — 2^30 pairs plus 2^15 palindromes.
	s, err := NewSpace(32)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.TotalPolynomials(); got != 1<<31 {
		t.Errorf("TotalPolynomials = %d", got)
	}
	if got := s.Palindromes(); got != 1<<16 {
		t.Errorf("Palindromes = %d, want 65536", got)
	}
	if got := s.CanonicalCount(); got != 1073774592 {
		t.Errorf("CanonicalCount = %d, want 1073774592 (the paper's count)", got)
	}
}

func TestSpaceEnumerationCoversEveryPolynomialOnce(t *testing.T) {
	// For width 8: every one of the 128 generators must be reachable as
	// either a canonical candidate or the reciprocal of one, exactly once.
	s, err := NewSpace(8)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]int)
	visited, err := s.Enumerate(0, s.TotalPolynomials(), func(p poly.P) bool {
		seen[p.Koopman()]++
		r := p.Reciprocal()
		if r != p {
			seen[r.Koopman()]++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != s.CanonicalCount() {
		t.Errorf("visited %d canonical, want %d", visited, s.CanonicalCount())
	}
	if uint64(len(seen)) != s.TotalPolynomials() {
		t.Errorf("covered %d polynomials, want %d", len(seen), s.TotalPolynomials())
	}
	for k, c := range seen {
		if c != 1 {
			t.Errorf("polynomial %#x covered %d times", k, c)
		}
	}
}

func TestSpaceEnumerationRangesCompose(t *testing.T) {
	s, _ := NewSpace(8)
	var whole []uint64
	if _, err := s.Enumerate(0, 128, func(p poly.P) bool {
		whole = append(whole, p.Koopman())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	var parts []uint64
	for _, r := range [][2]uint64{{0, 17}, {17, 64}, {64, 101}, {101, 128}} {
		if _, err := s.Enumerate(r[0], r[1], func(p poly.P) bool {
			parts = append(parts, p.Koopman())
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(whole) != len(parts) {
		t.Fatalf("whole %d != parts %d", len(whole), len(parts))
	}
	for i := range whole {
		if whole[i] != parts[i] {
			t.Fatalf("mismatch at %d: %#x vs %#x", i, whole[i], parts[i])
		}
	}
}

func TestSpaceValidation(t *testing.T) {
	if _, err := NewSpace(1); err == nil {
		t.Error("width 1 should be rejected")
	}
	if _, err := NewSpace(33); err == nil {
		t.Error("width 33 should be rejected")
	}
}

func TestSmallWidthCanonicalCountByHand(t *testing.T) {
	// Width 3: polynomials 1001,1011,1101,1111 (full form); 1011 and 1101
	// are reciprocal, 1001 and 1111 palindromic: 3 canonical candidates.
	s, _ := NewSpace(3)
	if got := s.CanonicalCount(); got != 3 {
		t.Errorf("CanonicalCount(3) = %d, want 3", got)
	}
	count, err := s.Enumerate(0, 4, func(poly.P) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("enumerated %d, want 3", count)
	}
}

// bruteSurvivors is the §4.2 filter written directly on the
// paper-faithful enumeration engine in the given order: every canonical
// candidate of the space, kept if it reaches minHD at each length.
func bruteSurvivors(t *testing.T, s Space, lengths []int, minHD int, order hamming.Order) []poly.P {
	t.Helper()
	var out []poly.P
	var runErr error
	if _, err := s.Enumerate(0, s.TotalPolynomials(), func(p poly.P) bool {
		ev := hamming.New(p)
		for _, l := range lengths {
			ok, err := ev.MeetsHDBrute(l, minHD, order)
			if err != nil {
				runErr = err
				return false
			}
			if !ok {
				return true
			}
		}
		out = append(out, p)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	return out
}

func TestPipelineEnginesAgree(t *testing.T) {
	// The pipeline (fast engine) and a direct loop over the
	// paper-faithful engine must select identical survivor sets — the
	// paper's "comparing answers obtained with simple code to optimized
	// code" validation (§4.5).
	s, _ := NewSpace(8)
	lengths, minHD := []int{8, 19}, 4
	pl := &Pipeline{Space: s, Lengths: lengths, MinHD: minHD}
	res, err := pl.Run(context.Background(), 0, s.TotalPolynomials())
	if err != nil {
		t.Fatal(err)
	}
	if res.Canonical != s.CanonicalCount() {
		t.Errorf("Canonical = %d, want %d", res.Canonical, s.CanonicalCount())
	}
	if res.Rate() <= 0 {
		t.Error("rate should be positive")
	}
	fast := res.Survivors
	if len(fast) == 0 {
		t.Fatal("expected some width-8 polynomials with HD>=4 at 19 bits")
	}
	for name, order := range map[string]hamming.Order{"lex": hamming.OrderLex, "fcs-first": hamming.OrderFCSFirst} {
		brute := bruteSurvivors(t, s, lengths, minHD, order)
		if len(brute) != len(fast) {
			t.Fatalf("brute %s: %d survivors, pipeline %d", name, len(brute), len(fast))
		}
		for j := range brute {
			if brute[j] != fast[j] {
				t.Fatalf("brute %s: survivor %d is %v, pipeline has %v", name, j, brute[j], fast[j])
			}
		}
	}
}

func TestRunShardsMergeEqualsWholeRun(t *testing.T) {
	// Any partition of the range, merged, must equal one sequential
	// RunShard over the whole range — the invariant both the local
	// worker pool and the dist coordinator rely on.
	s, _ := NewSpace(8)
	pl := &Pipeline{Space: s, Lengths: []int{9, 19}, MinHD: 4}
	whole, err := pl.RunShard(context.Background(), 0, s.TotalPolynomials())
	if err != nil {
		t.Fatal(err)
	}
	var shards []*ShardResult
	// Deliberately out-of-order shard completion.
	for _, r := range [][2]uint64{{64, 101}, {0, 17}, {101, 128}, {17, 64}} {
		sh, err := pl.RunShard(context.Background(), r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, sh)
	}
	merged := Merge(shards...)
	if merged.Start != 0 || merged.End != 128 {
		t.Errorf("merged range [%d,%d), want [0,128)", merged.Start, merged.End)
	}
	if merged.Canonical != whole.Canonical {
		t.Errorf("merged canonical %d, whole %d", merged.Canonical, whole.Canonical)
	}
	if len(merged.Survivors) != len(whole.Survivors) {
		t.Fatalf("merged %d survivors, whole %d", len(merged.Survivors), len(whole.Survivors))
	}
	for i := range merged.Survivors {
		if merged.Survivors[i] != whole.Survivors[i] {
			t.Errorf("survivor %d: merged %v, whole %v", i, merged.Survivors[i], whole.Survivors[i])
		}
	}
}

func TestMergeEmptyAndNil(t *testing.T) {
	m := Merge()
	if m.Canonical != 0 || len(m.Survivors) != 0 {
		t.Errorf("empty merge = %+v", m)
	}
	sh := &ShardResult{Start: 3, End: 9, Canonical: 2}
	m = Merge(nil, sh, nil)
	if m.Start != 3 || m.End != 9 || m.Canonical != 2 {
		t.Errorf("merge with nils = %+v", m)
	}
}

func TestParallelRunMatchesSequential(t *testing.T) {
	s, _ := NewSpace(10)
	seq := &Pipeline{Space: s, Lengths: []int{11, 25}, MinHD: 4, Workers: 1}
	want, err := seq.Run(context.Background(), 0, s.TotalPolynomials())
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Survivors) == 0 {
		t.Fatal("expected width-10 survivors")
	}
	for _, workers := range []int{0, 2, 7} {
		par := &Pipeline{Space: s, Lengths: seq.Lengths, MinHD: seq.MinHD, Workers: workers}
		got, err := par.Run(context.Background(), 0, s.TotalPolynomials())
		if err != nil {
			t.Fatal(err)
		}
		if got.Canonical != want.Canonical {
			t.Errorf("workers=%d: canonical %d, want %d", workers, got.Canonical, want.Canonical)
		}
		if len(got.Survivors) != len(want.Survivors) {
			t.Fatalf("workers=%d: %d survivors, want %d", workers, len(got.Survivors), len(want.Survivors))
		}
		for i := range got.Survivors {
			if got.Survivors[i] != want.Survivors[i] {
				t.Errorf("workers=%d: survivor %d is %v, want %v", workers, i, got.Survivors[i], want.Survivors[i])
			}
		}
	}
}

func TestParallelRunPartialRange(t *testing.T) {
	s, _ := NewSpace(10)
	pl := &Pipeline{Space: s, Lengths: []int{11}, MinHD: 4, Workers: 4}
	want, err := pl.RunShard(context.Background(), 100, 400)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pl.Run(context.Background(), 100, 400)
	if err != nil {
		t.Fatal(err)
	}
	if got.Start != 100 || got.End != 400 {
		t.Errorf("range [%d,%d), want [100,400)", got.Start, got.End)
	}
	if got.Canonical != want.Canonical || len(got.Survivors) != len(want.Survivors) {
		t.Errorf("parallel partial range: %d/%d, want %d/%d",
			got.Canonical, len(got.Survivors), want.Canonical, len(want.Survivors))
	}
}

func TestPipelineContextCancellation(t *testing.T) {
	s, _ := NewSpace(16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pl := &Pipeline{Space: s, Lengths: []int{64}, MinHD: 4}
	if _, err := pl.Run(ctx, 0, s.TotalPolynomials()); err == nil {
		t.Fatal("cancelled run should return an error")
	}
}

func TestCensus(t *testing.T) {
	c, err := Census([]poly.P{poly.IEEE8023, poly.Koopman32K, poly.Koopman1130, poly.KoopmanSparse6})
	if err != nil {
		t.Fatal(err)
	}
	if c["{32}"] != 1 || c["{1,3,28}"] != 1 || c["{1,1,30}"] != 2 {
		t.Errorf("census = %v", c)
	}
	for _, p := range []poly.P{poly.Koopman32K, poly.Koopman1130} {
		if !p.DivisibleByXPlus1() {
			t.Errorf("%v: parity polynomial misclassified", p)
		}
	}
	if poly.IEEE8023.DivisibleByXPlus1() {
		t.Error("802.3 is not divisible by x+1")
	}
}
