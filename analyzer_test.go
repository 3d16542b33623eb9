package koopmancrc

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"koopmancrc/internal/poly"
)

// TestAnalyzerMatchesFreshSession pins that a session's memo never
// changes an answer: after pointwise queries have warmed it, Evaluate
// must produce exactly the bands a fresh session computes.
func TestAnalyzerMatchesFreshSession(t *testing.T) {
	ctx := context.Background()
	an := NewAnalyzer(IEEE8023, WithMaxHD(8))

	hd, exact, err := an.HDAt(ctx, 400)
	if err != nil || hd != 5 || !exact {
		t.Errorf("HDAt(400) = %d, %v, %v; want 5, true", hd, exact, err)
	}
	w4, err := an.Weight(ctx, 4, 2975)
	if err != nil || w4 != 1 {
		t.Errorf("Weight(4, 2975) = %d, %v; want 1", w4, err)
	}
	wit, found, err := an.Witness(ctx, 4, 2975)
	if err != nil || !found || len(wit) != 4 {
		t.Errorf("Witness(4, 2975) = %v, %v, %v", wit, found, err)
	}
	rep, err := an.Evaluate(ctx, 512)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewAnalyzer(IEEE8023, WithMaxHD(8)).Evaluate(ctx, 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Bands) != len(fresh.Bands) {
		t.Fatalf("bands %v vs fresh session %v", rep.Bands, fresh.Bands)
	}
	for i := range rep.Bands {
		if rep.Bands[i] != fresh.Bands[i] {
			t.Errorf("band %d: %v vs fresh session %v", i, rep.Bands[i], fresh.Bands[i])
		}
	}
	if rep.Shape != "{32}" || rep.ParityBit {
		t.Errorf("shape %q parity %v", rep.Shape, rep.ParityBit)
	}
}

// TestAnalyzerMemoizesBoundaries asserts the session's core promise:
// repeating a query does no new search work.
func TestAnalyzerMemoizesBoundaries(t *testing.T) {
	ctx := context.Background()
	an := NewAnalyzer(IEEE8023, WithMaxHD(6))
	if _, err := an.Evaluate(ctx, 512); err != nil {
		t.Fatal(err)
	}
	baseline := an.Stats()
	if baseline.Probes == 0 && baseline.StoreOps == 0 {
		t.Fatal("first evaluation did no measurable work; stats are broken")
	}
	if _, err := an.Evaluate(ctx, 512); err != nil {
		t.Fatal(err)
	}
	if _, _, err := an.HDAt(ctx, 400); err != nil {
		t.Fatal(err)
	}
	if _, _, err := an.MaxLenAtHD(ctx, 6, 512); err != nil {
		t.Fatal(err)
	}
	if got := an.Stats(); got != baseline {
		t.Errorf("overlapping re-queries did new work: %+v -> %+v", baseline, got)
	}
	// A longer horizon legitimately needs more work.
	if _, err := an.Evaluate(ctx, 1024); err != nil {
		t.Fatal(err)
	}
	if got := an.Stats(); got == baseline {
		t.Error("extending the horizon should have cost something")
	}
}

// TestAnalyzerEvaluateGrowsConsistently checks that a profile grown in
// steps equals one computed in a single call.
func TestAnalyzerEvaluateGrowsConsistently(t *testing.T) {
	ctx := context.Background()
	grown := NewAnalyzer(CastagnoliISCSI, WithMaxHD(6))
	for _, l := range []int{64, 256, 1024} {
		if _, err := grown.Evaluate(ctx, l); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := grown.Evaluate(ctx, 1024)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := NewAnalyzer(CastagnoliISCSI, WithMaxHD(6)).Evaluate(ctx, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Bands) != len(direct.Bands) {
		t.Fatalf("grown bands %v, direct %v", rep.Bands, direct.Bands)
	}
	for i := range rep.Bands {
		if rep.Bands[i] != direct.Bands[i] {
			t.Errorf("band %d: grown %v, direct %v", i, rep.Bands[i], direct.Bands[i])
		}
	}
}

// TestAnalyzerMemoStats exercises the memo-size accessor the serving
// pool reads: counts grow with discovered knowledge, probes match the
// work counters, and a warm repeat adds nothing.
func TestAnalyzerMemoStats(t *testing.T) {
	ctx := context.Background()
	an := NewAnalyzer(CastagnoliISCSI, WithMaxHD(6))
	if m := an.MemoStats(); m != (MemoStats{}) {
		t.Fatalf("fresh session memo %+v", m)
	}
	if _, err := an.Evaluate(ctx, 512); err != nil {
		t.Fatal(err)
	}
	m1 := an.MemoStats()
	if m1.BoundWeights == 0 || m1.ExactBoundaries == 0 || m1.Probes == 0 {
		t.Fatalf("post-evaluate memo %+v", m1)
	}
	if m1.ExactBoundaries > m1.BoundWeights {
		t.Fatalf("more exact boundaries than bound weights: %+v", m1)
	}
	if got := an.Stats().Probes; got != m1.Probes {
		t.Fatalf("MemoStats probes %d != Stats probes %d", m1.Probes, got)
	}
	if _, err := an.Weight(ctx, 4, 256); err != nil {
		t.Fatal(err)
	}
	m2 := an.MemoStats()
	if m2.WeightEntries != 1 {
		t.Fatalf("weight memo entries %+v", m2)
	}
	// Warm repeat: no new knowledge, no new probes.
	if _, err := an.Evaluate(ctx, 512); err != nil {
		t.Fatal(err)
	}
	if m3 := an.MemoStats(); m3 != m2 {
		t.Fatalf("warm repeat changed the memo: %+v -> %+v", m2, m3)
	}
}

// TestAnalyzerContextCancel checks both the fast path (already-cancelled
// context) and mid-scan cancellation of an expensive evaluation.
func TestAnalyzerContextCancel(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	an := NewAnalyzer(Koopman32K)
	if _, err := an.Evaluate(cancelled, 4096); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled Evaluate returned %v, want context.Canceled", err)
	}

	// Mid-evaluation cancellation, deterministically: the progress hook
	// pulls the plug the moment the expensive weight-4 scan starts, and
	// the engine's cancel poll must surface it as ctx.Err().
	ctx, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	start := time.Now()
	mid := NewAnalyzer(Koopman32K, WithMaxHD(4), WithProgress(func(p Progress) {
		if p.Weight == 4 {
			cancel2()
		}
	}))
	if _, err := mid.Evaluate(ctx, 131072); !errors.Is(err, context.Canceled) {
		t.Errorf("Evaluate returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("cancellation took %v; the cancel hook is not being polled", elapsed)
	}
}

// TestAnalyzerProgressAndLimits exercises the newly public evaluation
// knobs: progress events must flow, and a tiny probe budget must surface
// ErrBudgetExceeded.
func TestAnalyzerProgressAndLimits(t *testing.T) {
	ctx := context.Background()
	var events int
	var lastWeight int
	an := NewAnalyzer(IEEE8023, WithMaxHD(5), WithProgress(func(p Progress) {
		events++
		lastWeight = p.Weight
		if p.Poly != IEEE8023 {
			t.Errorf("progress for %v, want %v", p.Poly, IEEE8023)
		}
	}))
	if _, err := an.Evaluate(ctx, 512); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Error("no progress events delivered")
	}
	if lastWeight < 2 {
		t.Errorf("last progress weight %d", lastWeight)
	}

	tight := NewAnalyzer(IEEE8023, WithLimits(Limits{MaxProbes: 10}))
	_, _, err := tight.HDAt(ctx, 2048)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("tiny budget returned %v, want ErrBudgetExceeded", err)
	}
}

// TestAnalyzerConcurrentUse runs overlapping queries from many
// goroutines; the session serializes them and every answer must match.
func TestAnalyzerConcurrentUse(t *testing.T) {
	ctx := context.Background()
	an := NewAnalyzer(CastagnoliISCSI, WithMaxHD(6))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				hd, _, err := an.HDAt(ctx, 400)
				if err != nil || hd != 6 {
					t.Errorf("HDAt = %d, %v; want 6", hd, err)
					return
				}
				if _, err := an.Evaluate(ctx, 512); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSelectAnalyzersReusesSessions asserts the acceptance criterion
// directly: a second selection over the same sessions does zero new
// boundary work.
func TestSelectAnalyzersReusesSessions(t *testing.T) {
	ctx := context.Background()
	candidates := []Polynomial{CastagnoliISCSI, IEEE8023}
	analyzers := make([]*Analyzer, len(candidates))
	for i, p := range candidates {
		analyzers[i] = NewAnalyzer(p, WithMaxHD(5))
	}
	first, err := SelectAnalyzers(ctx, analyzers, 1024, WithMaxHD(5))
	if err != nil {
		t.Fatal(err)
	}
	var baseline []EvalStats
	for _, a := range analyzers {
		baseline = append(baseline, a.Stats())
	}
	second, err := SelectAnalyzers(ctx, analyzers, 1024, WithMaxHD(5))
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range analyzers {
		if got := a.Stats(); got != baseline[i] {
			t.Errorf("candidate %v recomputed boundaries: %+v -> %+v", a.Poly(), baseline[i], got)
		}
	}
	if len(first) != len(second) {
		t.Fatal("rankings differ in length")
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("ranking drifted: %+v vs %+v", first[i], second[i])
		}
	}
	// And the ranking agrees with Select over fresh sessions.
	fresh, err := Select(ctx, candidates, 1024, WithMaxHD(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range fresh {
		if fresh[i] != first[i] {
			t.Errorf("Select disagrees at %d: %+v vs %+v", i, fresh[i], first[i])
		}
	}
}

// TestWitnessIsACopy: callers may mutate returned witnesses without
// corrupting the session's memo.
func TestWitnessIsACopy(t *testing.T) {
	ctx := context.Background()
	an := NewAnalyzer(IEEE8023)
	wit, found, err := an.Witness(ctx, 4, 2975)
	if err != nil || !found {
		t.Fatalf("witness: %v %v", found, err)
	}
	want := wit[0]
	wit[0] = -999
	again, _, err := an.Witness(ctx, 4, 2975)
	if err != nil {
		t.Fatal(err)
	}
	if again[0] != want {
		t.Errorf("mutating a returned witness corrupted the memo: %v", again)
	}
}

// TestDegenerateMaxHD pins the behaviour for maxHD < 2: an instant
// "at least maxHD+1" answer, not a silent substitution of the default
// depth.
func TestDegenerateMaxHD(t *testing.T) {
	ctx := context.Background()
	for _, maxHD := range []int{0, 1} {
		hd, exact, err := NewAnalyzer(IEEE8023, WithMaxHD(maxHD)).HDAt(ctx, 100)
		if err != nil || exact || hd != maxHD+1 {
			t.Errorf("HDAt(maxHD=%d) = %d, %v, %v; want %d, false",
				maxHD, hd, exact, err, maxHD+1)
		}
	}
	// Select with maxHD=1 ranks everything at HD 2 with coverage
	// bounded only by the weight-2 boundary.
	sel, err := Select(ctx, []Polynomial{IEEE8023}, 100, WithMaxHD(1))
	if err != nil || sel[0].HD != 2 || sel[0].CoverageAtHD != 400 {
		t.Errorf("Select(maxHD=1) = %+v, %v; want HD=2 coverage=400", sel, err)
	}
	// Profiling with a degenerate depth is rejected, not defaulted.
	if _, err := NewAnalyzer(IEEE8023, WithMaxHD(1)).Evaluate(ctx, 64); err == nil {
		t.Error("Evaluate with MaxHD < 2 should error")
	}
}

func TestSelectValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Select(ctx, nil, 100); err == nil {
		t.Error("empty candidates should error")
	}
	if _, err := SelectAnalyzers(ctx, nil, 100); err == nil {
		t.Error("empty analyzers should error")
	}
	if _, err := SelectAnalyzers(ctx, []*Analyzer{NewAnalyzer(IEEE8023)}, 0); err == nil {
		t.Error("zero dataLen should error")
	}
	if _, err := NewAnalyzer(Polynomial{}).Evaluate(ctx, 64); err == nil {
		t.Error("zero-value polynomial should error, not panic")
	}
}

// TestAnalyzerSpans checks the span hook fires per engine phase with the
// triggering call's context attached.
func TestAnalyzerSpans(t *testing.T) {
	type ctxKey struct{}
	var mu sync.Mutex
	var spans []Span
	var sawCtxVal bool
	an := NewAnalyzer(IEEE8023, WithMaxHD(6), WithSpans(func(ctx context.Context, s Span) {
		mu.Lock()
		defer mu.Unlock()
		spans = append(spans, s)
		if v, _ := ctx.Value(ctxKey{}).(string); v == "rid-1" {
			sawCtxVal = true
		}
	}))
	ctx := context.WithValue(context.Background(), ctxKey{}, "rid-1")
	if _, err := an.Evaluate(ctx, 300); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(spans) == 0 {
		t.Fatal("no spans emitted")
	}
	if !sawCtxVal {
		t.Error("span hook did not receive the caller's context")
	}
	phases := map[string]bool{}
	for _, s := range spans {
		if s.Poly != IEEE8023 {
			t.Errorf("span poly %v, want IEEE8023", s.Poly)
		}
		phases[s.Phase] = true
	}
	if !phases["w3_scan"] && !phases["w4_scan"] && !phases["boundary"] {
		t.Errorf("no scan phase spans; saw %v", phases)
	}
}

func TestBandsFromTransitionsSynthetic(t *testing.T) {
	tests := []struct {
		name   string
		ts     []Transition
		maxLen int
		maxHD  int
		want   []Band
	}{
		{
			name:   "no transitions",
			maxLen: 10, maxHD: 6,
			want: []Band{{HD: 7, AtLeast: true, From: 1, To: 10}},
		},
		{
			name:   "single",
			ts:     []Transition{{W: 4, FirstLen: 5}},
			maxLen: 10, maxHD: 6,
			want: []Band{{HD: 7, AtLeast: true, From: 1, To: 4}, {HD: 4, From: 5, To: 10}},
		},
		{
			name:   "descending weights",
			ts:     []Transition{{W: 5, FirstLen: 3}, {W: 4, FirstLen: 7}, {W: 2, FirstLen: 9}},
			maxLen: 12, maxHD: 8,
			want: []Band{
				{HD: 9, AtLeast: true, From: 1, To: 2},
				{HD: 5, From: 3, To: 6},
				{HD: 4, From: 7, To: 8},
				{HD: 2, From: 9, To: 12},
			},
		},
		{
			name:   "same length",
			ts:     []Transition{{W: 5, FirstLen: 4}, {W: 4, FirstLen: 4}},
			maxLen: 6, maxHD: 6,
			want: []Band{{HD: 7, AtLeast: true, From: 1, To: 3}, {HD: 4, From: 4, To: 6}},
		},
		{
			name:   "boundary at 1",
			ts:     []Transition{{W: 3, FirstLen: 1}},
			maxLen: 5, maxHD: 6,
			want: []Band{{HD: 3, From: 1, To: 5}},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := bandsFromTransitions(tt.ts, tt.maxLen, tt.maxHD)
			if len(got) != len(tt.want) {
				t.Fatalf("bands = %+v, want %+v", got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("band %d = %+v, want %+v", i, got[i], tt.want[i])
				}
			}
		})
	}
}

func TestEvaluateBandsConsistentWithHDAt(t *testing.T) {
	// A column's bands tile [1, maxLen], and at each length their HD and
	// AtLeast flag match a pointwise HDAt query in a fresh session.
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(909, 9))
	for trial := 0; trial < 10; trial++ {
		var p Polynomial
		for {
			var err error
			if p, err = poly.FromKoopman(8, rng.Uint64N(1<<8)|1<<7); err == nil {
				break
			}
		}
		rep, err := NewAnalyzer(p, WithMaxHD(8)).Evaluate(ctx, 30)
		if err != nil {
			t.Fatal(err)
		}
		next := 1
		for _, b := range rep.Bands {
			if b.From != next || b.To < b.From {
				t.Fatalf("%v: bad band tiling %+v", p, rep.Bands)
			}
			next = b.To + 1
		}
		if next != 31 {
			t.Fatalf("%v: bands end at %d, want 31", p, next)
		}
		for _, n := range []int{1, 7, 15, 30} {
			hd, exact, err := NewAnalyzer(p, WithMaxHD(8)).HDAt(ctx, n)
			if err != nil {
				t.Fatal(err)
			}
			want, atLeast, ok := rep.HDAt(n)
			if !ok {
				t.Fatalf("%v: no band for %d", p, n)
			}
			if want != hd || atLeast == exact {
				t.Fatalf("%v n=%d: bands say HD=%d(atLeast=%v), HDAt says %d(exact=%v)",
					p, n, want, atLeast, hd, exact)
			}
		}
	}
}
