package koopmancrc

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

// memoTestPoly is an 8-bit polynomial (CRC-8/ATM in Koopman notation)
// whose full evaluation is microseconds, keeping memo tests fast.
func memoTestPoly(t *testing.T) Polynomial {
	t.Helper()
	return MustPolynomial(8, Koopman, "0x83")
}

func TestMemoSnapshotRoundTrip(t *testing.T) {
	ctx := context.Background()
	p := memoTestPoly(t)

	a := NewAnalyzer(p, WithMaxHD(6))
	if _, err := a.Evaluate(ctx, 64); err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	coldCount, err := a.Weight(ctx, 3, 32)
	if err != nil {
		t.Fatalf("Weight: %v", err)
	}
	coldHD, coldExact, err := a.HDAt(ctx, 32)
	if err != nil {
		t.Fatalf("HDAt: %v", err)
	}
	coldStats := a.MemoStats()
	if coldStats.Probes == 0 {
		t.Fatalf("expected cold evaluation to spend engine probes, got 0")
	}

	snap, err := a.MemoSnapshot(ctx)
	if err != nil {
		t.Fatalf("MemoSnapshot: %v", err)
	}
	if snap.Version != MemoSnapshotVersion || snap.Width != 8 || snap.Poly != 0x83 {
		t.Fatalf("snapshot header = %+v", snap)
	}
	if snap.Probes != coldStats.Probes {
		t.Fatalf("snapshot probes = %d, want %d", snap.Probes, coldStats.Probes)
	}
	if len(snap.Bounds) == 0 || len(snap.Weights) != 1 {
		t.Fatalf("snapshot facts = %d bounds, %d weights", len(snap.Bounds), len(snap.Weights))
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	// Through JSON and back — the corpus stores snapshots as JSON records.
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var decoded MemoSnapshot
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(snap, &decoded) {
		t.Fatalf("JSON round trip changed the snapshot:\n got %+v\nwant %+v", &decoded, snap)
	}

	// Restore into a fresh session: same answers, zero live engine work.
	b := NewAnalyzer(p, WithMaxHD(6))
	if err := b.RestoreMemos(ctx, &decoded); err != nil {
		t.Fatalf("RestoreMemos: %v", err)
	}
	warmHD, warmExact, err := b.HDAt(ctx, 32)
	if err != nil {
		t.Fatalf("warm HDAt: %v", err)
	}
	if warmHD != coldHD || warmExact != coldExact {
		t.Fatalf("warm HDAt = (%d, %v), cold = (%d, %v)", warmHD, warmExact, coldHD, coldExact)
	}
	if n, err := b.Weight(ctx, 3, 32); err != nil || n != coldCount {
		t.Fatalf("warm Weight = (%d, %v), cold = %d", n, err, coldCount)
	}
	if got := b.MemoStats().Probes; got != 0 {
		t.Fatalf("restored session spent %d live engine probes, want 0", got)
	}

	// Re-export: restored knowledge carries the original discovery cost.
	resnap, err := b.MemoSnapshot(ctx)
	if err != nil {
		t.Fatalf("re-export: %v", err)
	}
	if resnap.Probes != snap.Probes {
		t.Fatalf("re-exported probes = %d, want %d", resnap.Probes, snap.Probes)
	}
	if !reflect.DeepEqual(resnap.Bounds, snap.Bounds) {
		t.Fatalf("re-exported bounds differ:\n got %+v\nwant %+v", resnap.Bounds, snap.Bounds)
	}
}

func TestMemoSnapshotWarmEvaluateMatchesCold(t *testing.T) {
	ctx := context.Background()
	p := memoTestPoly(t)

	cold := NewAnalyzer(p, WithMaxHD(6))
	want, err := cold.Evaluate(ctx, 64)
	if err != nil {
		t.Fatalf("cold Evaluate: %v", err)
	}
	snap, err := cold.MemoSnapshot(ctx)
	if err != nil {
		t.Fatalf("MemoSnapshot: %v", err)
	}

	warm := NewAnalyzer(p, WithMaxHD(6))
	if err := warm.RestoreMemos(ctx, snap); err != nil {
		t.Fatalf("RestoreMemos: %v", err)
	}
	got, err := warm.Evaluate(ctx, 64)
	if err != nil {
		t.Fatalf("warm Evaluate: %v", err)
	}
	if !reflect.DeepEqual(got.Transitions, want.Transitions) {
		t.Fatalf("warm transitions differ:\n got %+v\nwant %+v", got.Transitions, want.Transitions)
	}
	if got := warm.MemoStats().Probes; got != 0 {
		t.Fatalf("warm Evaluate spent %d live probes, want 0", got)
	}
}

func TestRestoreMemosMonotoneMerge(t *testing.T) {
	ctx := context.Background()
	p := memoTestPoly(t)

	// A session that already knows the exact w=2 boundary must not lose
	// it to a snapshot carrying only a partial clear-prefix.
	a := NewAnalyzer(p, WithMaxHD(2))
	if _, err := a.Evaluate(ctx, 64); err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	before, err := a.MemoSnapshot(ctx)
	if err != nil {
		t.Fatalf("MemoSnapshot: %v", err)
	}
	partial := &MemoSnapshot{
		Version: MemoSnapshotVersion,
		Width:   8,
		Poly:    0x83,
		Bounds:  []BoundMemo{{Weight: 2, ClearTo: 3}},
	}
	if err := a.RestoreMemos(ctx, partial); err != nil {
		t.Fatalf("RestoreMemos: %v", err)
	}
	after, err := a.MemoSnapshot(ctx)
	if err != nil {
		t.Fatalf("MemoSnapshot: %v", err)
	}
	if !reflect.DeepEqual(before.Bounds, after.Bounds) {
		t.Fatalf("partial restore regressed exact knowledge:\n got %+v\nwant %+v", after.Bounds, before.Bounds)
	}

	// The reverse: a fresh session restoring partial then exact ends up
	// with the exact boundary.
	b := NewAnalyzer(p, WithMaxHD(2))
	if err := b.RestoreMemos(ctx, partial); err != nil {
		t.Fatalf("restore partial: %v", err)
	}
	if err := b.RestoreMemos(ctx, before); err != nil {
		t.Fatalf("restore exact: %v", err)
	}
	final, err := b.MemoSnapshot(ctx)
	if err != nil {
		t.Fatalf("MemoSnapshot: %v", err)
	}
	if !reflect.DeepEqual(final.Bounds, before.Bounds) {
		t.Fatalf("exact-after-partial restore lost knowledge:\n got %+v\nwant %+v", final.Bounds, before.Bounds)
	}
}

func TestMemoSnapshotMerge(t *testing.T) {
	base := &MemoSnapshot{
		Version: MemoSnapshotVersion, Width: 8, Poly: 0x83, Probes: 10,
		Bounds:  []BoundMemo{{Weight: 2, ClearTo: 5}, {Weight: 3, HitAt: 9, Witness: []int{0, 4, 9}}},
		Weights: []WeightMemo{{Weight: 2, DataLen: 16, Count: 3}},
	}
	other := &MemoSnapshot{
		Version: MemoSnapshotVersion, Width: 8, Poly: 0x83, Probes: 7,
		Bounds:  []BoundMemo{{Weight: 2, First: 8, Exact: true, Witness: []int{0, 8}}, {Weight: 3, HitAt: 7, Witness: []int{1, 3, 7}}},
		Weights: []WeightMemo{{Weight: 3, DataLen: 16, Count: 11}},
	}
	if err := base.Merge(other); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("merged snapshot invalid: %v", err)
	}
	if base.Probes != 10 {
		t.Fatalf("Probes = %d, want max(10, 7) = 10", base.Probes)
	}
	if len(base.Bounds) != 2 || len(base.Weights) != 2 {
		t.Fatalf("merged facts = %+v", base)
	}
	w2 := base.Bounds[0]
	if !w2.Exact || w2.First != 8 || w2.ClearTo != 5 {
		t.Fatalf("merged w=2 bound = %+v, want exact first=8 keeping clearTo=5", w2)
	}
	w3 := base.Bounds[1]
	if w3.HitAt != 7 {
		t.Fatalf("merged w=3 bound = %+v, want the cheaper hit at 7", w3)
	}

	mismatch := &MemoSnapshot{Version: MemoSnapshotVersion, Width: 8, Poly: 0x9c}
	if err := base.Merge(mismatch); err == nil {
		t.Fatalf("Merge accepted a different polynomial")
	}
}

func TestRestoreMemosRejectsInvalid(t *testing.T) {
	ctx := context.Background()
	p := memoTestPoly(t)
	a := NewAnalyzer(p, WithMaxHD(6))

	cases := []struct {
		name string
		snap *MemoSnapshot
	}{
		{"nil", nil},
		{"future version", &MemoSnapshot{Version: MemoSnapshotVersion + 1, Width: 8, Poly: 0x83}},
		{"zero version", &MemoSnapshot{Width: 8, Poly: 0x83}},
		{"wrong poly", &MemoSnapshot{Version: 1, Width: 8, Poly: 0x9c}},
		{"wrong width", &MemoSnapshot{Version: 1, Width: 16, Poly: 0x83}},
		{"weight below 2", &MemoSnapshot{Version: 1, Width: 8, Poly: 0x83,
			Bounds: []BoundMemo{{Weight: 1, ClearTo: 4}}}},
		{"exact without first", &MemoSnapshot{Version: 1, Width: 8, Poly: 0x83,
			Bounds: []BoundMemo{{Weight: 2, Exact: true}}}},
		{"clear contradicts hit", &MemoSnapshot{Version: 1, Width: 8, Poly: 0x83, // G = {0,1,2,8}
			Bounds: []BoundMemo{{Weight: 4, ClearTo: 1, HitAt: 1, Witness: []int{0, 1, 2, 8}}}}},
		{"witness wrong size", &MemoSnapshot{Version: 1, Width: 8, Poly: 0x83,
			Bounds: []BoundMemo{{Weight: 3, HitAt: 9, Witness: []int{1, 2}}}}},
		{"witness past its codeword", &MemoSnapshot{Version: 1, Width: 8, Poly: 0x83,
			Bounds: []BoundMemo{{Weight: 2, First: 10, Exact: true, Witness: []int{0, 99999}}}}},
		{"witness one bit past its codeword", &MemoSnapshot{Version: 1, Width: 8, Poly: 0x83,
			Bounds: []BoundMemo{{Weight: 2, HitAt: 10, Witness: []int{0, 18}}}}},
		{"witness unsorted", &MemoSnapshot{Version: 1, Width: 8, Poly: 0x83,
			Bounds: []BoundMemo{{Weight: 3, HitAt: 9, Witness: []int{4, 0, 9}}}}},
		{"witness repeats a position", &MemoSnapshot{Version: 1, Width: 8, Poly: 0x83,
			Bounds: []BoundMemo{{Weight: 3, HitAt: 9, Witness: []int{0, 4, 4}}}}},
		{"witness negative position", &MemoSnapshot{Version: 1, Width: 8, Poly: 0x83,
			Bounds: []BoundMemo{{Weight: 2, HitAt: 9, Witness: []int{-1, 4}}}}},
		{"witness without a hit", &MemoSnapshot{Version: 1, Width: 8, Poly: 0x83,
			Bounds: []BoundMemo{{Weight: 2, ClearTo: 3, Witness: []int{0, 4}}}}},
		{"hit without a witness", &MemoSnapshot{Version: 1, Width: 8, Poly: 0x83,
			Bounds: []BoundMemo{{Weight: 3, First: 4, Exact: true}}}},
		{"witness not a multiple of the generator", &MemoSnapshot{Version: 1, Width: 8, Poly: 0x83,
			Bounds: []BoundMemo{{Weight: 2, HitAt: 9, Witness: []int{0, 5}}}}},
		{"count weight out of range", &MemoSnapshot{Version: 1, Width: 8, Poly: 0x83,
			Weights: []WeightMemo{{Weight: 5, DataLen: 8, Count: 1}}}},
		{"count length below 1", &MemoSnapshot{Version: 1, Width: 8, Poly: 0x83,
			Weights: []WeightMemo{{Weight: 2, DataLen: 0, Count: 1}}}},
		{"negative probes", &MemoSnapshot{Version: 1, Width: 8, Poly: 0x83, Probes: -1}},
	}
	for _, tc := range cases {
		if err := a.RestoreMemos(ctx, tc.snap); err == nil {
			t.Errorf("%s: RestoreMemos accepted an invalid snapshot", tc.name)
		}
	}
	// The session must be untouched after every rejection.
	if snap, err := a.MemoSnapshot(ctx); err != nil || snap.Entries() != 0 {
		t.Fatalf("rejected restores leaked state: snap=%+v err=%v", snap, err)
	}
}
