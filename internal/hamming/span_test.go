package hamming

import (
	"testing"

	"koopmancrc/internal/poly"
)

// TestSpanHookPhases drives every search machinery and checks each emits
// its span with sane duration and work accounting: the weight-4 scan, the
// w >= 5 boundary scan, an existence query's meet-in-the-middle join and
// an exact weight count.
func TestSpanHookPhases(t *testing.T) {
	var events []SpanEvent
	e := New(poly.IEEE8023, WithSpanHook(func(s SpanEvent) {
		events = append(events, s)
	}))

	if _, _, _, err := e.FirstDataLen(4, 200); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := e.FirstDataLen(6, 80); err != nil {
		t.Fatal(err)
	}
	// The boundary scan is one span and runs no meet-in-the-middle join
	// of its own; the join's phases come from an existence query.
	scanEvents := len(events)
	if _, _, err := e.Exists(5, 80); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Weight(3, 64); err != nil {
		t.Fatal(err)
	}

	got := map[string]int{}
	for i, ev := range events {
		got[ev.Phase]++
		if ev.Duration < 0 {
			t.Errorf("%s: negative duration %v", ev.Phase, ev.Duration)
		}
		if ev.Probes < 0 {
			t.Errorf("%s: negative probe delta %d", ev.Phase, ev.Probes)
		}
		if i < scanEvents && (ev.Phase == SpanMITMStore || ev.Phase == SpanMITMProbe) {
			t.Errorf("boundary search emitted a %s span", ev.Phase)
		}
	}
	for _, phase := range []string{SpanW4Scan, SpanBoundary, SpanMITMStore, SpanMITMProbe, SpanW3Count} {
		if got[phase] == 0 {
			t.Errorf("no %s span emitted; phases seen: %v", phase, got)
		}
	}
	// One boundary query, one existence query: one span each, and the
	// join's store and probe halves pair up.
	if got[SpanBoundary] != 1 || got[SpanMITMStore] != 1 || got[SpanMITMProbe] != 1 {
		t.Errorf("boundary/mitm_store/mitm_probe spans = %d/%d/%d, want 1/1/1",
			got[SpanBoundary], got[SpanMITMStore], got[SpanMITMProbe])
	}
}

// TestSpanHookOff checks the uninstrumented path still works and that an
// evaluation with no hook emits nothing (guarding the nil fast path).
func TestSpanHookOff(t *testing.T) {
	e := New(poly.IEEE8023)
	if _, _, _, err := e.FirstDataLen(4, 100); err != nil {
		t.Fatal(err)
	}
}
