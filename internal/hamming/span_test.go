package hamming

import (
	"testing"

	"koopmancrc/internal/poly"
)

// TestSpanHookPhases drives every search machinery and checks each emits
// its span with sane duration and work accounting: the weight-4 scan, the
// w >= 5 boundary scan behind an existence query, the §4.1 reference
// search's meet-in-the-middle join and an exact weight count.
func TestSpanHookPhases(t *testing.T) {
	var events []SpanEvent
	e := New(poly.IEEE8023, WithSpanHook(func(s SpanEvent) {
		events = append(events, s)
	}))
	count := func(from int) map[string]int {
		got := map[string]int{}
		for _, ev := range events[from:] {
			got[ev.Phase]++
		}
		return got
	}

	if _, _, _, err := e.FirstDataLen(4, 200); err != nil {
		t.Fatal(err)
	}
	// An existence query is one boundary scan and runs no
	// meet-in-the-middle join.
	mark := len(events)
	if _, _, err := e.Exists(5, 80); err != nil {
		t.Fatal(err)
	}
	if got := count(mark); got[SpanBoundary] != 1 || got[SpanMITMStore] != 0 || got[SpanMITMProbe] != 0 {
		t.Errorf("Exists(5, 80) spans = %v, want one %s and no mitm_*", got, SpanBoundary)
	}
	// The direct reference search finds nothing at 80 bits (802.3 keeps
	// HD 6 to 268): one join, whose store and probe halves pair up.
	mark = len(events)
	if _, _, _, err := e.FirstDataLenStrategy(5, 80, StrategyDirect); err != nil {
		t.Fatal(err)
	}
	if got := count(mark); got[SpanBoundary] != 1 || got[SpanMITMStore] != 1 || got[SpanMITMProbe] != 1 {
		t.Errorf("boundary/mitm_store/mitm_probe spans = %d/%d/%d, want 1/1/1",
			got[SpanBoundary], got[SpanMITMStore], got[SpanMITMProbe])
	}
	if _, err := e.Weight(3, 64); err != nil {
		t.Fatal(err)
	}

	for _, ev := range events {
		if ev.Duration < 0 {
			t.Errorf("%s: negative duration %v", ev.Phase, ev.Duration)
		}
		if ev.Probes < 0 {
			t.Errorf("%s: negative probe delta %d", ev.Phase, ev.Probes)
		}
	}
	got := count(0)
	for _, phase := range []string{SpanW4Scan, SpanBoundary, SpanMITMStore, SpanMITMProbe, SpanW3Count} {
		if got[phase] == 0 {
			t.Errorf("no %s span emitted; phases seen: %v", phase, got)
		}
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
