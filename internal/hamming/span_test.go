package hamming

import (
	"testing"

	"koopmancrc/internal/poly"
)

// TestSpanHookPhases drives every search machinery and checks each emits
// its span with sane duration and work accounting: the weight-4 scan, the
// w >= 5 boundary scan behind an existence query and an exact weight
// count.
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
	// An existence query is one boundary scan and nothing else.
	mark := len(events)
	if _, _, err := e.Exists(5, 80); err != nil {
		t.Fatal(err)
	}
	if got := count(mark); got[SpanBoundary] != 1 || len(got) != 1 {
		t.Errorf("Exists(5, 80) spans = %v, want one %s", got, SpanBoundary)
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
	for _, phase := range []string{SpanW4Scan, SpanBoundary, SpanW3Count} {
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
