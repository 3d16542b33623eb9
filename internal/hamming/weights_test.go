package hamming

import (
	"testing"

	"koopmancrc/internal/poly"
)

// TestWeight4SplitMatchesSerial runs the weight-4 count's rows on 1, 2,
// 3 and 8 workers: 802.3 at the anchor lengths 2974 and 2975 bits and at
// the MTU length, and each generator of the dual-code check at its
// weight-4 boundary, the length before it, the longest length with
// W2 = 0 and 4000 bits. Every worker count must give the 1-worker
// tally, error and Stats, each count as many shapes as mirrored ones.
// Eight workers on the short counts outnumber the blocks.
func TestWeight4SplitMatchesSerial(t *testing.T) {
	type count struct {
		tally w4Tally
		err   string
		stats Stats
	}
	run := func(p poly.P, dataLen, workers int) count {
		e := New(p)
		tally, err := e.countW4(dataLen, workers)
		c := count{tally: tally, stats: e.Stats}
		if err != nil {
			c.err = err.Error()
		}
		return c
	}
	check := func(p poly.P, dataLen int) w4Tally {
		t.Helper()
		want := run(p, dataLen, 1)
		if want.tally.shapes != want.tally.mirrored {
			t.Fatalf("%v at %d bits: %d shapes with a < b, %d with a > b", p, dataLen, want.tally.shapes, want.tally.mirrored)
		}
		for _, workers := range []int{2, 3, 8} {
			if got := run(p, dataLen, workers); got != want {
				t.Fatalf("%v at %d bits on %d workers: %+v, one worker gives %+v", p, dataLen, workers, got, want)
			}
		}
		return want.tally
	}
	for _, c := range []struct {
		dataLen int
		want    uint64
	}{{2974, 0}, {2975, 1}, {12112, 223059}} {
		if got := check(poly.IEEE8023, c.dataLen).total; got != c.want {
			t.Fatalf("802.3 W4(%d) = %d, want %d", c.dataLen, got, c.want)
		}
	}
	_, dual := scanCheckPolys()
	for _, p := range dual {
		lengths := []int{4000}
		for w := 2; w <= 4; w += 2 {
			n, _, found, err := New(p).FirstDataLen(w, 4000)
			if err != nil {
				t.Fatal(err)
			}
			if found && n > 1 {
				lengths = append(lengths, n-1)
				if w == 4 {
					lengths = append(lengths, n)
				}
			}
		}
		for _, l := range lengths {
			check(p, l)
		}
	}
}

// TestWeight4SmallCountAllocs pins the weight-4 count below the split's
// work floor to the serial loop's allocations: one store (keys, values
// and filter) per call on a warm Evaluator, no goroutine and no second
// store. The weights workload's set-up count (32 data bits) and a cold
// evaluation's (128 bits) both run here.
func TestWeight4SmallCountAllocs(t *testing.T) {
	for _, dataLen := range []int{32, 128} {
		e := New(poly.IEEE8023)
		if binomAtMost(e.codewordLen(dataLen)-1, 2, 1<<62) >= w4SplitProbes {
			t.Fatalf("W4 at %d data bits is not below the split's floor", dataLen)
		}
		weight := func() {
			if _, err := e.Weight(4, dataLen); err != nil {
				t.Fatal(err)
			}
		}
		weight()
		if got := testing.AllocsPerRun(100, weight); got != 3 {
			t.Errorf("Weight(4, %d) on a warm Evaluator: %v allocations, want 3", dataLen, got)
		}
	}
}
