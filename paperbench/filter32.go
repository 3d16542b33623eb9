package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"koopmancrc"
)

// filter32 is the §4.2 design-space search: one operation filters a
// slice of the 32-bit space, at a seeded start and just long enough to
// hold 16 canonical candidates, for HD >= 5 with the paper's
// increasing-length schedule, on one goroutine — the paper's per-CPU
// polys/s figure. The schedule stops at 1024 bits, where nearly every
// candidate has been decided: the rare candidate that passes pays for an
// MTU-length proof costing up to a hundred times the mean, so how many a
// seed happens to draw would set the run's time.
type filter32W struct {
	rng *rand.Rand
	// anchors are re-checked after measuring: a Table 1 polynomial, which
	// the paper gives HD >= 5 through 1024 bits, must survive; a sparse
	// generator, itself an undetectable pattern of its own weight (3 or
	// 4) at one data bit, must not.
	pass, fail uint32
}

const (
	// filterCandidates is the number of canonical candidates per slice.
	filterCandidates = 16
	filterMinHD      = 5
	// mtuBits is the Ethernet MTU data word.
	mtuBits = 12112
	// space is the number of raw indices of the 32-bit space: raw index
	// i is the polynomial with Koopman value 2^31 + i.
	space = 1 << 31
)

var filterLengths = []int{64, 256, 1024}

func newFilter32(rng *rand.Rand, _ bool) workload {
	// x^32 + x^a + 1, plus x^b for a weight-4 generator; Koopman
	// notation drops the +1 term and shifts the rest down one bit.
	sparse := uint32(1)<<31 | 1<<(rng.IntN(30)+1)
	if rng.IntN(2) == 1 {
		sparse |= 1 << rng.IntN(31)
	}
	return &filter32W{rng: rng, pass: table1[rng.IntN(len(table1))].koopman, fail: sparse}
}

func (w *filter32W) search(start, end uint64) (*koopmancrc.SearchResult, error) {
	return koopmancrc.Search(context.Background(), koopmancrc.SearchConfig{
		Width: 32, MinHD: filterMinHD, Lengths: filterLengths,
		StartIdx: start, EndIdx: end, Parallelism: 1,
	})
}

// setup searches the one-polynomial slice of 0x80000001 at the schedule's
// first length: everything a search builds before filtering, plus one
// cheap candidate.
func (w *filter32W) setup() error {
	_, err := koopmancrc.Search(context.Background(), koopmancrc.SearchConfig{
		Width: 32, MinHD: filterMinHD, Lengths: filterLengths[:1],
		StartIdx: 1, EndIdx: 2, Parallelism: 1,
	})
	return err
}

func (w *filter32W) op(tr *trace) (func() error, error) {
	// The search visits each reciprocal pair once, through its smaller
	// Koopman value; the slice ends after the 16th such canonical member.
	// Starts stay below Koopman value 0xFF000000, where every index with
	// its low seven bits set is canonical, so 16 lie within a few thousand.
	s := w.rng.Uint64N(space - 1<<24)
	e := s
	for n := 0; n < filterCandidates; e++ {
		if k := uint32(space + e); k <= reciprocal(k) {
			n++
		}
	}
	start := time.Now()
	res, err := w.search(s, e)
	tr.add("filter", start)
	if err != nil {
		return nil, err
	}
	return func() error { return checkSlice(s, e, res) }, nil
}

// checkSlice verifies a search result's bookkeeping: it visited every
// canonical candidate of the slice, and every survivor is one of them.
func checkSlice(start, end uint64, res *koopmancrc.SearchResult) error {
	if res.Candidates != filterCandidates {
		return fmt.Errorf("slice [%d,%d): %d candidates, want %d", start, end, res.Candidates, filterCandidates)
	}
	for _, p := range res.Survivors {
		k := uint32(p.Koopman())
		if uint64(k) < space+start || uint64(k) >= space+end || k > reciprocal(k) {
			return fmt.Errorf("slice [%d,%d): survivor %#x outside the canonical slice", start, end, k)
		}
	}
	return nil
}

// verify searches the anchors' one-polynomial slices, through the
// canonical member of each reciprocal pair.
func (w *filter32W) verify() error {
	for _, a := range []struct {
		k    uint32
		want bool
	}{{w.pass, true}, {w.fail, false}} {
		k := min(a.k, reciprocal(a.k))
		res, err := w.search(uint64(k)-space, uint64(k)-space+1)
		if err != nil {
			return err
		}
		if survived := len(res.Survivors) == 1; survived != a.want {
			return fmt.Errorf("poly %#x: survived=%v, want %v", a.k, survived, a.want)
		}
	}
	return nil
}

func (w *filter32W) close() {}
