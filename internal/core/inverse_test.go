package core

import (
	"errors"
	"fmt"
	"testing"

	"koopmancrc/internal/hamming"
	"koopmancrc/internal/poly"
)

// The paper's §4.1 inverse filtering and its timeout heuristic, kept
// beside the two tests that reproduce them: no search path runs either.

// InverseResult reports an inverse-filtering run.
type InverseResult struct {
	// MaxLen is the largest data-word length at which any input polynomial
	// achieves the target HD (0 if none does at or above the probed range).
	MaxLen int
	// Best is the polynomial achieving MaxLen.
	Best poly.P
	// PerPoly maps each polynomial (Koopman form string) to its own
	// maximum length at the target HD.
	PerPoly map[string]int
}

// InverseFilter determines the maximum data-word length at which each of
// the given polynomials achieves at least minHD, searching no further than
// maxLen. This reproduces the paper's inverse filtering: runs at long
// lengths reject quickly via early bailout, establishing firm upper bounds,
// and the bound is lowered until the HD is achieved.
func InverseFilter(polys []poly.P, minHD, maxLen int) (*InverseResult, error) {
	res := &InverseResult{PerPoly: make(map[string]int, len(polys))}
	for _, p := range polys {
		ev := hamming.New(p)
		best, err := maxLenAtHD(ev, minHD, maxLen)
		if err != nil {
			return nil, fmt.Errorf("inverse filter %v: %w", p, err)
		}
		res.PerPoly[p.String()] = best
		if best > res.MaxLen {
			res.MaxLen = best
			res.Best = p
		}
	}
	return res, nil
}

// maxLenAtHD returns the largest length <= maxLen with HD >= minHD (0 if
// even length 1 fails).
func maxLenAtHD(ev *hamming.Evaluator, minHD, maxLen int) (int, error) {
	// The HD>=minHD property is monotone (true for every length below the
	// first weight boundary), so the largest passing length is one less
	// than the smallest failing weight boundary.
	limit := maxLen + 1
	for w := 2; w < minHD; w++ {
		first, _, found, err := ev.FirstDataLen(w, limit-1)
		if err != nil {
			return 0, err
		}
		if found && first < limit {
			limit = first
		}
	}
	return limit - 1, nil
}

// ImplicitConfirm is the paper's §4.1 timeout heuristic in budget form:
// evaluate the HD predicate with the paper-faithful brute engine under a
// probe budget. Exceeding the budget — the analogue of the 30-second abort
// on 2001 hardware — is treated as implicit confirmation that the HD holds
// (early bailout would have fired quickly otherwise), and the claim is then
// verified exactly with the fast engine.
//
// It returns the verdict, whether the heuristic fired, and whether the
// heuristic's guess agreed with the exact answer.
func ImplicitConfirm(p poly.P, dataLen, minHD int, probeBudget int64) (ok, implicit, agreed bool, err error) {
	brute := hamming.New(p, hamming.WithMaxProbes(probeBudget))
	ok, bruteErr := brute.MeetsHDBrute(dataLen, minHD, hamming.OrderFCSFirst)
	if bruteErr == nil {
		return ok, false, true, nil
	}
	if !errors.Is(bruteErr, hamming.ErrBudgetExceeded) {
		return false, false, false, bruteErr
	}
	// Budget exceeded: implicit confirmation, verified exactly.
	exact := hamming.New(p)
	ok, err = exact.MeetsHDAtLengths([]int{dataLen}, minHD)
	if err != nil {
		return false, true, false, err
	}
	return ok, true, ok, nil
}

func TestInverseFilterAnchors(t *testing.T) {
	// §4.1: inverse filtering established maximum lengths; for the 802.3
	// polynomial HD=5 holds through exactly 2974 bits, and for the iSCSI
	// polynomial HD=6 through 5243 bits.
	res, err := InverseFilter([]poly.P{poly.IEEE8023}, 5, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxLen != 2974 {
		t.Errorf("802.3 max length at HD=5 = %d, want 2974", res.MaxLen)
	}
	res, err = InverseFilter([]poly.P{poly.IEEE8023, poly.CastagnoliISCSI}, 6, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxLen != 1024 || res.Best != poly.CastagnoliISCSI {
		t.Errorf("best at HD=6 = %v len %d, want iSCSI poly at cap 1024", res.Best, res.MaxLen)
	}
	if res.PerPoly[poly.IEEE8023.String()] != 268 {
		t.Errorf("802.3 max at HD=6 = %d, want 268", res.PerPoly[poly.IEEE8023.String()])
	}
}

func TestImplicitConfirmHeuristic(t *testing.T) {
	// CCITT-16 at 32751 bits: the brute-force weight-3 pass needs ~5*10^8
	// combinations, far beyond the budget, so the timeout heuristic fires
	// and exact verification agrees (HD>=4 holds).
	ok, implicit, agreed, err := ImplicitConfirm(poly.CCITT16, 32751, 4, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || !implicit || !agreed {
		t.Errorf("ImplicitConfirm(32751) = ok=%v implicit=%v agreed=%v", ok, implicit, agreed)
	}
	// At 32752 the weight-2 failure {0, 32767} is found within budget:
	// quick rejection, no heuristic needed.
	ok, implicit, _, err = ImplicitConfirm(poly.CCITT16, 32752, 4, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if ok || implicit {
		t.Errorf("ImplicitConfirm(32752) = ok=%v implicit=%v, want quick rejection", ok, implicit)
	}
}
