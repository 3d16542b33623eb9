package hamming

import "fmt"

// Order selects the enumeration order of the brute-force engine.
type Order int

// Enumeration orders.
const (
	// OrderLex enumerates patterns in plain combinadic order.
	OrderLex Order = iota + 1
	// OrderFCSFirst tries patterns with one or two bits inside the FCS
	// field before all others — the paper's §4.1 observation that most
	// polynomials' first undetectable error involves FCS bits, which makes
	// the early bailout trigger sooner.
	OrderFCSFirst
)

// ExistsBrute searches for a weight-w undetectable pattern by direct
// enumeration of bit combinations, exactly as the paper's search software
// did: canonical patterns (position 0 fixed, justified by dividing any
// multiple of G by x), early bailout at the first hit, and an optional
// FCS-bits-first ordering. It is exponentially slower than the boundary
// scan (FirstDataLen) at long lengths and serves as the reference implementation and the subject of the
// §4.1 optimisation benchmarks.
func (e *Evaluator) ExistsBrute(w, dataLen int, order Order) ([]int, bool, error) {
	if w < 1 {
		return nil, false, fmt.Errorf("hamming: invalid weight %d", w)
	}
	if dataLen < 1 {
		return nil, false, fmt.Errorf("hamming: invalid data length %d", dataLen)
	}
	n := e.codewordLen(dataLen)
	if w > n {
		return nil, false, nil
	}
	if w == 1 {
		return nil, false, nil
	}
	syn := e.syndromes(n)
	// Unlike the fast engine's pre-flight estimate, the brute engine
	// enforces its budget during enumeration: early bailout may find an
	// undetectable pattern long before the budget is reached, exactly as
	// the paper's timeout heuristic (§4.1) relies on.
	e.bruteBudget = e.opts.MaxProbes
	switch order {
	case OrderFCSFirst:
		return e.bruteFCSFirst(syn, n, w)
	default:
		pos := make([]int, 0, w-1)
		return e.bruteRange(syn, pos, 1, n, w-1, 1)
	}
}

// bruteRange enumerates `left` further positions from [start, limit) on top
// of accumulated syndrome acc, with early exit.
func (e *Evaluator) bruteRange(syn []uint32, pos []int, start, limit, left int, acc uint32) ([]int, bool, error) {
	if left == 0 {
		e.Stats.Probes++
		if acc == 0 {
			e.Stats.EarlyExits++
			wit := append([]int{0}, pos...)
			return wit, true, nil
		}
		e.bruteBudget--
		if e.bruteBudget <= 0 {
			return nil, false, fmt.Errorf("%w: brute-force enumeration", ErrBudgetExceeded)
		}
		return nil, false, nil
	}
	for i := start; i <= limit-left; i++ {
		pos = append(pos, i)
		if wit, found, err := e.bruteRange(syn, pos, i+1, limit, left-1, acc^syn[i]); found || err != nil {
			return wit, found, err
		}
		pos = pos[:len(pos)-1]
	}
	return nil, false, nil
}

// bruteFCSFirst enumerates canonical patterns grouped by how many of their
// bits (besides the fixed position 0) fall inside the FCS field
// [1, width). Groups with one and zero extra FCS bits — i.e. patterns
// touching the FCS in at most two bits total — are tried first.
func (e *Evaluator) bruteFCSFirst(syn []uint32, n, w int) ([]int, bool, error) {
	fcsEnd := e.width
	if fcsEnd > n {
		fcsEnd = n
	}
	// extra = number of pattern bits in [1, fcsEnd); order 1, 0, 2, 3, ...
	groups := make([]int, 0, w)
	groups = append(groups, 1, 0)
	for g := 2; g <= w-1; g++ {
		groups = append(groups, g)
	}
	for _, extra := range groups {
		if extra > fcsEnd-1 || w-1-extra > n-fcsEnd {
			continue
		}
		pos := make([]int, 0, w-1)
		var recFCS func(start, left int, acc uint32) ([]int, bool, error)
		recFCS = func(start, left int, acc uint32) ([]int, bool, error) {
			if left == 0 {
				// Remaining bits come from the data region [fcsEnd, n).
				return e.bruteRange(syn, pos, fcsEnd, n, w-1-extra, acc)
			}
			for i := start; i <= fcsEnd-left; i++ {
				pos = append(pos, i)
				if wit, found, err := recFCS(i+1, left-1, acc^syn[i]); found || err != nil {
					return wit, found, err
				}
				pos = pos[:len(pos)-1]
			}
			return nil, false, nil
		}
		if wit, found, err := recFCS(1, extra, 1); found || err != nil {
			return wit, found, err
		}
	}
	return nil, false, nil
}

// WeightBrute counts all weight-w multiples of G within the codeword by
// full enumeration (no canonicalisation, no early exit) — the "compute the
// exact weight" baseline that the paper's filtering avoids. Intended for
// small lengths and for validating the fast engine.
func (e *Evaluator) WeightBrute(w, dataLen int) (uint64, error) {
	if w < 1 || dataLen < 1 {
		return 0, fmt.Errorf("hamming: invalid arguments w=%d dataLen=%d", w, dataLen)
	}
	n := e.codewordLen(dataLen)
	if w > n {
		return 0, nil
	}
	if c := binomAtMost(n, w, 1<<62); c > e.opts.MaxProbes {
		return 0, fmt.Errorf("%w: brute-force W%d at %d codeword bits needs %d combinations",
			ErrBudgetExceeded, w, n, c)
	}
	syn := e.syndromes(n)
	var total uint64
	var rec func(start, left int, acc uint32)
	rec = func(start, left int, acc uint32) {
		if left == 0 {
			e.Stats.Probes++
			if acc == 0 {
				total++
			}
			return
		}
		for i := start; i <= n-left; i++ {
			rec(i+1, left-1, acc^syn[i])
		}
	}
	rec(0, w, 0)
	return total, nil
}

// MeetsHDBrute is the paper-faithful filtering predicate: brute-force
// enumeration with early bailout (and optional FCS-first ordering) of all
// weights below minHD.
func (e *Evaluator) MeetsHDBrute(dataLen, minHD int, order Order) (bool, error) {
	for w := 2; w < minHD; w++ {
		_, found, err := e.ExistsBrute(w, dataLen, order)
		if err != nil {
			return false, err
		}
		if found {
			return false, nil
		}
	}
	return true, nil
}
