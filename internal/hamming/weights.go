package hamming

import "fmt"

// Weight returns the exact number of undetectable error patterns of exactly
// w bits within the codeword of the given data-word length — the paper's
// weight W_w. Exact computation is supported for w <= 4; the paper itself
// notes that exact weights beyond the first non-zero one are "largely
// unimportant" (§3) and that exact weighting of the HD=6 survivors was
// impractical (§4.2). Use WeightBrute for small lengths and higher weights.
// Odd weights of a generator divisible by (x+1) are 0 at every length.
func (e *Evaluator) Weight(w, dataLen int) (uint64, error) {
	if dataLen < 1 {
		return 0, fmt.Errorf("hamming: invalid data length %d", dataLen)
	}
	if e.oddWeightImpossible(w) {
		return 0, nil
	}
	switch w {
	case 1:
		return 0, nil
	case 2:
		return e.weight2(dataLen)
	case 3:
		return e.weight3(dataLen)
	case 4:
		return e.weight4(dataLen)
	default:
		return 0, fmt.Errorf("hamming: exact weight computation supports w <= 4, got %d (use WeightBrute)", w)
	}
}

// weight2 counts pairs {i, i+k*period}: the 2-bit patterns x^i (1 + x^(kp)).
func (e *Evaluator) weight2(dataLen int) (uint64, error) {
	period, err := e.Period()
	if err != nil {
		return 0, err
	}
	n := uint64(e.codewordLen(dataLen))
	if steps := (n - 1) / period; steps > uint64(e.opts.MaxProbes) {
		return 0, fmt.Errorf("%w: exact W2 at %d codeword bits needs %d scan steps (limit %d)",
			ErrBudgetExceeded, n, steps, e.opts.MaxProbes)
	}
	if err := e.begin(2, dataLen); err != nil {
		return 0, err
	}
	defer e.spanStart(SpanW2Count, 2, dataLen)()
	var total uint64
	for k := uint64(1); k*period <= n-1; k++ {
		total += n - k*period
		e.Stats.Probes++
		if err := e.tick(2, dataLen, 1); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// weight3 counts weight-3 multiples of G by enumerating canonical patterns
// {0, a, c} (bit 0 set) and crediting each with its N-c translates.
func (e *Evaluator) weight3(dataLen int) (uint64, error) {
	n := e.codewordLen(dataLen)
	if int64(n-1) > e.opts.MaxProbes {
		return 0, fmt.Errorf("%w: exact W3 at %d codeword bits needs %d scan steps (limit %d)",
			ErrBudgetExceeded, n, n-1, e.opts.MaxProbes)
	}
	if err := e.begin(3, dataLen); err != nil {
		return 0, err
	}
	defer e.spanStart(SpanW3Count, 3, dataLen)()
	syn := e.syndromes(n)
	counts := newU32Count(n)
	var total uint64
	for c := 1; c < n; c++ {
		e.Stats.Probes++
		if err := e.tick(3, dataLen, 1); err != nil {
			return 0, err
		}
		if m := counts.count(syn[c]); m > 0 {
			total += uint64(m) * uint64(n-c)
		}
		counts.add(1 ^ syn[c])
	}
	e.Stats.StoreOps += int64(n - 1)
	return total, nil
}

// weight4 counts weight-4 multiples of G via pair-syndrome collisions:
// every weight-4 codeword {i,j,k,l} is counted by exactly three unordered
// pairs of position pairs with equal syndromes, so
//
//	W4 = sum over syndrome values s of C(m_s, 2) / 3
//
// where m_s is the number of position pairs with syndrome s. The formula
// requires W2 = 0 at this length (otherwise pairs may share positions),
// which is detected via zero-syndrome runs and reported as an error.
func (e *Evaluator) weight4(dataLen int) (uint64, error) {
	n := e.codewordLen(dataLen)
	pairs := int64(n) * int64(n-1) / 2
	if pairs > int64(e.opts.MaxPairBuffer) {
		return 0, fmt.Errorf("%w: exact W4 at %d codeword bits needs %d pair entries (limit %d)",
			ErrBudgetExceeded, n, pairs, e.opts.MaxPairBuffer)
	}
	if err := e.begin(4, dataLen); err != nil {
		return 0, err
	}
	defer e.spanStart(SpanW4Count, 4, dataLen)()
	syn := e.syndromes(n)
	buf := make([]uint32, pairs)
	idx := 0
	for i := 0; i < n; i++ {
		if err := e.tick(4, dataLen, int64(n-i-1)); err != nil {
			return 0, err
		}
		si := syn[i]
		for j := i + 1; j < n; j++ {
			buf[idx] = si ^ syn[j]
			idx++
		}
	}
	e.Stats.StoreOps += pairs
	sorted := radixSortUint32(buf, nil)
	if len(sorted) > 0 && sorted[0] == 0 {
		// A zero pair syndrome is a weight-2 codeword: pairs may then share
		// positions and the three-pairings-per-codeword argument breaks.
		return 0, fmt.Errorf("hamming: W2 > 0 at data length %d; pair-collision W4 formula inapplicable", dataLen)
	}
	var matches uint64
	run := uint64(1)
	for i := 1; i <= len(sorted); i++ {
		if i < len(sorted) && sorted[i] == sorted[i-1] {
			run++
			continue
		}
		if run > 1 {
			matches += run * (run - 1) / 2
		}
		run = 1
	}
	if matches%3 != 0 {
		return 0, fmt.Errorf("hamming: internal error: %d pair matches not divisible by 3", matches)
	}
	return matches / 3, nil
}

// Weights returns exact W2..Wmax at the given length (max <= 4), the
// paper's weight-vector notation {W2, W3, W4, ...}.
func (e *Evaluator) Weights(dataLen, max int) ([]uint64, error) {
	if max < 2 || max > 4 {
		return nil, fmt.Errorf("hamming: Weights supports max in 2..4, got %d", max)
	}
	out := make([]uint64, 0, max-1)
	for w := 2; w <= max; w++ {
		v, err := e.Weight(w, dataLen)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
