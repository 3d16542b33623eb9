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
	counts := newU32Map(n)
	var total uint64
	for c := 1; c < n; c++ {
		e.Stats.Probes++
		if err := e.tick(3, dataLen, 1); err != nil {
			return 0, err
		}
		if m := counts.get(syn[c]); m > 0 {
			total += uint64(m) * uint64(n-c)
		}
		counts.inc(1 ^ syn[c])
	}
	e.Stats.StoreOps += int64(n - 1)
	return total, nil
}

// weight4 counts weight-4 multiples of G with the firstLen4 pair scan
// run to the end instead of stopping at the first hit: for each largest
// position c, every pair {b,c} is probed against the stored {0,a}
// syndromes (a < c), the row of b sieved at once and only its hits
// looked up, and each canonical pattern {0,a,b,c} — found once
// with a < b and once with the middle positions swapped — is credited
// with its n-c translates, as in weight3. One pass costs C(n-1,2) probes
// and O(n) memory. The stored syndromes are distinct only while W2 = 0
// at this length (x^a = x^b mod G needs the period to divide b-a), so a
// length past the period is reported as an error.
func (e *Evaluator) weight4(dataLen int) (uint64, error) {
	n := e.codewordLen(dataLen)
	if probes := binomAtMost(n-1, 2, 1<<62); probes > e.opts.MaxProbes {
		return 0, fmt.Errorf("%w: exact W4 at %d codeword bits needs %d probes (limit %d)",
			ErrBudgetExceeded, n, probes, e.opts.MaxProbes)
	}
	if err := e.begin(4, dataLen); err != nil {
		return 0, err
	}
	defer e.spanStart(SpanW4Count, 4, dataLen)()
	syn := e.syndromes(n)
	hsyn := e.hsyn[:n]
	m := newU32Map(n)
	out := e.rowScratch(n)
	var total, shapes, mirrored uint64
	for c := 1; c < n; c++ {
		if err := e.tick(4, dataLen, int64(c-1)); err != nil {
			return 0, err
		}
		sc := syn[c]
		if sc == 1 {
			// x^c = 1 mod G: {0, c} is a weight-2 codeword.
			return 0, fmt.Errorf("hamming: W2 > 0 at data length %d; the weight-4 pair scan needs W2 = 0", dataLen)
		}
		for _, i := range m.sieve(hsyn[1:c], hsyn[c], out) {
			b := 1 + int(i)
			if a := m.find(syn[b] ^ sc); a >= 0 {
				if int(a) < b {
					shapes++
					total += uint64(n - c)
				} else {
					mirrored++
				}
			}
		}
		e.Stats.Probes += int64(c - 1)
		m.put(1^sc, int32(c))
	}
	e.Stats.StoreOps += int64(n - 1)
	if shapes != mirrored {
		return 0, fmt.Errorf("hamming: internal error: %d weight-4 shapes found with a < b, %d with a > b", shapes, mirrored)
	}
	return total, nil
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
