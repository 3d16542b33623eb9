package hamming

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

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
// with its n-c translates, as in weight3. One pass costs C(n-1,2) probes.
// The stored syndromes are distinct only while W2 = 0 at this length
// (x^a = x^b mod G needs the period to divide b-a), so a length past the
// period is reported as an error before any row runs. A count of at
// least w4SplitProbes probes splits its rows over up to GOMAXPROCS
// goroutines, the caller among them, each with its own O(n) copy of the
// store (see countW4Split); a smaller one runs serially in the caller.
// Either way the answer and the Stats are those of the serial loop.
func (e *Evaluator) weight4(dataLen int) (uint64, error) {
	n := e.codewordLen(dataLen)
	probes := binomAtMost(n-1, 2, 1<<62)
	if probes > e.opts.MaxProbes {
		return 0, fmt.Errorf("%w: exact W4 at %d codeword bits needs %d probes (limit %d)",
			ErrBudgetExceeded, n, probes, e.opts.MaxProbes)
	}
	if err := e.begin(4, dataLen); err != nil {
		return 0, err
	}
	defer e.spanStart(SpanW4Count, 4, dataLen)()
	workers := 1
	if probes >= w4SplitProbes {
		workers = min(runtime.GOMAXPROCS(0), (n-1+w4Block-1)/w4Block)
	}
	t, err := e.countW4(dataLen, workers)
	if err != nil {
		return 0, err
	}
	if t.shapes != t.mirrored {
		return 0, fmt.Errorf("hamming: internal error: %d weight-4 shapes found with a < b, %d with a > b", t.shapes, t.mirrored)
	}
	return t.total, nil
}

// w4SplitProbes is the work floor of the split weight-4 count: a count
// of fewer probes runs serially in the caller, with no goroutine and no
// second store. Measured on a 2-vCPU AVX-512 host, two workers break
// even with the serial loop near 2^18.5 probes (codewords of about 850
// bits), save about a tenth at 2^20 and about half at 2^21; the floor
// keeps every count of a few thousand bits or less serial.
const w4SplitProbes = 1 << 20

// w4Block is how many rows of the weight-4 count a worker takes at a
// time: from the shared cursor when split, in order when serial. The
// last block, the costliest, is about w4Block*n probes, which bounds
// the wait at the join and the time between polls of the cancel hook.
// Blocks rather than single rows also keep the per-row call and tick
// off the short counts.
const w4Block = 64

// w4Tally is a weight-4 count: the patterns found with a < b, credited
// with their translates in total, and those found with a > b.
type w4Tally struct{ total, shapes, mirrored uint64 }

// w4Worker is one goroutine's share of the weight-4 count: its own copy
// of the store, which holds 1^syn[a] at a for every a < next, its sieve
// scratch and its tally.
type w4Worker struct {
	m    *u32map
	out  []int32
	next int
	w4Tally
}

// rows counts rows c = lo..hi-1 (lo >= next). The store first catches up
// with the keys of the rows before lo, so row c sees exactly the keys
// a < c that the serial loop's store holds at row c.
func (w *w4Worker) rows(syn, hsyn []uint32, lo, hi int) {
	m, out, n := w.m, w.out, len(syn)
	for ; w.next < lo; w.next++ {
		m.put(1^syn[w.next], int32(w.next))
	}
	t := w.w4Tally
	for c := lo; c < hi; c++ {
		sc := syn[c]
		for _, i := range m.sieve(hsyn[1:c], hsyn[c], out) {
			b := 1 + int(i)
			if a := m.find(syn[b] ^ sc); a >= 0 {
				if int(a) < b {
					t.shapes++
					t.total += uint64(n - c)
				} else {
					t.mirrored++
				}
			}
		}
		m.put(1^sc, int32(c))
	}
	w.w4Tally, w.next = t, hi
}

// rowProbes is the number of probes of rows lo..hi-1 of the weight-4
// count: row c probes its c-1 pairs {b, c}.
func rowProbes(lo, hi int) int64 { return int64(lo+hi-3) * int64(hi-lo) / 2 }

// countW4 runs the rows of the weight-4 count at dataLen on the given
// number of workers, after refusing a length where W2 > 0. One worker
// is the serial loop in the caller, which takes the rows w4Block at a
// time and ticks between blocks; more go to countW4Split. Every worker
// count gives the same tally and the same Stats.
func (e *Evaluator) countW4(dataLen, workers int) (w4Tally, error) {
	n := e.codewordLen(dataLen)
	syn := e.syndromes(n)
	for _, s := range syn[1:] {
		if s == 1 {
			// x^c = 1 mod G: {0, c} is a weight-2 codeword.
			return w4Tally{}, fmt.Errorf("hamming: W2 > 0 at data length %d; the weight-4 pair scan needs W2 = 0", dataLen)
		}
	}
	hsyn := e.hsyn[:n]
	if workers > 1 {
		return e.countW4Split(dataLen, syn, hsyn, workers)
	}
	w := w4Worker{m: newU32Map(n), out: e.rowScratch(n), next: 1}
	for lo := 1; lo < n; lo += w4Block {
		hi := min(lo+w4Block, n)
		probes := rowProbes(lo, hi)
		if err := e.tick(4, dataLen, probes); err != nil {
			return w4Tally{}, err
		}
		w.rows(syn, hsyn, lo, hi)
		e.Stats.Probes += probes
	}
	e.Stats.StoreOps += int64(n - 1)
	return w.w4Tally, nil
}

// countW4Split counts the rows c = 1..n-1 on workers goroutines, the
// caller one of them. Rows go out in increasing order, w4Block at a
// time, from one shared cursor; each worker owns a store sized for all
// n keys, so it never grows, and its own sieve scratch, and catches its
// store up before each block (w4Worker.rows). The tallies are summed
// after the join. Only the caller touches the Evaluator: between its
// blocks it sets Stats.Probes to the probes of every finished block and
// ticks, so the progress and cancel hooks run on it alone. A tick error
// stops every worker at its next block, and every goroutine is joined
// before the function returns, on every path. On success Stats.Probes
// has grown by exactly C(n-1, 2) and StoreOps by n-1: catch-up puts are
// not counted.
func (e *Evaluator) countW4Split(dataLen int, syn, hsyn []uint32, workers int) (w4Tally, error) {
	n := len(syn)
	var (
		cursor atomic.Int64 // blocks handed out
		done   atomic.Int64 // probes of the blocks finished
		stop   atomic.Bool
		wg     sync.WaitGroup
	)
	block := func() (lo, hi int) {
		lo = 1 + int(cursor.Add(1)-1)*w4Block
		return lo, min(lo+w4Block, n)
	}
	tallies := make([]w4Tally, workers)
	for i := 1; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := w4Worker{m: newU32Map(n), out: make([]int32, n), next: 1}
			for !stop.Load() {
				lo, hi := block()
				if lo >= n {
					break
				}
				w.rows(syn, hsyn, lo, hi)
				done.Add(rowProbes(lo, hi))
			}
			tallies[i] = w.w4Tally
		}()
	}
	w := w4Worker{m: newU32Map(n), out: e.rowScratch(n), next: 1}
	base := e.Stats.Probes
	var err error
	for err == nil {
		lo, hi := block()
		if lo >= n {
			break
		}
		w.rows(syn, hsyn, lo, hi)
		probes := base + done.Add(rowProbes(lo, hi))
		ops := probes - e.Stats.Probes
		e.Stats.Probes = probes
		err = e.tick(4, dataLen, ops)
	}
	stop.Store(err != nil)
	wg.Wait()
	e.Stats.Probes = base + done.Load()
	if err != nil {
		return w4Tally{}, err
	}
	e.Stats.StoreOps += int64(n - 1)
	t := w.w4Tally
	for _, p := range tallies[1:] {
		t.total += p.total
		t.shapes += p.shapes
		t.mirrored += p.mirrored
	}
	return t, nil
}
