package hamming

import (
	"flag"
	"fmt"
	"math/big"
	"math/bits"
	"math/rand/v2"
	"sync"
	"testing"

	"koopmancrc/internal/poly"
)

var dual32 = flag.Bool("dual32", false, "run the 32-bit dual-code weight oracle checks (TestDualWeights32*, minutes)")

// The dual-code oracle counts the weight-w multiples of G exactly, sharing
// no code with the engine's scans. The code of N codeword bits is the
// kernel of the r x N parity-check matrix whose column i is x^i mod G, so
// its dual is spanned by that matrix's rows: dual word u (an r-bit
// vector) has bit i = parity(u & (x^i mod G)). The MacWilliams identity
// takes the code's weight distribution from the dual's,
//
//	A_w = 2^-r * sum_j B_j K_w(j; N),
//	K_w(j; N) = sum_k (-1)^k C(j, k) C(N-j, w-k),
//
// where B_j counts the 2^r dual words of weight j (N >= r, so they are
// distinct). The map T(u) = u>>1 | parity(u & g)<<(r-1), g the normal form,
// shifts a dual word's sequence by one: bit i of T(u) is bit i+1 of u. So
// a walk along the cycles of T updates a word's weight over N bits in
// O(1) a step, adding the bit that enters at position N and dropping bit
// 0, and visits all 2^r words.

// dualWalker tracks, along walks of T, the weight of the current dual
// word over each codeword length of ns, and histograms those weights.
type dualWalker struct {
	r    int
	g    uint32   // normal form of G
	pow  []uint32 // pow[i] = x^i mod G, by the walker's own LFSR
	ns   []int    // codeword lengths
	xn   []uint32 // xn[k] = x^ns[k] mod G: the bit entering at ns[k]
	hist [][]uint64
}

func newDualWalker(p poly.P, ns []int) *dualWalker {
	d := &dualWalker{r: p.Width(), g: uint32(p.Normal()), ns: ns}
	maxN := 0
	for _, n := range ns {
		maxN = max(maxN, n)
	}
	top := uint32(1) << (d.r - 1)
	d.pow = make([]uint32, maxN+1)
	d.pow[0] = 1
	for i := 1; i <= maxN; i++ {
		s := d.pow[i-1]
		d.pow[i] = s << 1
		if s&top != 0 {
			d.pow[i] ^= d.g
		}
		if d.r < 32 {
			d.pow[i] &= 1<<d.r - 1
		}
	}
	for _, n := range ns {
		d.xn = append(d.xn, d.pow[n])
		d.hist = append(d.hist, make([]uint64, n+1))
	}
	return d
}

// weightsOf returns the weight of dual word u at each length, bit by bit.
func (d *dualWalker) weightsOf(u uint32) []int {
	wt := make([]int, len(d.ns))
	for k, n := range d.ns {
		for _, s := range d.pow[:n] {
			wt[k] += bits.OnesCount32(u&s) & 1
		}
	}
	return wt
}

// add counts the single word u in hist.
func (d *dualWalker) add(u uint32, hist [][]uint64) {
	for k, w := range d.weightsOf(u) {
		hist[k][w]++
	}
}

// next is T: the dual word u shifted by one position.
func (d *dualWalker) next(u uint32) uint32 {
	return u>>1 | uint32(bits.OnesCount32(u&d.g)&1)<<(d.r-1)
}

// cycle walks the cycle of T through u0 once, adding each word's weight
// at every length to hist (indexed like d.hist), and returns the
// cycle's length. Each word is marked in seen when seen is not nil.
// hitAvoid reports whether the walk passed through the word avoid.
func (d *dualWalker) cycle(u0, avoid uint32, seen []uint64, hist [][]uint64) (length uint64, hitAvoid bool) {
	type track struct {
		x    uint32 // x^N mod G
		wt   int    // the current word's weight over N bits
		hist []uint64
	}
	tracks := make([]track, len(d.ns))
	for k, wt := range d.weightsOf(u0) {
		tracks[k] = track{d.xn[k], wt, hist[k]}
	}
	u := u0
	for {
		out := int(u & 1)
		for i := range tracks {
			t := &tracks[i]
			t.hist[t.wt]++
			t.wt += bits.OnesCount32(u&t.x)&1 - out
		}
		if seen != nil {
			seen[u>>6] |= 1 << (u & 63)
		}
		u = d.next(u)
		length++
		if u == u0 {
			return length, hitAvoid
		}
		hitAvoid = hitAvoid || u == avoid
	}
}

// dualWeights returns A_w(N) for w = 0..maxW at each codeword length N of
// ns, by one walk over every cycle of T, a visited bitmap picking the
// cycle starts. It serves widths up to 24 bits (a 2 MiB bitmap).
func dualWeights(p poly.P, ns []int, maxW int) ([][]*big.Int, error) {
	if p.Width() > 24 {
		return nil, fmt.Errorf("dualWeights: width %d needs a dedicated walk", p.Width())
	}
	d := newDualWalker(p, ns)
	seen := make([]uint64, max(1, (1<<p.Width())/64))
	for u := uint64(0); u < 1<<p.Width(); u++ {
		if seen[u>>6]&(1<<(u&63)) == 0 {
			d.cycle(uint32(u), uint32(u), seen, d.hist)
		}
	}
	return d.weights(maxW)
}

// weights turns the histograms into A_0..A_maxW at each length.
func (d *dualWalker) weights(maxW int) ([][]*big.Int, error) {
	out := make([][]*big.Int, len(d.ns))
	for k, n := range d.ns {
		a, err := macWilliams(d.hist[k], n, d.r, maxW)
		if err != nil {
			return nil, fmt.Errorf("%d codeword bits: %w", n, err)
		}
		out[k] = a
	}
	return out, nil
}

// macWilliams returns A_0..A_maxW of a length-n code from the weight
// histogram b of its 2^r dual words. Every sum must divide by 2^r
// exactly into a non-negative count and A_0 must be 1, so a histogram
// that is not a dual code's fails here.
func macWilliams(b []uint64, n, r, maxW int) ([]*big.Int, error) {
	sums := make([]big.Int, maxW+1)
	cj := make([]big.Int, maxW+1)  // C(j, k)
	cnj := make([]big.Int, maxW+1) // C(n-j, k)
	var term, bj big.Int
	binomials := func(c []big.Int, m int) {
		c[0].SetInt64(1)
		for k := 1; k < len(c); k++ {
			c[k].Mul(&c[k-1], term.SetInt64(int64(m-k+1)))
			c[k].Quo(&c[k], term.SetInt64(int64(k)))
		}
	}
	for j, count := range b {
		if count == 0 {
			continue
		}
		binomials(cj, j)
		binomials(cnj, n-j)
		bj.SetUint64(count)
		for w := 0; w <= maxW; w++ {
			for k := 0; k <= w; k++ {
				term.Mul(&cj[k], &cnj[w-k])
				term.Mul(&term, &bj)
				if k%2 == 0 {
					sums[w].Add(&sums[w], &term)
				} else {
					sums[w].Sub(&sums[w], &term)
				}
			}
		}
	}
	a := make([]*big.Int, maxW+1)
	for w := range sums {
		s := &sums[w]
		if s.Sign() < 0 || (s.Sign() > 0 && s.TrailingZeroBits() < uint(r)) {
			return nil, fmt.Errorf("sum for A_%d = %v is not a non-negative multiple of 2^%d", w, s, r)
		}
		a[w] = s.Rsh(s, uint(r))
	}
	if !isCount(a[0], 1) {
		return nil, fmt.Errorf("A_0 = %v, want 1", a[0])
	}
	return a, nil
}

// isCount reports whether a equals n.
func isCount(a *big.Int, n uint64) bool { return a.IsUint64() && a.Uint64() == n }

// TestDualWeightsMatchBrute checks the oracle itself against full
// enumeration: every weight up to 6 of 8-, 12- and 16-bit generators,
// (x+1)-divisible ones among them, at short data lengths.
func TestDualWeightsMatchBrute(t *testing.T) {
	rng := rand.New(rand.NewPCG(2121, 21))
	gens := []poly.P{poly.ATM8, poly.DARC8, poly.CCITT16}
	for _, width := range []int{8, 12, 16} {
		gens = append(gens, randPoly(rng, width), xp1Poly(rng, width))
	}
	const maxW = 6
	for _, p := range gens {
		e := New(p)
		dataLens := []int{1, 3, 9, 17, 26}
		got, err := dualWeights(p, codewordLens(p, dataLens), maxW)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		for i, l := range dataLens {
			for w := 1; w <= maxW; w++ {
				want, err := e.WeightBrute(w, l)
				if err != nil {
					t.Fatal(err)
				}
				if !isCount(got[i][w], want) {
					t.Fatalf("%v at %d data bits: dual A_%d = %d, brute %d", p, l, w, got[i][w], want)
				}
			}
		}
	}
}

// checkScanAgainstDual checks the boundary scans and the exact counts of
// one generator against the dual-code oracle, to maxLen data bits: at
// each boundary the scan reports for w = 2..8, A_w(N-1) = 0 < A_w(N);
// where it reports none, A_w(maxLen) = 0; and at every length checked,
// Weight(2..4) is A_2..A_4 (Weight(4) is refused where A_2 > 0).
func checkScanAgainstDual(t *testing.T, p poly.P, maxLen int) {
	t.Helper()
	const maxW = 8
	e := New(p)
	boundary := map[int]int{} // weight -> scan boundary, 0 if none
	var dataLens []int
	seen := map[int]bool{}
	addLen := func(l int) {
		if !seen[l] {
			seen[l] = true
			dataLens = append(dataLens, l)
		}
	}
	addLen(maxLen)
	for w := 2; w <= maxW; w++ {
		n, wit, found, err := e.FirstDataLen(w, maxLen)
		if err != nil {
			t.Fatal(err)
		}
		if found {
			checkBoundaryWitness(t, e, w, n, wit)
			boundary[w] = n
			addLen(n - 1)
			addLen(n)
		}
	}
	a, err := dualWeights(p, codewordLens(p, dataLens), maxW)
	if err != nil {
		t.Fatalf("%v: %v", p, err)
	}
	at := map[int][]*big.Int{}
	for i, l := range dataLens {
		at[l] = a[i]
	}
	for w := 2; w <= maxW; w++ {
		if n := boundary[w]; n > 0 {
			checkDualBoundary(t, p, w, n, at[n-1], at[n])
		} else if got := at[maxLen][w]; got.Sign() != 0 {
			t.Fatalf("%v: scan finds no w=%d pattern to %d data bits, dual A_%d = %d", p, w, maxLen, w, got)
		}
	}
	for _, l := range dataLens {
		if l < 1 {
			continue
		}
		for w := 2; w <= 4; w++ {
			got, err := e.Weight(w, l)
			if w == 4 && at[l][2].Sign() > 0 {
				if err == nil {
					t.Fatalf("%v: Weight(4, %d) = %d past the period (A_2 = %d), want it refused", p, l, got, at[l][2])
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if !isCount(at[l][w], got) {
				t.Fatalf("%v: Weight(%d, %d) = %d, dual A_%d = %d", p, w, l, got, w, at[l][w])
			}
		}
	}
}

// TestDualWeights32 checks the engine on two Table 1 generators with the
// dual-code oracle at 32 bits, where no visited bitmap is needed: the
// cycles of T are known from the generator's factors. 802.3 is primitive,
// so its nonzero dual words form one cycle of 2^32-1. 0x8F6E37A0 is
// (x+1) times a primitive P of degree 31: T fixes 0 and the all-ones word
// f, whose sequence is x^i mod G evaluated at x = 1, and the other words
// split by their (x+1) part into two cycles of 2^31-1; T(u^f) = T(u)^f, so
// one cycle runs through u0 and the other through u0^f. Each walk is
// 2^31 or 2^32 steps, a few nanoseconds a step per tracked length, so
// the test runs only with -dual32; the two generators, and the two
// cycles of 0x8F6E37A0, walk in parallel (about 2.5 minutes on 2 CPUs).
func TestDualWeights32(t *testing.T) {
	if !*dual32 {
		t.Skip("the 32-bit dual-code walks take minutes; run with -dual32")
	}
	t.Run("802.3", func(t *testing.T) {
		t.Parallel()
		e := New(poly.IEEE8023)
		b5 := scanBoundary(t, e, 5, 512)
		b6 := scanBoundary(t, e, 6, 512)
		dataLens := []int{2974, 2975, 12112, b5 - 1, b5, b6 - 1, b6}
		d := newDualWalker(poly.IEEE8023, codewordLens(poly.IEEE8023, dataLens))
		if n, _ := d.cycle(1, 1, nil, d.hist); n != 1<<32-1 {
			t.Fatalf("the cycle of T through 1 has %d words, want 2^32-1", n)
		}
		d.add(0, d.hist)
		a, err := d.weights(6)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []uint64{0, 1, 223059} {
			if !isCount(a[i][4], want) {
				t.Errorf("A_4 at %d data bits = %v, want %d", dataLens[i], a[i][4], want)
			}
		}
		if a[2][2].Sign() != 0 || a[2][3].Sign() != 0 {
			t.Errorf("A_2, A_3 at 12112 data bits = %v, %v, want 0, 0", a[2][2], a[2][3])
		}
		checkDualBoundary(t, poly.IEEE8023, 5, b5, a[3], a[4])
		checkDualBoundary(t, poly.IEEE8023, 6, b6, a[5], a[6])
		t.Logf("802.3 at 12112 data bits: A_4..A_6 = %v", a[2][4:])
	})
	t.Run("0x8F6E37A0", func(t *testing.T) {
		t.Parallel()
		p := poly.CastagnoliISCSI
		e := New(p)
		if _, _, found, err := e.FirstDataLen(4, 512); err != nil || found {
			t.Fatalf("FirstDataLen(4, 512) found=%v, %v; want no weight-4 pattern", found, err)
		}
		b6 := scanBoundary(t, e, 6, 512)
		w4, err := e.Weight(4, 12112)
		if err != nil {
			t.Fatal(err)
		}
		dataLens := []int{512, b6 - 1, b6, 12112}
		d := newDualWalker(p, codewordLens(p, dataLens))
		f := uint32(1<<32 - 1)
		if d.next(f) != f {
			t.Fatalf("T does not fix the all-ones word")
		}
		u0 := uint32(1)
		var wg sync.WaitGroup
		lens, hits := [2]uint64{}, [2]bool{}
		hists := [2][][]uint64{}
		for i, start := range []uint32{u0, u0 ^ f} {
			hists[i] = make([][]uint64, len(d.ns))
			for k, n := range d.ns {
				hists[i][k] = make([]uint64, n+1)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				lens[i], hits[i] = d.cycle(start, start^f, nil, hists[i])
			}()
		}
		wg.Wait()
		if hits[0] || hits[1] || lens[0]+lens[1]+2 != 1<<32 {
			t.Fatalf("cycles through u0 and u0^f: %d and %d words (each passing the other: %v), want two of 2^31-1",
				lens[0], lens[1], hits)
		}
		for k := range d.hist {
			for j := range d.hist[k] {
				d.hist[k][j] = hists[0][k][j] + hists[1][k][j]
			}
		}
		d.add(0, d.hist)
		d.add(f, d.hist)
		a, err := d.weights(6)
		if err != nil {
			t.Fatal(err)
		}
		if a[0][4].Sign() != 0 {
			t.Errorf("the scan finds no weight-4 pattern to 512 data bits; dual A_4 = %v", a[0][4])
		}
		checkDualBoundary(t, p, 6, b6, a[1], a[2])
		if !isCount(a[3][4], w4) {
			t.Errorf("Weight(4, 12112) = %d, dual A_4 = %v", w4, a[3][4])
		}
		for w := 1; w <= 5; w += 2 {
			if a[3][w].Sign() != 0 {
				t.Errorf("odd weight A_%d = %v at 12112 data bits for an (x+1) multiple", w, a[3][w])
			}
		}
		t.Logf("0x8F6E37A0 at 12112 data bits: A_4..A_6 = %v", a[3][4:])
	})
}

// scanBoundary is the scan's weight-w boundary to maxLen data bits,
// which must exist.
func scanBoundary(t *testing.T, e *Evaluator, w, maxLen int) int {
	t.Helper()
	n, wit, found, err := e.FirstDataLen(w, maxLen)
	if err != nil || !found {
		t.Fatalf("%v: FirstDataLen(%d, %d) found=%v, %v", e.Poly(), w, maxLen, found, err)
	}
	checkBoundaryWitness(t, e, w, n, wit)
	return n
}

// checkDualBoundary checks a weight-w scan boundary at n data bits
// against the oracle's counts before, at n-1 bits, and at, at n bits:
// A_w(n-1) = 0 < A_w(n).
func checkDualBoundary(t *testing.T, p poly.P, w, n int, before, at []*big.Int) {
	t.Helper()
	if before[w].Sign() != 0 || at[w].Sign() == 0 {
		t.Errorf("%v: scan boundary of w=%d at %d data bits, dual A_%d = %v there and %v one bit shorter",
			p, w, n, w, at[w], before[w])
	}
}

func codewordLens(p poly.P, dataLens []int) []int {
	ns := make([]int, len(dataLens))
	for i, l := range dataLens {
		ns[i] = l + p.Width()
	}
	return ns
}
