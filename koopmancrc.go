// Package koopmancrc is a library for selecting, evaluating and using
// 32-bit (and narrower) CRC polynomials, reproducing Koopman, "32-Bit
// Cyclic Redundancy Codes for Internet Applications" (DSN 2002).
//
// It answers the three questions the paper poses:
//
//   - How good is a CRC polynomial? An Analyzer is a cached evaluation
//     session for one polynomial: Evaluate computes exact Hamming
//     distance bands (Table 1 / Figure 1), HDAt, MaxLenAtHD, Weight and
//     Witness answer pointwise questions, and every boundary discovered
//     by one call is reused by the next.
//   - Which polynomial should a new protocol adopt? Select (and
//     SelectAnalyzers, over caller-owned sessions) ranks candidates for
//     a target message length, reproducing the paper's §4.3 iSCSI
//     recommendation of 0xBA0DC66B.
//   - Are there better polynomials out there? Search filters slices of
//     the full design space with the paper's §4.1 optimisations (see
//     internal/dist for the multi-machine version).
//
// All long-running entry points take a context.Context and accept
// functional options (WithMaxHD, WithProgress, WithLimits).
//
// Checksum computation lives in the koopmancrc/crchash subpackage:
// catalogued algorithms, user registration, engine selection and
// hash.Hash32 digests, with engines cached per algorithm.
package koopmancrc

import (
	"context"
	"fmt"
	"time"

	"koopmancrc/internal/core"
	"koopmancrc/internal/crc"
	"koopmancrc/internal/poly"
)

// Polynomial is a CRC generator polynomial (width plus coefficient set),
// convertible between Koopman, normal, reversed and full notations.
type Polynomial = poly.P

// Notation names a polynomial encoding (see ParsePolynomial).
type Notation = poly.Notation

// Supported notations.
const (
	Koopman  = poly.Koopman
	Normal   = poly.Normal
	Reversed = poly.Reversed
	Full     = poly.Full
)

// The paper's Table 1 polynomials.
var (
	IEEE8023          = poly.IEEE8023
	CastagnoliISCSI   = poly.CastagnoliISCSI
	Koopman32K        = poly.Koopman32K
	Castagnoli1131515 = poly.Castagnoli1131515
	Koopman1130       = poly.Koopman1130
	KoopmanSparse6    = poly.KoopmanSparse6
	CastagnoliHD5     = poly.CastagnoliHD5
	KoopmanSparse5    = poly.KoopmanSparse5
)

// Table1Polynomials returns the eight polynomials characterised in the
// paper's Table 1 and Figure 1, in column order.
func Table1Polynomials() []Polynomial {
	cols := poly.Table1()
	out := make([]Polynomial, len(cols))
	for i, c := range cols {
		out[i] = c.P
	}
	return out
}

// ParsePolynomial reads a polynomial from hex text in the given notation,
// e.g. ParsePolynomial(32, Koopman, "0xBA0DC66B").
func ParsePolynomial(width int, n Notation, s string) (Polynomial, error) {
	return poly.Parse(width, n, s)
}

// MustPolynomial is ParsePolynomial for known-good constants.
func MustPolynomial(width int, n Notation, s string) Polynomial {
	p, err := poly.Parse(width, n, s)
	if err != nil {
		panic(err)
	}
	return p
}

// Band is a maximal range of data-word lengths sharing one Hamming
// distance, a cell of the paper's Table 1.
type Band struct {
	HD      int  // Hamming distance over the range
	AtLeast bool // true if HD is a lower bound (the session's MaxHD was reached)
	From    int  // first data-word length, inclusive, in bits
	To      int  // last data-word length, inclusive, in bits
}

// Transition records where weight W first becomes non-zero.
type Transition struct {
	W        int           // pattern weight
	FirstLen int           // smallest data-word length with W_w > 0
	Witness  []int         // example undetectable pattern (bit positions)
	Elapsed  time.Duration // search time, for the §4.1 cost discussion
}

// Report is the evaluation of one polynomial: its HD bands up to MaxLen
// and the weight boundaries behind them.
type Report struct {
	Poly        Polynomial
	MaxLen      int
	Bands       []Band
	Transitions []Transition // ascending by weight; only weights that occur
	Shape       string
	Period      uint64 // 0 if the period exceeds practical computation
	ParityBit   bool   // divisible by (x+1): all odd-weight errors caught
}

// HDAt returns the report's Hamming distance at a length (atLeast is true
// when the profile depth truncated the answer).
func (r *Report) HDAt(dataLen int) (hd int, atLeast bool, ok bool) {
	for _, b := range r.Bands {
		if dataLen >= b.From && dataLen <= b.To {
			return b.HD, b.AtLeast, true
		}
	}
	return 0, false, false
}

// MaxLenAtHD returns the largest length guaranteeing at least hd.
func (r *Report) MaxLenAtHD(hd int) (int, bool) {
	best := 0
	for _, b := range r.Bands {
		if b.HD >= hd && b.To > best {
			best = b.To
		}
	}
	return best, best > 0
}

// Selection scores one candidate for Select.
type Selection struct {
	Poly Polynomial
	// HD is the Hamming distance at the target length.
	HD int
	// CoverageAtHD is the largest length keeping that HD.
	CoverageAtHD int
}

// SearchConfig describes a design-space search (see the paper's §4).
type SearchConfig struct {
	// Width of the polynomials to search (2..32).
	Width int
	// MinHD is the Hamming distance to demand.
	MinHD int
	// Lengths is the increasing-length filter schedule; the last entry is
	// the target length.
	Lengths []int
	// StartIdx and EndIdx bound the raw index slice to search;
	// EndIdx 0 means the whole space (feasible for width <= ~20).
	StartIdx, EndIdx uint64
	// Parallelism is the number of filter goroutines the slice is
	// fanned out over (0 means GOMAXPROCS, 1 forces sequential). Each
	// internal/dist worker applies the same fan-out to its jobs.
	Parallelism int
}

// SearchResult is the outcome of a Search.
type SearchResult struct {
	// Survivors pass the HD filter at every scheduled length.
	Survivors []Polynomial
	// Candidates is the number of canonical polynomials evaluated.
	Candidates uint64
	// PolysPerSecond is the filter throughput (the paper's §4.2 metric).
	PolysPerSecond float64
	// CensusByShape counts survivors per factorization class (Table 2).
	CensusByShape map[string]int
}

// Search filters a slice of the design space, reproducing the paper's
// search pipeline on a single machine. The slice is carved into
// sub-shards filtered concurrently (see SearchConfig.Parallelism) and
// the partial results merged — the same work-unit layering that
// internal/dist distributes across machines (see cmd/crcsearch).
func Search(ctx context.Context, cfg SearchConfig) (*SearchResult, error) {
	space, err := core.NewSpace(cfg.Width)
	if err != nil {
		return nil, err
	}
	if len(cfg.Lengths) == 0 || cfg.MinHD < 2 {
		return nil, fmt.Errorf("koopmancrc: search needs lengths and MinHD >= 2")
	}
	end := cfg.EndIdx
	if end == 0 {
		end = space.TotalPolynomials()
	}
	pl := &core.Pipeline{Space: space, Lengths: cfg.Lengths, MinHD: cfg.MinHD, Workers: cfg.Parallelism}
	res, err := pl.Run(ctx, cfg.StartIdx, end)
	if err != nil {
		return nil, err
	}
	census, err := core.Census(res.Survivors)
	if err != nil {
		return nil, err
	}
	return &SearchResult{
		Survivors:      res.Survivors,
		Candidates:     res.Canonical,
		PolysPerSecond: res.Rate(),
		CensusByShape:  census,
	}, nil
}

// PureChecksum computes the plain polynomial-remainder CRC (zero init, no
// reflection, zero xor-out): data(x)*x^width mod G(x). This is the
// convention under which Hamming-distance analysis holds bit-for-bit, used
// by the frame helpers below.
func PureChecksum(p Polynomial, data []byte) uint32 {
	return crc.NewBitwise(crc.Pure(p)).Checksum(data)
}

// AppendFCS appends the pure FCS (big-endian, width/8 bytes) to payload,
// returning the codeword frame. The width must be a multiple of 8.
func AppendFCS(p Polynomial, payload []byte) ([]byte, error) {
	w := p.Width()
	if w%8 != 0 {
		return nil, fmt.Errorf("koopmancrc: width %d is not byte-aligned", w)
	}
	fcs := PureChecksum(p, payload)
	frame := append(append([]byte(nil), payload...), make([]byte, w/8)...)
	for i := 0; i < w/8; i++ {
		frame[len(payload)+i] = byte(fcs >> uint(8*(w/8-1-i)))
	}
	return frame, nil
}

// VerifyFCS reports whether frame (payload followed by its pure FCS) is an
// error-free codeword: the remainder of the whole frame is zero.
func VerifyFCS(p Polynomial, frame []byte) bool {
	return PureChecksum(p, frame) == 0
}

// CorruptCodeword flips codeword bit positions in a frame produced by
// AppendFCS. Positions use the polynomial convention of
// Analyzer.Witness: position 0 is the last transmitted bit, so frame
// bit index = total-1-position, MSB-first within bytes.
func CorruptCodeword(frame []byte, positions []int) error {
	total := len(frame) * 8
	for _, p := range positions {
		if p < 0 || p >= total {
			return fmt.Errorf("koopmancrc: position %d outside %d-bit frame", p, total)
		}
		idx := total - 1 - p
		frame[idx/8] ^= 1 << uint(7-idx%8)
	}
	return nil
}
