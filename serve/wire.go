package serve

import (
	"context"
	"fmt"
	"strings"

	"koopmancrc"
	"koopmancrc/internal/obs"
)

// PolyRef identifies a polynomial on the wire. Width defaults to 32 and
// Notation to "koopman" when omitted.
type PolyRef struct {
	Poly     string `json:"poly"`
	Width    int    `json:"width,omitempty"`
	Notation string `json:"notation,omitempty"` // koopman|normal|reversed|full
}

// ParseNotation maps a wire notation name (case-insensitive; "" means
// koopman) to the library constant.
func ParseNotation(s string) (koopmancrc.Notation, error) {
	switch strings.ToLower(s) {
	case "", "koopman":
		return koopmancrc.Koopman, nil
	case "normal":
		return koopmancrc.Normal, nil
	case "reversed":
		return koopmancrc.Reversed, nil
	case "full":
		return koopmancrc.Full, nil
	default:
		return 0, fmt.Errorf("unknown notation %q", s)
	}
}

// Polynomial resolves the reference to a library Polynomial.
func (r PolyRef) Polynomial() (koopmancrc.Polynomial, error) {
	if r.Poly == "" {
		return koopmancrc.Polynomial{}, fmt.Errorf("missing poly")
	}
	width := r.Width
	if width == 0 {
		width = 32
	}
	n, err := ParseNotation(r.Notation)
	if err != nil {
		return koopmancrc.Polynomial{}, err
	}
	return koopmancrc.ParsePolynomial(width, n, r.Poly)
}

// Limits carries a request's engine resource budget; a zero field keeps
// the server default, and the server clamps it to its configured
// ceiling.
type Limits struct {
	MaxProbes int64 `json:"max_probes,omitempty"`
}

// EvaluateRequest asks for the HD-vs-length profile of one polynomial —
// one column of the paper's Table 1 — plus, optionally, exact W2..W4
// counts at chosen lengths.
type EvaluateRequest struct {
	PolyRef
	MaxLen  int     `json:"max_len"`
	MaxHD   int     `json:"max_hd,omitempty"`
	Limits  *Limits `json:"limits,omitempty"`
	Weights []int   `json:"weights,omitempty"` // lengths for exact W2..W4
}

// Band is a range of data-word lengths (bits, inclusive) sharing a
// Hamming distance.
type Band struct {
	HD      int  `json:"hd"`
	AtLeast bool `json:"at_least,omitempty"`
	From    int  `json:"from"`
	To      int  `json:"to"`
}

// Transition is a weight boundary: the first data-word length at which an
// undetectable pattern of the given weight exists, with one witness
// (codeword bit positions, position 0 = last transmitted bit).
type Transition struct {
	Weight   int   `json:"weight"`
	FirstLen int   `json:"first_len"`
	Witness  []int `json:"witness,omitempty"`
}

// WeightCount reports the exact number of undetectable 2-, 3- and 4-bit
// error patterns at one data-word length.
type WeightCount struct {
	Length int    `json:"length"`
	W2     uint64 `json:"w2"`
	W3     uint64 `json:"w3"`
	W4     uint64 `json:"w4"`
}

// EvaluateResponse is the wire form of a koopmancrc.Report. Timing
// fields are deliberately absent so equal evaluations marshal to equal
// bytes (cmd/crceval -json round-trips through this type).
type EvaluateResponse struct {
	Poly        string        `json:"poly"` // koopman notation hex
	Normal      string        `json:"normal"`
	Reversed    string        `json:"reversed"`
	Width       int           `json:"width"`
	MaxLen      int           `json:"max_len"`
	MaxHD       int           `json:"max_hd"`
	Shape       string        `json:"shape,omitempty"`
	Period      uint64        `json:"period,omitempty"`
	ParityBit   bool          `json:"parity_bit"`
	Bands       []Band        `json:"bands"`
	Transitions []Transition  `json:"transitions"`
	Weights     []WeightCount `json:"weights,omitempty"`
}

// hexStr formats a polynomial word the way the wire types spell them.
func hexStr(v uint64) string { return fmt.Sprintf("%#x", v) }

// NewEvaluateResponse assembles the wire response for a completed
// evaluation. It is shared by the server's /v1/evaluate handler and
// cmd/crceval -json, which keeps the two outputs byte-comparable.
func NewEvaluateResponse(rep *koopmancrc.Report, maxHD int, weights []WeightCount) *EvaluateResponse {
	p := rep.Poly
	resp := &EvaluateResponse{
		Poly:      hexStr(p.In(koopmancrc.Koopman)),
		Normal:    hexStr(p.In(koopmancrc.Normal)),
		Reversed:  hexStr(p.In(koopmancrc.Reversed)),
		Width:     p.Width(),
		MaxLen:    rep.MaxLen,
		MaxHD:     maxHD,
		Shape:     rep.Shape,
		Period:    rep.Period,
		ParityBit: rep.ParityBit,
		Weights:   weights,
	}
	for _, b := range rep.Bands {
		resp.Bands = append(resp.Bands, Band{HD: b.HD, AtLeast: b.AtLeast, From: b.From, To: b.To})
	}
	for _, tr := range rep.Transitions {
		resp.Transitions = append(resp.Transitions, Transition{Weight: tr.W, FirstLen: tr.FirstLen, Witness: tr.Witness})
	}
	return resp
}

// WeightCounts computes the exact W2..W4 counts at each length on an
// Analyzer session. The server's /v1/evaluate handler and cmd/crceval
// -json share it, which is what keeps their outputs byte-comparable.
func WeightCounts(ctx context.Context, an *koopmancrc.Analyzer, lengths []int) ([]WeightCount, error) {
	var out []WeightCount
	for _, l := range lengths {
		wc := WeightCount{Length: l}
		for w := 2; w <= 4; w++ {
			v, err := an.Weight(ctx, w, l)
			if err != nil {
				return nil, err
			}
			switch w {
			case 2:
				wc.W2 = v
			case 3:
				wc.W3 = v
			case 4:
				wc.W4 = v
			}
		}
		out = append(out, wc)
	}
	return out, nil
}

// HDRequest asks for the exact Hamming distance at one data-word length.
type HDRequest struct {
	PolyRef
	DataLen int     `json:"data_len"`
	MaxHD   int     `json:"max_hd,omitempty"`
	Limits  *Limits `json:"limits,omitempty"`
}

// HDResponse answers an HDRequest; Exact false means every weight up to
// MaxHD came back clean, so the true HD is at least HD.
type HDResponse struct {
	Poly    string `json:"poly"`
	DataLen int    `json:"data_len"`
	HD      int    `json:"hd"`
	Exact   bool   `json:"exact"`
}

// MaxLenRequest asks for the largest data-word length (searched up to
// Horizon) still guaranteeing the given Hamming distance.
type MaxLenRequest struct {
	PolyRef
	HD      int     `json:"hd"`
	Horizon int     `json:"horizon"`
	Limits  *Limits `json:"limits,omitempty"`
}

// MaxLenResponse answers a MaxLenRequest; OK false means even length 1
// falls short of the requested HD.
type MaxLenResponse struct {
	Poly    string `json:"poly"`
	HD      int    `json:"hd"`
	Horizon int    `json:"horizon"`
	MaxLen  int    `json:"max_len"`
	OK      bool   `json:"ok"`
}

// SelectRequest ranks candidate polynomials for protecting messages of
// DataLen bits (the paper's §4.3 methodology).
type SelectRequest struct {
	Candidates []PolyRef `json:"candidates"`
	DataLen    int       `json:"data_len"`
	MaxHD      int       `json:"max_hd,omitempty"`
	Limits     *Limits   `json:"limits,omitempty"`
}

// Selection scores one ranked candidate.
type Selection struct {
	Poly         string `json:"poly"`
	Width        int    `json:"width"`
	HD           int    `json:"hd"`
	CoverageAtHD int    `json:"coverage_at_hd"`
}

// SelectResponse lists candidates best-first.
type SelectResponse struct {
	DataLen int         `json:"data_len"`
	Ranking []Selection `json:"ranking"`
}

// ChecksumRequest computes a CRC under a catalogued algorithm. Data is
// base64 on the wire (Go []byte JSON convention); Text is a convenience
// alternative for hand-written requests and is used when Data is empty.
type ChecksumRequest struct {
	Algorithm string `json:"algorithm"`
	Data      []byte `json:"data,omitempty"`
	Text      string `json:"text,omitempty"`
}

// ChecksumResponse reports the check value in decimal and hex, plus
// which checksum kernel actually served the request ("hardware",
// "slicing16", ... — see crchash.Kind).
type ChecksumResponse struct {
	Algorithm string `json:"algorithm"`
	Length    int    `json:"length"` // payload bytes
	Checksum  uint32 `json:"checksum"`
	Hex       string `json:"hex"`
	Kernel    string `json:"kernel"`
}

// ChecksumBatchRequest carries many checksum payloads in one round
// trip, amortizing per-request HTTP and JSON overhead. Items follow the
// single-checksum convention (base64 Data, or Text when Data is empty).
type ChecksumBatchRequest struct {
	Items []ChecksumRequest `json:"items"`
}

// ChecksumBatchItem is one per-item outcome. On success Error is empty
// and the remaining fields mirror ChecksumResponse; on failure (unknown
// algorithm, overlong payload) Error explains, the checksum fields are
// zero, and RequestID carries the batch request's ID so the failure can
// be located in the server's logs like a top-level ErrorResponse can. A
// failed item never fails its batch.
type ChecksumBatchItem struct {
	Algorithm string `json:"algorithm,omitempty"`
	Length    int    `json:"length"`
	Checksum  uint32 `json:"checksum"`
	Hex       string `json:"hex,omitempty"`
	Kernel    string `json:"kernel,omitempty"`
	Error     string `json:"error,omitempty"`
	RequestID string `json:"request_id,omitempty"`
}

// ChecksumBatchResponse answers a batch: one item per request item, in
// order, plus summary counts so clients can cheaply spot partial
// failure.
type ChecksumBatchResponse struct {
	Count  int                 `json:"count"`
	Failed int                 `json:"failed"`
	Items  []ChecksumBatchItem `json:"items"`
}

// AlgorithmsResponse lists the catalogued algorithm names, sorted.
type AlgorithmsResponse struct {
	Algorithms []string `json:"algorithms"`
}

// ProgressEvent is one SSE progress tick of a streaming evaluation.
type ProgressEvent struct {
	Poly    string `json:"poly"`
	Weight  int    `json:"weight"`
	DataLen int    `json:"data_len"`
	Probes  int64  `json:"probes"`
}

// ErrorResponse is the body of every non-2xx JSON reply (and the SSE
// "error" event of a failed stream), shared with the obs debug routes.
type ErrorResponse = obs.ErrorResponse
