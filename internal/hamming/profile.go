package hamming

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Band is a maximal range of data-word lengths sharing one Hamming
// distance, a cell of the paper's Table 1.
type Band struct {
	HD      int  // Hamming distance over the range
	AtLeast bool // true if HD is a lower bound (profile's maxHD reached)
	From    int  // first data-word length, inclusive, in bits
	To      int  // last data-word length, inclusive, in bits
}

// Transition records where weight w first becomes non-zero.
type Transition struct {
	W        int           // pattern weight
	FirstLen int           // smallest data-word length with W_w > 0
	Witness  []int         // example undetectable pattern (bit positions)
	Elapsed  time.Duration // search time, for the §4.1 cost discussion
}

// Profile is the complete HD-vs-length characterisation of a polynomial up
// to MaxLen — one column of the paper's Table 1 / one curve of Figure 1.
type Profile struct {
	Poly        string
	MaxLen      int
	MaxHD       int
	Transitions []Transition // ascending by weight; only weights that occur
	Bands       []Band       // ascending by From, covering [1, MaxLen]
}

// Profile computes the band structure up to maxLen data bits, classifying
// Hamming distances up to maxHD. It discovers boundaries weight by weight,
// capping each search at the smallest boundary already found (lengths
// beyond it already have a lower HD, so the exact higher-weight boundary
// there is irrelevant) — the same observation that drives the paper's
// inverse filtering.
func (e *Evaluator) Profile(maxLen, maxHD int) (*Profile, error) {
	if maxLen < 1 {
		return nil, fmt.Errorf("hamming: invalid maxLen %d", maxLen)
	}
	if maxHD < 2 {
		return nil, fmt.Errorf("hamming: invalid maxHD %d", maxHD)
	}
	p := &Profile{Poly: e.p.String(), MaxLen: maxLen, MaxHD: maxHD}
	limit := maxLen
	for w := 2; w <= maxHD && limit >= 1; w++ {
		start := time.Now()
		first, wit, found, err := e.FirstDataLen(w, limit)
		if err != nil {
			return nil, fmt.Errorf("weight-%d boundary for %v: %w", w, e.p, err)
		}
		if !found {
			continue
		}
		p.Transitions = append(p.Transitions, Transition{
			W: w, FirstLen: first, Witness: wit, Elapsed: time.Since(start),
		})
		if first-1 < limit {
			limit = first - 1
		}
	}
	p.Bands = BandsFromTransitions(p.Transitions, maxLen, maxHD)
	return p, nil
}

// BandsFromTransitions converts weight boundaries into the contiguous HD
// bands covering [1, maxLen], exactly as Profile does — exported so
// memoizing callers that discover transitions incrementally can build the
// same band structure.
func BandsFromTransitions(ts []Transition, maxLen, maxHD int) []Band {
	events := append([]Transition(nil), ts...)
	sort.Slice(events, func(i, j int) bool { return events[i].FirstLen < events[j].FirstLen })
	var bands []Band
	cur := 1
	minW := 0 // 0 = no boundary active yet: HD is at least maxHD+1
	flush := func(to int) {
		if to < cur {
			return
		}
		if minW == 0 {
			bands = append(bands, Band{HD: maxHD + 1, AtLeast: true, From: cur, To: to})
		} else {
			bands = append(bands, Band{HD: minW, From: cur, To: to})
		}
		cur = to + 1
	}
	for i := 0; i < len(events); {
		l := events[i].FirstLen
		if l > maxLen {
			break
		}
		flush(l - 1)
		for i < len(events) && events[i].FirstLen == l {
			if minW == 0 || events[i].W < minW {
				minW = events[i].W
			}
			i++
		}
	}
	flush(maxLen)
	return bands
}

// HDAtLen returns the Hamming distance at the given length according to the
// profile (lower bound if the band is marked AtLeast).
func (p *Profile) HDAtLen(dataLen int) (hd int, atLeast bool, ok bool) {
	for _, b := range p.Bands {
		if dataLen >= b.From && dataLen <= b.To {
			return b.HD, b.AtLeast, true
		}
	}
	return 0, false, false
}

// MaxLenAtHD returns the largest length at which the profile guarantees at
// least the given Hamming distance — the figure of merit the paper quotes
// (e.g. "HD=6 up to 16,360 bits" for 0xBA0DC66B).
func (p *Profile) MaxLenAtHD(hd int) (int, bool) {
	best := 0
	for _, b := range p.Bands {
		if b.HD >= hd && b.To > best {
			best = b.To
		}
	}
	return best, best > 0
}

// String renders the profile in the paper's Table 1 cell style.
func (p *Profile) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (to %d bits):", p.Poly, p.MaxLen)
	for _, b := range p.Bands {
		ge := ""
		if b.AtLeast {
			ge = ">="
		}
		fmt.Fprintf(&sb, " HD%s%d:%d-%d", ge, b.HD, b.From, b.To)
	}
	return sb.String()
}
