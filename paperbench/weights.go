package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"koopmancrc"
)

// weightsW computes the §3 exact weight counts: one operation asks a
// fresh Analyzer session for W2, W3 and W4 of the IEEE 802.3 polynomial
// at the Ethernet MTU data word, where the paper gives {0, 0, 223059}.
// That is the one length at which the paper states a non-zero count, so
// every seed runs the same input; the work per operation is the engine's
// exact weight counts and nothing else.
type weightsW struct {
	p koopmancrc.Polynomial
}

// weightsSetupLen is the data word set-up counts at: it builds the
// session's engine without the operation's cost.
const weightsSetupLen = 32

// ieee8023MTUWeights is the paper's §3 count of undetectable 2-, 3- and
// 4-bit patterns for 802.3 at mtuBits.
var ieee8023MTUWeights = [3]uint64{0, 0, 223059}

func newWeights(*rand.Rand, bool) workload { return &weightsW{} }

func (w *weightsW) setup() error {
	// table1[0] is the IEEE 802.3 polynomial.
	p, err := koopmancrc.ParsePolynomial(32, koopmancrc.Koopman, fmt.Sprintf("%#x", table1[0].koopman))
	if err != nil {
		return err
	}
	a := koopmancrc.NewAnalyzer(p)
	for wt := 2; wt <= 4; wt++ {
		if _, err := a.Weight(context.Background(), wt, weightsSetupLen); err != nil {
			return err
		}
	}
	w.p = p
	return nil
}

func (w *weightsW) op(tr *trace) (func() error, error) {
	var opts []koopmancrc.Option
	if tr != nil {
		opts = append(opts, koopmancrc.WithSpans(func(_ context.Context, s koopmancrc.Span) {
			tr.leaf("engine."+s.Phase, s.Duration, s.Probes)
		}))
	}
	a := koopmancrc.NewAnalyzer(w.p, opts...)
	var got [3]uint64
	start := time.Now()
	for i := range got {
		v, err := a.Weight(context.Background(), i+2, mtuBits)
		if err != nil {
			return nil, err
		}
		got[i] = v
	}
	tr.add("analyzer", start)
	return func() error {
		if got != ieee8023MTUWeights {
			return fmt.Errorf("802.3 at %d bits: W2..W4 = %v, the paper says %v", mtuBits, got, ieee8023MTUWeights)
		}
		return nil
	}, nil
}

func (w *weightsW) verify() error { return nil }
func (w *weightsW) close()        {}
