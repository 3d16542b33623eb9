package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"koopmancrc"
)

// table1 reproduces a reduced Table 1: one operation evaluates every
// column — HD bands up to 6 over data words up to 512 bits — each in a
// fresh Analyzer session, as a first-time user of the library would. The
// seed orders the columns. The cost is the engine's boundary searches
// for high-weight patterns at short lengths, the part of Table 1 a
// session never gets for free.
type table1W struct {
	rng   *rand.Rand
	polys []koopmancrc.Polynomial
}

const (
	table1MaxLen = 512
	table1MaxHD  = 6
	// table1SetupLen is the tiny profile set-up evaluates per column: it
	// builds every session's engine without the operation's cost.
	table1SetupLen = 32
)

func newTable1(rng *rand.Rand, _ bool) workload {
	return &table1W{rng: rng}
}

func (w *table1W) setup() error {
	w.polys = w.polys[:0]
	for _, c := range table1 {
		p, err := koopmancrc.ParsePolynomial(32, koopmancrc.Koopman, fmt.Sprintf("%#x", c.koopman))
		if err != nil {
			return err
		}
		a := koopmancrc.NewAnalyzer(p, koopmancrc.WithMaxHD(table1MaxHD))
		if _, err := a.Evaluate(context.Background(), table1SetupLen); err != nil {
			return err
		}
		w.polys = append(w.polys, p)
	}
	return nil
}

func (w *table1W) op(tr *trace) (func() error, error) {
	order := w.rng.Perm(len(table1))
	reports := make([]*koopmancrc.Report, len(order))
	for _, i := range order {
		opts := []koopmancrc.Option{koopmancrc.WithMaxHD(table1MaxHD)}
		if tr != nil {
			opts = append(opts, koopmancrc.WithSpans(func(_ context.Context, s koopmancrc.Span) {
				tr.leaf("engine."+s.Phase, s.Duration, s.Probes)
			}))
		}
		start := time.Now()
		rep, err := koopmancrc.NewAnalyzer(w.polys[i], opts...).Evaluate(context.Background(), table1MaxLen)
		tr.add("analyzer", start)
		if err != nil {
			return nil, err
		}
		reports[i] = rep
	}
	return func() error {
		for i, rep := range reports {
			if err := checkColumn(table1[i], rep, table1MaxLen, table1MaxHD); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// checkColumn compares a profile with Table 1 and verifies the witness
// behind every boundary it reports.
func checkColumn(c column, rep *koopmancrc.Report, maxLen, maxHD int) error {
	for hd := 2; hd <= maxHD; hd++ {
		want, ok := c.maxLenAtHD(hd, maxLen)
		if !ok {
			continue
		}
		if got, _ := rep.MaxLenAtHD(hd); got != want {
			return fmt.Errorf("poly %#x: HD>=%d up to %d bits, Table 1 says %d", c.koopman, hd, got, want)
		}
	}
	for _, t := range rep.Transitions {
		if err := checkWitness(c.koopman, t.W, t.FirstLen, t.Witness); err != nil {
			return err
		}
	}
	return nil
}

func (w *table1W) verify() error { return nil }
func (w *table1W) close()        {}
