// Command crctables regenerates the paper's evaluation artifacts:
//
//	-artifact table1   Table 1 (HD bands of the 8 polynomials) with
//	                   expected-vs-measured comparison
//	-artifact figure1  Figure 1 (HD vs data-word length step series)
//	-artifact weights  §3/§4.1 exact weight anchors (W4 = 223059 at MTU, ...)
//	-artifact table2   scaled Table 2 analog: exhaustive census of a small
//	                   width by factorization class (see DESIGN.md §4)
//	-artifact table2spot  32-bit Table 2 spot verification: class
//	                   representatives and excluded classes at MTU length
//	-artifact all      everything above
//
// Reduced runs for quick checks: -maxlen limits Table 1/Figure 1 lengths.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"time"

	"koopmancrc"
	"koopmancrc/internal/gf2"
	"koopmancrc/internal/hamming"
	"koopmancrc/internal/paperdata"
	"koopmancrc/internal/poly"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "crctables:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("crctables", flag.ContinueOnError)
	artifact := fs.String("artifact", "all", "table1|figure1|weights|table2|table2spot|all")
	maxLen := fs.Int("maxlen", paperdata.MaxComputedBits, "maximum data-word length for table1/figure1")
	censusWidth := fs.Int("censuswidth", 16, "CRC width for the scaled table2 census")
	censusLen := fs.Int("censuslen", 128, "target data-word length for the scaled table2 census")
	spotSamples := fs.Int("spotsamples", 12, "random samples per excluded class for table2spot")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *artifact {
	case "table1":
		return table1(*maxLen)
	case "figure1":
		return figure1(*maxLen)
	case "weights":
		return weights()
	case "table2":
		return table2(*censusWidth, *censusLen)
	case "table2spot":
		return table2spot(*spotSamples)
	case "all":
		for _, f := range []func() error{
			func() error { return table1(*maxLen) },
			func() error { return figure1(*maxLen) },
			weights,
			func() error { return table2(*censusWidth, *censusLen) },
			func() error { return table2spot(*spotSamples) },
		} {
			if err := f(); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown artifact %q", *artifact)
	}
}

// profiles computes all Table 1 columns once (capped at maxLen).
func profiles(maxLen int) ([]paperdata.Column, []*koopmancrc.Report, error) {
	cols := paperdata.Table1Columns()
	out := make([]*koopmancrc.Report, len(cols))
	for i, col := range cols {
		start := time.Now()
		prof, err := koopmancrc.NewAnalyzer(col.P, koopmancrc.WithMaxHD(col.MaxHD)).Evaluate(context.Background(), maxLen)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", col.Label, err)
		}
		out[i] = prof
		fmt.Fprintf(os.Stderr, "# profiled %-28s in %v\n", col.Label, time.Since(start).Round(time.Millisecond))
	}
	return cols, out, nil
}

func table1(maxLen int) error {
	fmt.Printf("## Table 1 — message lengths (bits) for which each HD is achieved (computed to %d)\n\n", maxLen)
	cols, profs, err := profiles(maxLen)
	if err != nil {
		return err
	}
	for i, col := range cols {
		fmt.Printf("### %s  %s  %s\n", col.Label, col.P, col.Shape)
		for _, b := range profs[i].Bands {
			ge := ""
			if b.AtLeast {
				ge = ">="
			}
			fmt.Printf("    HD%s%d: %d-%d\n", ge, b.HD, b.From, b.To)
		}
		if maxLen == paperdata.MaxComputedBits {
			fmt.Println("  paper comparison:")
			for _, r := range paperdata.CompareProfile(col, profs[i].MaxLenAtHD) {
				mark := "MATCH"
				if !r.Match {
					mark = "MISMATCH"
				}
				fmt.Printf("    %-45s expected %-9s measured %-9s [%s] %s\n",
					r.Name, r.Expected, r.Measured, r.Source, mark)
			}
		}
		fmt.Println()
	}
	return nil
}

func figure1(maxLen int) error {
	fmt.Printf("## Figure 1 — HD vs data-word length (step series, log-x), computed to %d bits\n\n", maxLen)
	cols, profs, err := profiles(maxLen)
	if err != nil {
		return err
	}
	// The marked lengths of Figure 1 plus powers of two.
	marks := []int{paperdata.AckDataBits, paperdata.Ack512DataBits, paperdata.MTUDataBits,
		2 * paperdata.MTUDataBits, 4 * paperdata.MTUDataBits, paperdata.JumboDataBits}
	lengths := []int{}
	for l := 64; l <= maxLen; l *= 2 {
		lengths = append(lengths, l)
	}
	for _, m := range marks {
		if m <= maxLen {
			lengths = append(lengths, m)
		}
	}
	sort.Ints(lengths)
	fmt.Printf("%-10s", "bits")
	for _, col := range cols {
		fmt.Printf(" %10s", col.P.String())
	}
	fmt.Println()
	for _, l := range lengths {
		fmt.Printf("%-10d", l)
		for i := range cols {
			hd, atLeast, ok := profs[i].HDAt(l)
			cell := "-"
			if ok {
				if atLeast {
					cell = fmt.Sprintf(">=%d", hd)
				} else {
					cell = fmt.Sprintf("%d", hd)
				}
			}
			fmt.Printf(" %10s", cell)
		}
		fmt.Println()
	}
	// Step series per polynomial: the exact breakpoints (Figure 1's curve).
	fmt.Println("\nbreakpoints (first length of each band):")
	for i, col := range cols {
		fmt.Printf("  %-12s", col.P.String())
		for _, b := range profs[i].Bands {
			ge := ""
			if b.AtLeast {
				ge = ">="
			}
			fmt.Printf(" (%d, HD%s%d)", b.From, ge, b.HD)
		}
		fmt.Println()
	}
	fmt.Println()
	return nil
}

func weights() error {
	fmt.Println("## Exact weight anchors (§3, §4.1)")
	ctx := context.Background()
	// One cached session per distinct polynomial: anchors at several
	// lengths of the same generator share its syndrome tables.
	sessions := map[koopmancrc.Polynomial]*koopmancrc.Analyzer{}
	for _, a := range paperdata.WeightAnchors() {
		an := sessions[a.P]
		if an == nil {
			an = koopmancrc.NewAnalyzer(a.P)
			sessions[a.P] = an
		}
		got, err := an.Weight(ctx, a.W, a.DataLen)
		if err != nil {
			return err
		}
		mark := "MATCH"
		if got != a.Count {
			mark = "MISMATCH"
		}
		fmt.Printf("  %v W%d(%d): paper %d, measured %d [%s] %s\n",
			a.P, a.W, a.DataLen, a.Count, got, a.Source, mark)
	}
	fmt.Println()
	return nil
}

func table2(width, censusLen int) error {
	fmt.Printf("## Table 2 analog — exhaustive width-%d census: polynomials with HD=6 at %d data bits\n",
		width, censusLen)
	fmt.Println("   (scaled substitution for the paper's 2^30-polynomial campaign; see DESIGN.md §4)")
	schedule := []int{}
	for l := 16; l < censusLen; l *= 4 {
		schedule = append(schedule, l)
	}
	schedule = append(schedule, censusLen)
	start := time.Now()
	res, err := koopmancrc.Search(context.Background(), koopmancrc.SearchConfig{
		Width: width, MinHD: 6, Lengths: schedule,
	})
	if err != nil {
		return err
	}
	fmt.Printf("  candidates evaluated: %d (%.0f polys/s; the paper measured ~2/s/CPU in 2001)\n",
		res.Candidates, res.PolysPerSecond)
	fmt.Printf("  survivors: %d in %v\n", len(res.Survivors), time.Since(start).Round(time.Millisecond))
	shapes := make([]string, 0, len(res.CensusByShape))
	for s := range res.CensusByShape {
		shapes = append(shapes, s)
	}
	sort.Strings(shapes)
	parityOnly := true
	for _, s := range shapes {
		fmt.Printf("    %-22s %6d\n", s, res.CensusByShape[s])
	}
	for _, p := range res.Survivors {
		if !p.DivisibleByXPlus1() {
			parityOnly = false
			break
		}
	}
	fmt.Printf("  all survivors divisible by (x+1): %v (paper's Table 2 finding at 32 bits: true)\n\n", parityOnly)
	return nil
}

func table2spot(samples int) error {
	fmt.Println("## Table 2 spot verification at 32 bits (MTU = 12112 data bits)")
	fmt.Println("  class representatives named in the paper:")
	reps := []struct {
		p     koopmancrc.Polynomial
		class string
	}{
		{poly.Koopman32K, "{1,3,28}"},
		{poly.Castagnoli1131515, "{1,1,15,15}"},
		{poly.Koopman1130, "{1,1,30}"},
		{poly.KoopmanSparse6, "{1,1,30}"},
	}
	ctx := context.Background()
	for _, r := range reps {
		an := koopmancrc.NewAnalyzer(r.p, koopmancrc.WithMaxHD(7))
		hd, exact, err := an.HDAt(ctx, paperdata.MTUDataBits)
		if err != nil {
			return err
		}
		fmt.Printf("    %v %-14s HD at MTU = %d (exact=%v) — expect 6\n", r.p, r.class, hd, exact)
	}

	fmt.Printf("  excluded classes, %d random samples each (paper: no member reaches HD=6 at MTU):\n", samples)
	rng := rand.New(rand.NewPCG(2002, 32))
	checkClass := func(name string, gen func() koopmancrc.Polynomial) error {
		for i := 0; i < samples; i++ {
			p := gen()
			// Increasing-length pre-filter: almost every sample fails fast.
			ev := hamming.New(p)
			ok, err := ev.MeetsHDAtLengths([]int{256, 2048, paperdata.MTUDataBits}, 6)
			if err != nil {
				return err
			}
			if ok {
				return fmt.Errorf("sample %v of class %s reaches HD=6 at MTU, contradicting the paper", p, name)
			}
		}
		fmt.Printf("    %-28s 0/%d samples reach HD=6 at MTU\n", name, samples)
		return nil
	}
	if err := checkClass("not divisible by (x+1)", func() koopmancrc.Polynomial {
		for {
			k := rng.Uint64N(1<<32) | 1<<31
			p, err := poly.FromKoopman(32, k)
			if err == nil && !p.DivisibleByXPlus1() {
				return p
			}
		}
	}); err != nil {
		return err
	}
	if err := checkClass("{1,31} (iSCSI draft class)", func() koopmancrc.Polynomial {
		for {
			// (x+1) times a random degree-31 polynomial with +1 term.
			g := uint64(rng.Uint64N(1<<31))<<1 | 1 | 1<<31
			full := mulGF2(0x3, g)
			p, err := poly.FromFull(gf2.Poly(full))
			if err == nil && p.Width() == 32 {
				return p
			}
		}
	}); err != nil {
		return err
	}
	// The named {32} polynomials (802.3, 0xD419CC15, 0x80108400) all have
	// HD <= 5 at MTU, consistent with "none has HD>4 at 12112 bits" among
	// primitive polynomials and the found irreducible ones capping at HD=5.
	for _, p := range []koopmancrc.Polynomial{poly.IEEE8023, poly.CastagnoliHD5, poly.KoopmanSparse5} {
		hd, _, err := koopmancrc.NewAnalyzer(p, koopmancrc.WithMaxHD(7)).HDAt(ctx, paperdata.MTUDataBits)
		if err != nil {
			return err
		}
		fmt.Printf("    {32} %v: HD at MTU = %d (<= 5) ✓\n", p, hd)
	}
	fmt.Println()
	return nil
}

// mulGF2 is carry-less multiplication for the {1,31} sample generator.
func mulGF2(a, b uint64) (r uint64) {
	for ; b != 0; b >>= 1 {
		if b&1 != 0 {
			r ^= a
		}
		a <<= 1
	}
	return r
}
