// Command paperbench measures the paper's workloads end to end and, in a
// separate traced run, splits their time by layer.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 paperbench/run.py --workload table1 --seed 1 --seconds 15 --trace 0
//
// Each run builds the system under test several times to time its
// set-up, warms it with one operation, then runs operations back to back
// (a closed loop with one client) for the given number of seconds,
// checking every output against an independent oracle. The last line of
// standard output is one JSON object: the correctness verdict, the
// operation counts and the metrics — the end-to-end metrics with
// --trace 0, the per-layer split with --trace 1. A readable summary goes
// to standard error. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"sort"
	"strings"
	"time"
)

// A workload is one set of inputs driven through the system under test.
type workload interface {
	// setup builds the system under test from scratch. It is timed,
	// several times per run; the caller releases the previous instance
	// with close first, outside the timed region.
	setup() error
	// op runs one operation. The caller times it; the returned check
	// runs outside the timed region, verifies the outputs and completes
	// the trace. tr is nil unless the run is traced.
	op(tr *trace) (check func() error, err error)
	// verify runs the known-answer checks that are too costly to repeat
	// on every operation.
	verify() error
	// close releases the current instance, if any.
	close()
}

// workloads maps a workload name to its constructor. Every input a
// workload uses is drawn from rng, so one seed gives one input set.
var workloads = map[string]func(rng *rand.Rand, tracing bool) workload{
	"table1":        newTable1,
	"filter32":      newFilter32,
	"weights":       newWeights,
	"evaluate_cold": newEvaluateCold,
	"evaluate_warm": newEvaluateWarm,
	"checksum":      newChecksum,
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

const (
	// minSetupReps and setupBudget bound the set-up repetitions: at least
	// five, more while they fit in the budget, so cheap set-ups get a
	// steady median.
	minSetupReps = 5
	maxSetupReps = 2000
	setupBudget  = 500 * time.Millisecond
	// warmup is how long operations run, untimed, before measuring.
	warmup = 500 * time.Millisecond
	// maxLogged caps the failure messages printed per run.
	maxLogged = 5
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	traced := fs.Int("trace", 0, "1 reports the per-layer split from a traced run; 0 the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "paperbench: need -workload %s, -seconds > 0, -trace 0|1\n", workloadNames())
		return 2
	}
	w := mk(rand.New(rand.NewPCG(*seed, 0x9E3779B97F4A7C15)), *traced == 1)
	rep, err := measure(w, time.Duration(*seconds*float64(time.Second)), *traced == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "paperbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "paperbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// measure times the workload's set-up, warms it, runs operations for d
// and returns the report.
func measure(w workload, d time.Duration, tracing bool, log io.Writer) (*report, error) {
	defer w.close()
	var setups []float64
	for start := time.Now(); len(setups) < minSetupReps ||
		(len(setups) < maxSetupReps && time.Since(start) < setupBudget); {
		w.close()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	rep := &report{Correct: true}
	logged := 0
	fail := func(err error) {
		rep.Failed++
		if logged < maxLogged {
			fmt.Fprintln(log, "paperbench: operation failed:", err)
			logged++
		}
	}
	// one runs a single operation and returns its latency, or a negative
	// duration when it failed.
	one := func(tr *trace) time.Duration {
		rep.Attempted++
		t0 := time.Now()
		check, err := w.op(tr)
		el := time.Since(t0)
		tr.setRoot(t0, t0.Add(el))
		if err == nil {
			err = check()
		}
		if err != nil {
			fail(err)
			return -1
		}
		return el
	}

	for start := time.Now(); rep.Attempted == 0 || time.Since(start) < warmup; {
		one(nil)
	}
	var lats []float64
	acc := newLayers()
	for start := time.Now(); time.Since(start) < d; {
		var tr *trace
		if tracing {
			tr = new(trace)
		}
		if el := one(tr); el >= 0 {
			lats = append(lats, el.Seconds()*1e3)
			acc.add(tr)
		}
	}
	if err := w.verify(); err != nil {
		fail(fmt.Errorf("known-answer check: %w", err))
	}
	rep.Correct = rep.Failed == 0
	if len(lats) == 0 {
		return nil, fmt.Errorf("no operation succeeded (%d attempted)", rep.Attempted)
	}

	lat := median(lats)
	fmt.Fprintf(log, "paperbench: %d ops measured (%d attempted, %d failed), setup median of %d: %.4f s\n",
		len(lats), rep.Attempted, rep.Failed, len(setups), median(setups))
	if tracing {
		rep.Metrics = acc.metrics(lat, log)
	} else {
		rep.Metrics = map[string]metric{
			"latency_ms": {Value: lat, Unit: "ms"},
			"setup_s":    {Value: median(setups), Unit: "s"},
		}
		fmt.Fprintf(log, "paperbench: latency median %.4f ms\n", lat)
	}
	return rep, nil
}

func workloadNames() string {
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
