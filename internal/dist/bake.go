package dist

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"koopmancrc"
	"koopmancrc/internal/obs"
	"koopmancrc/internal/poly"
)

// BakeSpec describes one offline corpus bake: the polynomials to
// evaluate and how deep.
type BakeSpec struct {
	// Width applies to every polynomial in Polys (Koopman notation).
	Width int
	Polys []uint64
	// MaxLen is the data-word length ceiling of the HD-vs-length profile.
	MaxLen int
	// MaxHD bounds the classified Hamming distances (0 keeps the
	// analyzer default).
	MaxHD int
	// WeightLens, when non-empty, additionally bakes exact
	// undetectable-pattern counts for weights 2..min(4, MaxHD) at each
	// listed data length.
	WeightLens []int
}

func (s BakeSpec) validate() error {
	if s.Width < 2 || s.Width > 64 {
		return fmt.Errorf("bake: width %d out of range", s.Width)
	}
	if len(s.Polys) == 0 {
		return fmt.Errorf("bake: no polynomials")
	}
	if s.MaxLen < 1 {
		return fmt.Errorf("bake: invalid maxlen %d", s.MaxLen)
	}
	if s.MaxHD < 0 {
		return fmt.Errorf("bake: invalid maxhd %d", s.MaxHD)
	}
	for _, l := range s.WeightLens {
		if l < 1 || l > s.MaxLen {
			return fmt.Errorf("bake: weight length %d outside 1..%d", l, s.MaxLen)
		}
	}
	return nil
}

// BakeSink is where finished memos go — satisfied by *corpus.Store. Get
// feeds resume (knowledge already stored is restored before evaluating,
// so a re-run after a crash skips straight past finished polynomials);
// Put must be durable when it returns nil.
type BakeSink interface {
	Get(width int, polyK uint64) (*koopmancrc.MemoSnapshot, bool)
	Put(*koopmancrc.MemoSnapshot) error
}

// BakeConfig tunes the local fan-out.
type BakeConfig struct {
	// Workers is the number of concurrent evaluation goroutines
	// (default GOMAXPROCS).
	Workers int
	// Limits bounds each analyzer's engine budgets.
	Limits koopmancrc.Limits
	// Logf, when set, receives one progress line per polynomial.
	Logf func(format string, args ...any)
	// Recorder, when non-nil, receives one trace per polynomial — a
	// "bake" root with the analyzer's engine phases as leaf spans, the
	// evaluation error on failures — so a long sweep's slowest and
	// failed polynomials stay inspectable afterwards.
	Recorder *obs.FlightRecorder
}

// BakeSummary reports one bake run.
type BakeSummary struct {
	// Baked counts polynomials that contributed new knowledge to the
	// sink; Warm counts those whose stored knowledge already covered the
	// spec (a resumed run reports finished work here).
	Baked int
	Warm  int
	// Probes is the total engine work spent across the run.
	Probes int64
	// Failed lists per-polynomial errors (the bake continues past them).
	Failed []BakeFailure
}

// BakeFailure is one polynomial the bake could not finish.
type BakeFailure struct {
	Poly uint64
	Err  error
}

// Bake evaluates every polynomial in the spec and persists the memos to
// the sink — the offline half of the persistent analysis corpus. The
// fan-out is a local worker pool (one analyzer per polynomial, Workers
// concurrent); sweeping a corpus across a TCP worker fleet rides the
// same sink interface but is future work.
//
// Bake is resumable by construction: before evaluating, each worker
// restores the sink's stored knowledge for its polynomial, so work
// finished by a previous (even crashed) run is answered from the memo
// with zero engine probes and re-persisted only if something new was
// learned. Cancelling the context stops the sweep promptly; everything
// already Put stays durable.
func Bake(ctx context.Context, spec BakeSpec, sink BakeSink, cfg BakeConfig) (*BakeSummary, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if sink == nil {
		return nil, fmt.Errorf("bake: nil sink")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(spec.Polys) {
		workers = len(spec.Polys)
	}

	var (
		mu      sync.Mutex
		summary BakeSummary
		wg      sync.WaitGroup
	)
	jobs := make(chan uint64)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				baked, probes, err := bakeOne(ctx, spec, sink, cfg, k)
				mu.Lock()
				switch {
				case err != nil:
					summary.Failed = append(summary.Failed, BakeFailure{Poly: k, Err: err})
				case baked:
					summary.Baked++
				default:
					summary.Warm++
				}
				summary.Probes += probes
				mu.Unlock()
			}
		}()
	}
feed:
	for _, k := range spec.Polys {
		select {
		case jobs <- k:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	sort.Slice(summary.Failed, func(i, j int) bool { return summary.Failed[i].Poly < summary.Failed[j].Poly })
	if err := ctx.Err(); err != nil {
		return &summary, err
	}
	return &summary, nil
}

// bakeOne evaluates a single polynomial against the spec and persists
// the resulting memo when it grew.
func bakeOne(ctx context.Context, spec BakeSpec, sink BakeSink, cfg BakeConfig, k uint64) (baked bool, probes int64, err error) {
	p, err := poly.FromKoopman(spec.Width, k)
	if err != nil {
		return false, 0, err
	}
	var root *obs.Span
	if cfg.Recorder != nil {
		tr := obs.NewTrace("bake")
		root = tr.Root()
		root.SetAttr("poly", fmt.Sprintf("%#x", k))
		root.SetAttr("width", fmt.Sprintf("%d", spec.Width))
		defer func() {
			if err != nil {
				root.SetError(err.Error())
			}
			root.End()
			cfg.Recorder.RecordTrace(tr)
		}()
	}
	opts := []koopmancrc.Option{koopmancrc.WithLimits(cfg.Limits)}
	if spec.MaxHD > 0 {
		opts = append(opts, koopmancrc.WithMaxHD(spec.MaxHD))
	}
	if root != nil {
		opts = append(opts, koopmancrc.WithSpans(func(_ context.Context, sp koopmancrc.Span) {
			root.AddLeaf("engine."+sp.Phase, sp.Duration,
				obs.Attr{K: "weight", V: fmt.Sprintf("%d", sp.Weight)},
				obs.Attr{K: "data_len", V: fmt.Sprintf("%d", sp.DataLen)},
				obs.Attr{K: "probes", V: fmt.Sprintf("%d", sp.Probes)})
		}))
	}
	a := koopmancrc.NewAnalyzer(p, opts...)

	had, ok := sink.Get(spec.Width, k)
	if ok {
		if err := a.RestoreMemos(ctx, had); err != nil {
			// A stored snapshot that fails restore (schema drift) is not
			// fatal: bake cold and overwrite it with fresh knowledge.
			had = nil
		}
	} else {
		had = nil
	}

	if _, err := a.Evaluate(ctx, spec.MaxLen); err != nil {
		return false, a.MemoStats().Probes, err
	}
	maxW := 4
	if spec.MaxHD > 0 && spec.MaxHD < maxW {
		maxW = spec.MaxHD
	}
	for _, l := range spec.WeightLens {
		var w2 uint64
		for w := 2; w <= maxW; w++ {
			if w == 4 && w2 > 0 {
				// The engine's W4 pair scan requires W2 == 0 at the
				// length; past that point W4 is simply not baked. A
				// long W4 count splits its rows over GOMAXPROCS
				// goroutines of its own, so beside the bake's workers
				// it may briefly oversubscribe the CPUs; that costs
				// some scheduling and changes no answer.
				continue
			}
			n, err := a.Weight(ctx, w, l)
			if err != nil {
				return false, a.MemoStats().Probes, err
			}
			if w == 2 {
				w2 = n
			}
		}
	}

	snap, err := a.MemoSnapshot(ctx)
	if err != nil {
		return false, a.MemoStats().Probes, err
	}
	probes = a.MemoStats().Probes
	if probes == 0 && had != nil {
		// The stored knowledge answered everything; nothing to persist.
		if cfg.Logf != nil {
			cfg.Logf("bake %d:%#x: warm (corpus already covers spec)", spec.Width, k)
		}
		return false, 0, nil
	}
	if err := sink.Put(snap); err != nil {
		return false, probes, err
	}
	if cfg.Logf != nil {
		cfg.Logf("bake %d:%#x: %d facts, %d probes", spec.Width, k, snap.Entries(), probes)
	}
	return true, probes, nil
}
