package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"koopmancrc/internal/gf2"
	"koopmancrc/internal/hamming"
	"koopmancrc/internal/poly"
)

// Filter is one stage of the polynomial filtering pipeline. Stages must be
// ordered cheapest-first; a candidate is dropped at the first stage that
// rejects it (the paper's early-bailout principle applied at pipeline
// granularity).
type Filter interface {
	// Name identifies the stage in statistics.
	Name() string
	// Keep reports whether the candidate survives this stage.
	Keep(ev *hamming.Evaluator) (bool, error)
}

// ParityFilter keeps polynomials by (x+1)-divisibility.
type ParityFilter struct {
	// RequireDivisible keeps only (x+1)-divisible generators when true;
	// only non-divisible ones when false.
	RequireDivisible bool
}

// Name implements Filter.
func (f ParityFilter) Name() string {
	if f.RequireDivisible {
		return "parity(x+1)"
	}
	return "parity(not x+1)"
}

// Keep implements Filter.
func (f ParityFilter) Keep(ev *hamming.Evaluator) (bool, error) {
	return ev.Poly().DivisibleByXPlus1() == f.RequireDivisible, nil
}

// ShapeFilter keeps polynomials whose irreducible factorization has the
// given degree multiset, e.g. "{1,3,28}".
type ShapeFilter struct {
	Shape string
}

// Name implements Filter.
func (f ShapeFilter) Name() string { return "shape" + f.Shape }

// Keep implements Filter.
func (f ShapeFilter) Keep(ev *hamming.Evaluator) (bool, error) {
	s, err := ev.Poly().Shape()
	if err != nil {
		return false, err
	}
	return s == f.Shape, nil
}

// HDFilter keeps polynomials achieving at least MinHD at every length in
// Lengths, evaluated in order — the paper's filtering with increasing
// lengths. Each length's check bails out at the first undetectable pattern.
type HDFilter struct {
	Lengths []int
	MinHD   int
}

// Name implements Filter.
func (f HDFilter) Name() string {
	return fmt.Sprintf("hd>=%d@%v", f.MinHD, f.Lengths)
}

// Keep implements Filter.
func (f HDFilter) Keep(ev *hamming.Evaluator) (bool, error) {
	return ev.MeetsHDAtLengths(f.Lengths, f.MinHD)
}

// StageStats records per-stage pipeline statistics.
type StageStats struct {
	Name    string
	In      uint64
	Out     uint64
	Elapsed time.Duration
}

// ShardResult is the outcome of a pipeline run over one shard of the
// space — the unit of work that the intra-machine worker pool and the
// internal/dist coordinator both hand out, and that Merge recombines.
type ShardResult struct {
	// Start and End bound the raw index range [Start, End) this result
	// covers. A merged result covers the hull of its inputs.
	Start, End uint64
	// Survivors are the canonical polynomials passing every stage, in
	// ascending Koopman order.
	Survivors []poly.P
	// Canonical counts candidates evaluated (after reciprocal dedup).
	Canonical uint64
	// Stages holds per-stage statistics in pipeline order.
	Stages []StageStats
	// Elapsed is the wall-clock time of a single-shard run; Merge sums
	// it into aggregate compute time, and the parallel Run overwrites
	// the merged value with its own wall clock.
	Elapsed time.Duration
}

// Rate returns candidates filtered per second, the paper's §4.2 throughput
// metric (~2 polynomials/s/CPU on 2001 hardware).
func (r ShardResult) Rate() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Canonical) / r.Elapsed.Seconds()
}

// Merge combines shard results into one: candidate counts and per-stage
// statistics are summed, survivors are concatenated and re-sorted into
// ascending Koopman order, and Elapsed accumulates the shards' compute
// time. Merging is associative and order-independent, so partial results
// may arrive in any order (jobs complete out of order both across the
// local worker pool and across dist workers).
func Merge(shards ...*ShardResult) *ShardResult {
	out := &ShardResult{}
	first := true
	for _, s := range shards {
		if s == nil {
			continue
		}
		if first {
			out.Start, out.End = s.Start, s.End
			first = false
		} else {
			if s.Start < out.Start {
				out.Start = s.Start
			}
			if s.End > out.End {
				out.End = s.End
			}
		}
		out.Canonical += s.Canonical
		out.Elapsed += s.Elapsed
		out.Survivors = append(out.Survivors, s.Survivors...)
		out.Stages = MergeStages(out.Stages, s.Stages)
	}
	sort.Slice(out.Survivors, func(i, j int) bool {
		return out.Survivors[i].Koopman() < out.Survivors[j].Koopman()
	})
	return out
}

// MergeStages folds per-stage statistics into an aggregate keyed by
// stage name, summing In/Out/Elapsed and appending stages dst has not
// seen. It is the stage half of Merge, shared with internal/dist's
// coordinator-side aggregation of worker-reported statistics.
func MergeStages(dst, add []StageStats) []StageStats {
	for _, st := range add {
		merged := false
		for i := range dst {
			if dst[i].Name == st.Name {
				dst[i].In += st.In
				dst[i].Out += st.Out
				dst[i].Elapsed += st.Elapsed
				merged = true
				break
			}
		}
		if !merged {
			dst = append(dst, st)
		}
	}
	return dst
}

// Pipeline applies filters in order over a polynomial space.
type Pipeline struct {
	Space   Space
	Filters []Filter
	// Workers is the fan-out degree of Run: the shard is carved into
	// sub-shards filtered concurrently. Zero means GOMAXPROCS; one
	// forces the sequential path.
	Workers int
	// Progress, when non-nil, is incremented once per canonical
	// candidate evaluated — a live counter another goroutine may read
	// while a run is in flight (e.g. a dist worker reporting per-job
	// progress in its heartbeats). It is never reset by the pipeline.
	Progress *atomic.Uint64
}

// RunShard sequentially evaluates raw indices [startIdx, endIdx) of the
// space on the calling goroutine. The context cancels long runs between
// candidates. This is the shardable work unit: both Run's worker pool
// and each internal/dist worker job reduce to RunShard calls whose
// results recombine with Merge.
func (pl *Pipeline) RunShard(ctx context.Context, startIdx, endIdx uint64) (*ShardResult, error) {
	res := &ShardResult{Start: startIdx, End: endIdx, Stages: make([]StageStats, len(pl.Filters))}
	for i, f := range pl.Filters {
		res.Stages[i].Name = f.Name()
	}
	start := time.Now()
	var runErr error
	_, err := pl.Space.Enumerate(startIdx, endIdx, func(p poly.P) bool {
		if err := ctx.Err(); err != nil {
			runErr = err
			return false
		}
		res.Canonical++
		if pl.Progress != nil {
			pl.Progress.Add(1)
		}
		ev := hamming.New(p)
		for i, f := range pl.Filters {
			stageStart := time.Now()
			res.Stages[i].In++
			keep, err := f.Keep(ev)
			res.Stages[i].Elapsed += time.Since(stageStart)
			if err != nil {
				runErr = fmt.Errorf("stage %s on %v: %w", f.Name(), p, err)
				return false
			}
			if !keep {
				return true
			}
			res.Stages[i].Out++
		}
		res.Survivors = append(res.Survivors, p)
		return true
	})
	res.Elapsed = time.Since(start)
	if err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	return res, nil
}

// Run evaluates raw indices [startIdx, endIdx) of the space, fanning the
// range out over Workers goroutines (GOMAXPROCS by default) in dynamically
// scheduled sub-shards and merging their results. Elapsed in the returned
// result is the wall-clock time of the whole run, so Rate reflects the
// multicore speedup. The survivor set and per-stage statistics are
// identical to a sequential RunShard over the same range.
func (pl *Pipeline) Run(ctx context.Context, startIdx, endIdx uint64) (*ShardResult, error) {
	if endIdx > pl.Space.TotalPolynomials() {
		endIdx = pl.Space.TotalPolynomials()
	}
	workers := pl.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if startIdx < endIdx && uint64(workers) > endIdx-startIdx {
		workers = int(endIdx - startIdx)
	}
	if workers <= 1 || startIdx >= endIdx {
		return pl.RunShard(ctx, startIdx, endIdx)
	}
	span := endIdx - startIdx
	// Small sub-shards keep the pool busy despite non-uniform candidate
	// cost (most die at the first length; survivors cost far more).
	chunk := span / uint64(workers*8)
	if chunk == 0 {
		chunk = 1
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next    atomic.Uint64
		mu      sync.Mutex
		shards  []*ShardResult
		firstEr error
		wg      sync.WaitGroup
	)
	next.Store(startIdx)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := next.Add(chunk) - chunk
				if lo >= endIdx {
					return
				}
				hi := lo + chunk
				if hi > endIdx {
					hi = endIdx
				}
				res, err := pl.RunShard(runCtx, lo, hi)
				mu.Lock()
				if err != nil {
					if firstEr == nil {
						firstEr = err
					}
					mu.Unlock()
					cancel() // sibling sub-shards abort at their next candidate
					return
				}
				shards = append(shards, res)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	merged := Merge(shards...)
	merged.Start, merged.End = startIdx, endIdx
	merged.Elapsed = time.Since(start)
	return merged, nil
}

// Census groups polynomials by factorization shape — the paper's Table 2.
// Keys are shape strings such as "{1,1,15,15}"; values are counts.
func Census(polys []poly.P) (map[string]int, error) {
	out := make(map[string]int)
	for _, p := range polys {
		s, err := p.Shape()
		if err != nil {
			return nil, fmt.Errorf("census: %v: %w", p, err)
		}
		out[s]++
	}
	return out, nil
}

// AllDivisibleByXPlus1 reports whether every polynomial has the implicit
// parity property — the paper's Table 2 finding for the HD=6 survivors.
func AllDivisibleByXPlus1(polys []poly.P) bool {
	for _, p := range polys {
		if !p.DivisibleByXPlus1() {
			return false
		}
	}
	return true
}

// ShapeOf returns the factorization shape of a raw full polynomial — a
// convenience wrapper for census consumers.
func ShapeOf(full gf2.Poly) (string, error) {
	p, err := poly.FromFull(full)
	if err != nil {
		return "", err
	}
	return p.Shape()
}
