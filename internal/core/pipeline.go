package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"koopmancrc/internal/hamming"
	"koopmancrc/internal/poly"
)

// ShardResult is the outcome of a pipeline run over one shard of the
// space — the unit of work that the intra-machine worker pool and the
// internal/dist coordinator both hand out, and that Merge recombines.
type ShardResult struct {
	// Start and End bound the raw index range [Start, End) this result
	// covers. A merged result covers the hull of its inputs.
	Start, End uint64
	// Survivors are the canonical polynomials passing the HD filter at
	// every scheduled length, in ascending Koopman order.
	Survivors []poly.P
	// Canonical counts candidates evaluated (after reciprocal dedup).
	Canonical uint64
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

// Merge combines shard results into one: candidate counts are summed,
// survivors are concatenated and re-sorted into ascending Koopman order,
// and Elapsed accumulates the shards' compute time. Merging is associative and order-independent, so partial results
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
	}
	sort.Slice(out.Survivors, func(i, j int) bool {
		return out.Survivors[i].Koopman() < out.Survivors[j].Koopman()
	})
	return out
}

// Pipeline is the paper's §4.2 filter over a polynomial space: a
// candidate survives if it achieves at least MinHD at every length in
// Lengths, checked in order so most candidates fail cheaply at the
// short lengths. Each length's check bails out at the first
// undetectable pattern.
type Pipeline struct {
	Space   Space
	Lengths []int
	MinHD   int
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
	res := &ShardResult{Start: startIdx, End: endIdx}
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
		keep, err := hamming.New(p).MeetsHDAtLengths(pl.Lengths, pl.MinHD)
		if err != nil {
			runErr = fmt.Errorf("hd filter on %v: %w", p, err)
			return false
		}
		if keep {
			res.Survivors = append(res.Survivors, p)
		}
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
// multicore speedup. The survivor set and candidate count are identical
// to a sequential RunShard over the same range.
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
