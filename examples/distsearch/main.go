// Distributed design-space search with durable checkpointing (paper
// §4.2): the paper filtered the 2^30 32-bit candidates on ~50 idle
// workstations for three months — at that scale a crashed coordinator
// must resume the sweep, not restart it from index zero. This example
// runs the coordinator/worker architecture in-process on the complete
// width-14 space, cut into fixed 256-index jobs, and deliberately kills
// the coordinator early: the first coordinator journals every completion
// to a checkpoint directory, dies mid-sweep, the orphaned journal is
// inspected read-only with dist.ReadStatus (what `crcsearch -mode
// status` prints), and a second coordinator resumes from the journal and
// finishes — with exactly-once accounting. The example then runs
// koopmancrc.Search over the same schedule on one machine and exits
// non-zero unless candidates and survivors (hence the census) match.
// Workers renew their leases with mid-job heartbeats, so only a dead or
// hung worker loses its job.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"koopmancrc"
	"koopmancrc/internal/core"
	"koopmancrc/internal/dist"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example; returning its errors instead of exiting lets
// the deferred checkpoint removal and coordinator close run on failure.
func run() error {
	spec := dist.SearchSpec{Width: 14, MinHD: 5, Lengths: []int{16, 57}}
	checkpoint, err := os.MkdirTemp("", "distsearch-checkpoint-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(checkpoint)
	fmt.Printf("searching width-%d space for HD>=%d at %d bits; checkpoint in %s\n",
		spec.Width, spec.MinHD, spec.Lengths[len(spec.Lengths)-1], checkpoint)

	// Phase 1: a coordinator with a durable journal, killed mid-sweep.
	coord, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec:          spec,
		JobSize:       256,
		LeaseTimeout:  10 * time.Second,
		CheckpointDir: checkpoint,
	})
	if err != nil {
		return err
	}
	stopWorkers := runWorkers(coord.Addr())
	var stalled error
	deadline := time.Now().Add(2 * time.Minute)
	for {
		done, total := coord.Progress()
		if done >= total/8 {
			fmt.Printf("\n--- killing coordinator at %d/%d indices ---\n\n", done, total)
			break
		}
		if time.Now().After(deadline) {
			stalled = fmt.Errorf("phase 1 stalled at %d/%d indices (workers dead?)", done, total)
			break
		}
		time.Sleep(time.Millisecond)
	}
	coord.Close() // the "crash": workers are cut off, the journal is flushed
	stopWorkers()
	if stalled != nil {
		return stalled
	}

	// Interlude: inspect the orphaned checkpoint read-only — exactly
	// what `crcsearch -mode status -checkpoint DIR` does for an
	// operator who cannot (or must not) attach to a live coordinator.
	st, err := dist.ReadStatus(checkpoint)
	if err != nil {
		return err
	}
	fmt.Printf("status from journal: %d/%d jobs done, %d/%d indices (%d requeues, %d survivors so far)\n",
		st.DoneJobs, st.TotalJobs, st.DoneIndices, st.TotalIndices, st.Requeues, st.Survivors)
	for _, w := range st.Workers {
		fmt.Printf("  worker %-6s jobs=%-3d canonical=%d\n", w.ID, w.JobsDone, w.Canonical)
	}
	if st.ETA > 0 {
		fmt.Printf("  estimated remaining sweep time: %v\n", st.ETA.Round(time.Millisecond))
	}

	// Phase 2: a fresh coordinator resumes from the journal. Completed
	// jobs are restored from disk and only the remainder is leased
	// again. JobSize is left unset: a resume adopts the checkpoint's.
	coord2, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec:          spec,
		LeaseTimeout:  10 * time.Second,
		CheckpointDir: checkpoint,
		Resume:        true,
	})
	if err != nil {
		return err
	}
	defer coord2.Close()
	done, total := coord2.Progress()
	fmt.Printf("resumed: %d/%d indices already done on disk\n", done, total)
	stopWorkers2 := runWorkers(coord2.Addr())
	defer stopWorkers2()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	sum, err := coord2.Wait(ctx)
	if err != nil {
		return err
	}

	fmt.Printf("\nevaluated %d canonical candidates across %d jobs (%d restored from checkpoint, %d lease requeues)\n",
		sum.Canonical, sum.Jobs, sum.Resumed, sum.Requeues)
	fmt.Printf("survivors with HD>=%d at %d bits: %d\n", spec.MinHD, spec.Lengths[len(spec.Lengths)-1], len(sum.Survivors))
	census, err := core.Census(sum.Survivors)
	if err != nil {
		return err
	}
	shapes := make([]string, 0, len(census))
	for s := range census {
		shapes = append(shapes, s)
	}
	sort.Strings(shapes)
	for _, s := range shapes {
		fmt.Printf("  %-16s %5d\n", s, census[s])
	}
	show := len(sum.Survivors)
	if show > 8 {
		show = 8
	}
	fmt.Printf("first %d survivors:", show)
	for _, p := range sum.Survivors[:show] {
		fmt.Printf(" %v", p)
	}
	fmt.Println()

	// The killed and resumed sweep must agree exactly with one
	// uninterrupted single-machine search of the same schedule.
	local, err := koopmancrc.Search(ctx, koopmancrc.SearchConfig{
		Width: spec.Width, MinHD: spec.MinHD, Lengths: spec.Lengths,
	})
	if err != nil {
		return err
	}
	if sum.Canonical != local.Candidates || !slices.Equal(sum.Survivors, local.Survivors) {
		return fmt.Errorf("distributed sweep disagrees with koopmancrc.Search: %d candidates and %d survivors, local %d and %d",
			sum.Canonical, len(sum.Survivors), local.Candidates, len(local.Survivors))
	}
	fmt.Printf("matches the single-machine koopmancrc.Search: %d candidates, %d survivors\n",
		local.Candidates, len(local.Survivors))
	return nil
}

// runWorkers starts three TCP workers against a coordinator and returns
// a stop function that cancels them and waits for them to exit. Each
// worker runs every job through the shared core.Pipeline engine. A real
// deployment runs one worker per machine with Parallelism 0
// (= GOMAXPROCS) to saturate it; here three workers share one process,
// so a small fixed fan-out avoids oversubscribing the host.
func runWorkers(addr string) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, id := range []string{"alpha", "beta", "gamma"} {
		w := dist.NewWorker(addr, dist.WorkerConfig{ID: id, Parallelism: 2})
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, err := w.Run(ctx)
			if err != nil {
				// Expected when the coordinator is killed mid-sweep.
				fmt.Printf("worker %s stopped after %d jobs: %v\n", id, n, err)
				return
			}
			fmt.Printf("worker %s finished %d jobs\n", id, n)
		}()
	}
	return func() {
		cancel()
		wg.Wait()
	}
}
