// Command crcsearch runs the polynomial design-space search, locally or
// distributed across machines as in the paper's §4.2 workstation fleet.
//
//	crcsearch -mode local -width 16 -hd 6 -lengths 16,64,128
//	crcsearch -mode coord -listen :9000 -width 16 -hd 6 -lengths 16,64,128 -jobsize 1024
//	crcsearch -mode worker -connect host:9000 -id alpha
//
// Every job is a fixed -jobsize slice of the raw index space (4096 by
// default). Long sweeps should run the coordinator with a durable
// checkpoint so an interrupted search (crash, SIGINT) resumes instead of
// restarting, and so progress can be inspected read-only without
// touching the running coordinator. A resume keeps the checkpoint's job
// size; an explicit different -jobsize is refused.
//
//	crcsearch -mode coord -checkpoint /var/lib/crcsearch/w32 ...
//	crcsearch -mode status -checkpoint /var/lib/crcsearch/w32
//	crcsearch -mode coord -checkpoint /var/lib/crcsearch/w32 -resume ...
//
// -mode status -json emits the same report as machine-readable JSON.
// A running coordinator can additionally serve live telemetry —
// per-worker completed jobs, lease ages, requeue and coverage counters
// — as a Prometheus exposition, and its per-job traces:
//
//	crcsearch -mode coord -debug 127.0.0.1:9100 ...
//	curl http://127.0.0.1:9100/metrics
//	curl 'http://127.0.0.1:9100/v1/traces?error=true'
//	curl http://127.0.0.1:9100/v1/traces/<id>
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"koopmancrc"
	"koopmancrc/internal/core"
	"koopmancrc/internal/dist"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "crcsearch:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("crcsearch", flag.ContinueOnError)
	mode := fs.String("mode", "local", "local|coord|worker|status")
	width := fs.Int("width", 16, "CRC width in bits")
	minHD := fs.Int("hd", 6, "minimum Hamming distance to demand")
	lengths := fs.String("lengths", "16,64,128", "increasing-length filter schedule (bits)")
	startIdx := fs.Uint64("start", 0, "first raw index (local mode)")
	endIdx := fs.Uint64("end", 0, "end raw index, 0 = whole space (local mode)")
	listen := fs.String("listen", "127.0.0.1:9000", "coordinator listen address")
	connect := fs.String("connect", "127.0.0.1:9000", "coordinator address (worker mode)")
	id := fs.String("id", "", "worker id, unique per fleet member (default: hostname-pid)")
	jobSize := fs.Uint64("jobsize", 0, "raw indices per job, 0 = 4096 for a fresh sweep or the checkpoint's size on -resume (coord mode)")
	lease := fs.Duration("lease", 30*time.Second, "job lease timeout (coord mode)")
	checkpoint := fs.String("checkpoint", "", "durable journal directory for checkpoint/resume/status")
	resume := fs.Bool("resume", false, "resume the sweep journaled in -checkpoint (coord mode)")
	par := fs.Int("parallelism", 0, "filter goroutines per machine, 0 = GOMAXPROCS (local and worker modes)")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON instead of the human report (status mode)")
	debug := fs.String("debug", "", "read-only telemetry listener: /metrics Prometheus exposition, /v1/traces job traces + /healthz (coord mode; keep loopback)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sched, err := parseLengths(*lengths)
	if err != nil {
		return err
	}
	if *resume && *checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	switch *mode {
	case "local":
		return runLocal(*width, *minHD, sched, *startIdx, *endIdx, *par)
	case "coord":
		return runCoord(*listen, dist.CoordinatorConfig{
			Spec:          dist.SearchSpec{Width: *width, MinHD: *minHD, Lengths: sched},
			JobSize:       *jobSize,
			LeaseTimeout:  *lease,
			CheckpointDir: *checkpoint,
			Resume:        *resume,
			DebugAddr:     *debug,
		})
	case "worker":
		return runWorker(*connect, *id, *par)
	case "status":
		if *checkpoint == "" {
			return fmt.Errorf("-mode status requires -checkpoint")
		}
		return runStatus(*checkpoint, *jsonOut)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
}

func parseLengths(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad length %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func runLocal(width, minHD int, lengths []int, start, end uint64, par int) error {
	res, err := koopmancrc.Search(context.Background(), koopmancrc.SearchConfig{
		Width: width, MinHD: minHD, Lengths: lengths, StartIdx: start, EndIdx: end,
		Parallelism: par,
	})
	if err != nil {
		return err
	}
	printSummary(res.Candidates, res.PolysPerSecond, res.Survivors, res.CensusByShape)
	return nil
}

func runCoord(listen string, cfg dist.CoordinatorConfig) error {
	checkpoint := cfg.CheckpointDir
	cfg.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	c, err := dist.NewCoordinator(listen, cfg)
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Fprintf(os.Stderr, "coordinator listening on %s\n", c.Addr())
	if da := c.DebugAddr(); da != "" {
		fmt.Fprintf(os.Stderr, "telemetry on http://%s/metrics\n", da)
	}

	// SIGINT/SIGTERM suspend the sweep cleanly: Close disconnects the
	// workers, flushes a final checkpoint snapshot and unblocks Wait.
	interrupted := make(chan struct{})
	finished := make(chan struct{})
	defer close(finished)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		select {
		case <-sig:
			fmt.Fprintln(os.Stderr, "interrupt: flushing checkpoint and shutting down")
			close(interrupted)
			c.Close()
		case <-finished:
		}
	}()

	sum, err := c.Wait(context.Background())
	if err != nil {
		select {
		case <-interrupted:
			if checkpoint != "" {
				done, total := c.Progress()
				fmt.Fprintf(os.Stderr,
					"checkpoint saved: %d/%d indices done; inspect with -mode status, continue with -mode coord -checkpoint %s -resume\n",
					done, total, checkpoint)
				return nil
			}
		default:
		}
		return err
	}
	fmt.Fprintf(os.Stderr, "jobs=%d requeues=%d resumed=%d\n", sum.Jobs, sum.Requeues, sum.Resumed)
	census, err := core.Census(sum.Survivors)
	if err != nil {
		return err
	}
	// Tiny spaces can complete in under the timer resolution; avoid a
	// division by zero reporting +Inf polys/s.
	rate := 0.0
	if sum.Elapsed > 0 {
		rate = float64(sum.Canonical) / sum.Elapsed.Seconds()
	}
	printSummary(sum.Canonical, rate, sum.Survivors, census)
	return nil
}

func runWorker(connect, id string, par int) error {
	w := dist.NewWorker(connect, dist.WorkerConfig{
		ID:          id,
		Parallelism: par,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	n, err := w.Run(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "worker %s completed %d jobs\n", w.ID(), n)
	return nil
}

// runStatus replays a checkpoint journal read-only and prints the sweep
// status: job/index coverage, per-worker work, requeue history and an
// ETA. It never contacts a running coordinator.
func runStatus(checkpoint string, jsonOut bool) error {
	st, err := dist.ReadStatus(checkpoint)
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	}
	fmt.Printf("sweep:     width=%d hd>=%d lengths=%v\n", st.Spec.Width, st.Spec.MinHD, st.Spec.Lengths)
	fmt.Printf("space:     %d raw indices, job size %d\n", st.TotalIndices, st.JobSize)
	pct := 0.0
	if st.TotalIndices > 0 {
		pct = 100 * float64(st.DoneIndices) / float64(st.TotalIndices)
	}
	fmt.Printf("jobs:      %d total: %d done, %d pending\n", st.TotalJobs, st.DoneJobs, st.PendingJobs)
	fmt.Printf("indices:   %d/%d done (%.1f%%)\n", st.DoneIndices, st.TotalIndices, pct)
	fmt.Printf("candidates: %d canonical evaluated, %d survivors so far\n", st.Canonical, st.Survivors)
	fmt.Printf("requeues:  %d\n", st.Requeues)
	for _, rq := range st.RequeueLog {
		fmt.Printf("  job %-6d lost by %-12q at %s\n", rq.JobID, rq.Worker, rq.Time.Format(time.RFC3339))
	}
	fmt.Printf("workers:   %d seen\n", len(st.Workers))
	for _, w := range st.Workers {
		fmt.Printf("  %-12s jobs=%-5d canonical=%-10d compute=%v\n",
			w.ID, w.JobsDone, w.Canonical, w.Compute.Round(time.Millisecond))
	}
	fmt.Printf("activity:  started %s, last record %s (%v active)\n",
		st.Started.Format(time.RFC3339), st.LastActivity.Format(time.RFC3339), st.Active.Round(time.Second))
	switch {
	case st.Complete:
		fmt.Println("state:     complete")
	case st.IndexRate > 0:
		fmt.Printf("state:     in progress; ~%.0f indices/s, ETA %v\n", st.IndexRate, st.ETA.Round(time.Second))
	default:
		fmt.Println("state:     in progress; too little data for an ETA")
	}
	return nil
}

func printSummary(candidates uint64, rate float64, survivors []koopmancrc.Polynomial, census map[string]int) {
	fmt.Printf("candidates: %d (%.0f polys/s)\nsurvivors:  %d\n", candidates, rate, len(survivors))
	shapes := make([]string, 0, len(census))
	for s := range census {
		shapes = append(shapes, s)
	}
	sort.Strings(shapes)
	for _, s := range shapes {
		fmt.Printf("  %-22s %6d\n", s, census[s])
	}
	for i, p := range survivors {
		if i == 40 {
			fmt.Printf("  ... %d more\n", len(survivors)-40)
			break
		}
		fmt.Printf("  %v\n", p)
	}
}
