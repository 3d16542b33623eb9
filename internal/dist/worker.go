package dist

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"os"
	"strconv"
	"time"

	"koopmancrc/internal/core"
	"koopmancrc/internal/obs"
)

// WorkerConfig tunes a Worker.
type WorkerConfig struct {
	// ID names the worker in coordinator logs, lease bookkeeping and
	// the per-worker ledger. IDs must be unique across the fleet — two
	// workers sharing an id blend into one ledger entry and can renew
	// each other's leases — so the default is derived from hostname and
	// pid rather than a fixed string.
	ID string
	// Parallelism is the intra-machine fan-out applied to each job
	// (core.Pipeline.Workers); zero means GOMAXPROCS, so one dist
	// worker per machine saturates all of its cores.
	Parallelism int
	// Logf, when set, receives per-job progress lines.
	Logf func(format string, args ...any)
	// Logger receives structured events — one per completed job and per
	// heartbeat tick, both at Debug level — carrying the worker id and
	// job that correlate with the coordinator's ledger. Nil means
	// slog.Default().
	Logger *slog.Logger
}

// pollInterval is the retry delay after a wait reply.
const pollInterval = 200 * time.Millisecond

// Worker connects to a coordinator, pulls jobs until the space is
// covered and filters each job with the shared core.Pipeline engine.
type Worker struct {
	addr string
	cfg  WorkerConfig
}

// ID returns the worker's resolved id (the configured one, or the
// hostname-pid default).
func (w *Worker) ID() string { return w.cfg.ID }

// NewWorker returns a worker that will dial the coordinator at addr.
func NewWorker(addr string, cfg WorkerConfig) *Worker {
	if cfg.ID == "" {
		cfg.ID = defaultWorkerID()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	return &Worker{addr: addr, cfg: cfg}
}

// Run processes jobs until the coordinator sends shutdown, returning the
// number of jobs completed. The context aborts the connection and any
// in-flight filtering.
func (w *Worker) Run(ctx context.Context) (int, error) {
	conn, err := net.Dial("tcp", w.addr)
	if err != nil {
		return 0, fmt.Errorf("dist: worker %s: %w", w.cfg.ID, err)
	}
	wr := newWire(conn)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			wr.close()
		case <-stop:
			wr.close()
		}
	}()

	jobs := 0
	req := &message{Type: msgNext, Worker: w.cfg.ID}
	for {
		if err := wr.send(req); err != nil {
			return jobs, w.ctxErr(ctx, err)
		}
		reply, err := wr.recv()
		if err != nil {
			return jobs, w.ctxErr(ctx, err)
		}
		switch reply.Type {
		case msgShutdown:
			return jobs, nil
		case msgWait:
			select {
			case <-ctx.Done():
				return jobs, ctx.Err()
			case <-time.After(pollInterval):
			}
			req = &message{Type: msgNext, Worker: w.cfg.ID}
		case msgJob:
			// The result doubles as the next work request.
			if req, err = w.runJob(ctx, wr, reply); err != nil {
				return jobs, err
			}
			jobs++
		default:
			return jobs, fmt.Errorf("dist: worker %s: unexpected reply %q", w.cfg.ID, reply.Type)
		}
	}
}

// runJob filters one [start, end) slice of the space and packages the
// shard result as the wire reply. While the computation runs, a side
// goroutine heartbeats over the same connection at a third of the job's
// lease, so a slow-but-healthy worker keeps its lease on long jobs.
func (w *Worker) runJob(ctx context.Context, wr *wire, m *message) (*message, error) {
	if m.Spec == nil {
		return nil, fmt.Errorf("dist: worker %s: job %d has no spec", w.cfg.ID, m.JobID)
	}
	space, err := core.NewSpace(m.Spec.Width)
	if err != nil {
		return nil, fmt.Errorf("dist: worker %s: %w", w.cfg.ID, err)
	}
	pl := &core.Pipeline{
		Space:   space,
		Lengths: m.Spec.Lengths,
		MinHD:   m.Spec.MinHD,
		Workers: w.cfg.Parallelism,
	}
	if m.LeaseNS > 0 {
		stopHB := make(chan struct{})
		defer close(stopHB)
		go w.heartbeat(wr, m.JobID, time.Duration(m.LeaseNS), stopHB)
	}
	started := time.Now()
	res, err := pl.Run(ctx, m.Start, m.End)
	if err != nil {
		return nil, fmt.Errorf("dist: worker %s: job %d: %w", w.cfg.ID, m.JobID, err)
	}
	w.cfg.Logf("dist: worker %s: job %d [%d,%d): %d canonical, %d survivors in %v",
		w.cfg.ID, m.JobID, m.Start, m.End, res.Canonical, len(res.Survivors), res.Elapsed)
	w.cfg.Logger.Debug("dist_job_done",
		"worker", w.cfg.ID, "job", m.JobID, "start", m.Start, "end", m.End,
		"canonical", res.Canonical, "survivors", len(res.Survivors),
		"elapsed", res.Elapsed)
	survivors := make([]uint64, len(res.Survivors))
	for i, p := range res.Survivors {
		survivors[i] = p.Koopman()
	}
	out := &message{
		Type:      msgResult,
		Worker:    w.cfg.ID,
		JobID:     m.JobID,
		Canonical: res.Canonical,
		Survivors: survivors,
		ElapsedNS: res.Elapsed.Nanoseconds(),
	}
	if m.TraceID != "" {
		// A traced grant: report the compute as one "worker.job" wire
		// span under the coordinator's root, for coordinator-side tree
		// assembly.
		out.TraceID = m.TraceID
		out.Spans = []WireSpan{{
			ID: obs.NewSpanID(), Parent: m.ParentSpan, Name: "worker.job",
			StartNS: started.UnixNano(), DurNS: res.Elapsed.Nanoseconds(),
			Attrs: []obs.Attr{
				{K: "worker", V: w.cfg.ID},
				{K: "canonical", V: strconv.FormatUint(res.Canonical, 10)},
				{K: "survivors", V: strconv.Itoa(len(res.Survivors))},
			},
		}}
	}
	return out, nil
}

// heartbeat renews the lease on jobID every lease/3 until stop closes.
// Send failures are ignored: the main loop owns the connection and will
// surface the error when it next touches the wire.
func (w *Worker) heartbeat(wr *wire, jobID uint64, lease time.Duration, stop <-chan struct{}) {
	interval := lease / 3
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			w.cfg.Logger.Debug("dist_heartbeat", "worker", w.cfg.ID, "job", jobID)
			_ = wr.send(&message{Type: msgHeartbeat, Worker: w.cfg.ID, JobID: jobID})
		}
	}
}

// defaultWorkerID is unique per process, so a fleet launched without
// explicit ids still gets per-machine ledger entries instead of every
// worker blending into one shared "worker" entry.
func defaultWorkerID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// ctxErr prefers the context's error over a connection error it caused.
func (w *Worker) ctxErr(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return fmt.Errorf("dist: worker %s: %w", w.cfg.ID, err)
}
