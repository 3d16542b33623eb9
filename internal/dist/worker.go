package dist

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"koopmancrc/internal/core"
	"koopmancrc/internal/obs"
)

// WorkerConfig tunes a Worker.
type WorkerConfig struct {
	// ID names the worker in coordinator logs, lease bookkeeping and
	// per-worker throughput estimation. IDs must be unique across the
	// fleet — two workers sharing an id blend into one throughput
	// estimate and can renew each other's leases — so the default is
	// derived from hostname and pid rather than a fixed string.
	ID string
	// Parallelism is the intra-machine fan-out applied to each job
	// (core.Pipeline.Workers); zero means GOMAXPROCS, so one dist
	// worker per machine saturates all of its cores.
	Parallelism int
	// PollInterval is the retry delay after a wait reply (default 200ms).
	PollInterval time.Duration
	// ResultBatch is the number of completed-job results the worker
	// coalesces into one gzipped result_batch message (default 8).
	// Adaptive sizing shrinks jobs to balance load, which multiplies
	// result lines; batching amortizes them. Values <= 1 send every
	// result individually. Batching only activates against coordinators
	// that advertise support, and the worker keeps renewing the leases
	// of jobs whose results it is still holding, so a long job between
	// flushes never gets a held result requeued.
	ResultBatch int
	// Logf, when set, receives per-job progress lines.
	Logf func(format string, args ...any)
	// Logger receives structured events — one per completed job, per
	// heartbeat tick and per batch flush, all at Debug level — carrying
	// the worker id, job range, live progress and held-lease counts that
	// correlate with the coordinator's ledger. Nil means slog.Default().
	Logger *slog.Logger
}

// DefaultResultBatch is the result coalescing factor used when
// WorkerConfig.ResultBatch is zero.
const DefaultResultBatch = 8

// Worker connects to a coordinator, pulls jobs until the space is
// covered and filters each job with the shared core.Pipeline engine.
type Worker struct {
	addr string
	cfg  WorkerConfig

	batchesSent int // result_batch messages sent (observability, tests)
}

// ID returns the worker's resolved id (the configured one, or the
// hostname-pid default).
func (w *Worker) ID() string { return w.cfg.ID }

// BatchesSent reports how many result_batch messages this worker has
// sent — zero against a coordinator that never advertised batching, or
// with coalescing disabled. Read it after Run returns.
func (w *Worker) BatchesSent() int { return w.batchesSent }

// NewWorker returns a worker that will dial the coordinator at addr.
func NewWorker(addr string, cfg WorkerConfig) *Worker {
	if cfg.ID == "" {
		cfg.ID = defaultWorkerID()
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 200 * time.Millisecond
	}
	if cfg.ResultBatch == 0 {
		cfg.ResultBatch = DefaultResultBatch
	}
	if cfg.ResultBatch > maxBatchResults {
		cfg.ResultBatch = maxBatchResults // coordinators reject bigger batches
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

	// pending holds completed results not yet delivered (batching mode
	// only); their job leases are renewed alongside the running job's so
	// a held result is never requeued while a long job computes.
	jobs := 0
	var pending []*message
	var oldest time.Time // completion time of pending[0]
	flush := func() (*message, error) {
		b, err := encodeBatch(w.cfg.ID, pending)
		if err != nil {
			return nil, err
		}
		w.cfg.Logf("dist: worker %s: flushing %d batched results", w.cfg.ID, len(pending))
		w.cfg.Logger.Debug("dist_batch_flush",
			"worker", w.cfg.ID, "results", len(pending), "held_since", oldest)
		w.batchesSent++
		pending = pending[:0]
		return b, nil
	}
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
			// The coordinator only shuts a worker down once the space is
			// covered; results still held here can only be duplicates of
			// requeued jobs another worker finished. Nothing to deliver.
			return jobs, nil
		case msgWait:
			// No fresh work while results are held: deliver them now
			// (the send doubles as the next work request) instead of
			// letting their leases run down during the idle wait.
			if len(pending) > 0 {
				if req, err = flush(); err != nil {
					return jobs, err
				}
				continue
			}
			select {
			case <-ctx.Done():
				return jobs, ctx.Err()
			case <-time.After(w.cfg.PollInterval):
			}
			req = &message{Type: msgNext, Worker: w.cfg.ID}
		case msgJob:
			res, err := w.runJob(ctx, wr, reply, pendingJobIDs(pending))
			if err != nil {
				return jobs, err
			}
			jobs++
			if !reply.BatchOK || w.cfg.ResultBatch <= 1 {
				req = res // legacy path: every result is its own message
				continue
			}
			if len(pending) == 0 {
				oldest = time.Now()
			}
			pending = append(pending, res)
			// Flush on a full batch, or when the oldest held result has
			// aged a third of its lease — well before the silence
			// threshold that would requeue it.
			hold := time.Duration(reply.LeaseNS) / 3
			if len(pending) >= w.cfg.ResultBatch || (hold > 0 && time.Since(oldest) >= hold) {
				if req, err = flush(); err != nil {
					return jobs, err
				}
				continue
			}
			req = &message{Type: msgNext, Worker: w.cfg.ID}
		default:
			return jobs, fmt.Errorf("dist: worker %s: unexpected reply %q", w.cfg.ID, reply.Type)
		}
	}
}

// pendingJobIDs lists the job ids of held results, for lease renewal.
func pendingJobIDs(pending []*message) []uint64 {
	if len(pending) == 0 {
		return nil
	}
	ids := make([]uint64, len(pending))
	for i, m := range pending {
		ids[i] = m.JobID
	}
	return ids
}

// runJob filters one [start, end) slice of the space and packages the
// shard result as the wire reply. While the computation runs, a side
// goroutine heartbeats over the same connection at a third of the job's
// lease — carrying the live candidate count — so a slow-but-healthy
// worker keeps its lease on long jobs and the coordinator can estimate
// this worker's throughput before the job completes. The heartbeat also
// renews the leases of alsoRenew — jobs whose results this worker is
// still batching.
func (w *Worker) runJob(ctx context.Context, wr *wire, m *message, alsoRenew []uint64) (*message, error) {
	if m.Spec == nil {
		return nil, fmt.Errorf("dist: worker %s: job %d has no spec", w.cfg.ID, m.JobID)
	}
	space, err := core.NewSpace(m.Spec.Width)
	if err != nil {
		return nil, fmt.Errorf("dist: worker %s: %w", w.cfg.ID, err)
	}
	var progress atomic.Uint64
	pl := &core.Pipeline{
		Space:    space,
		Lengths:  m.Spec.Lengths,
		MinHD:    m.Spec.MinHD,
		Workers:  w.cfg.Parallelism,
		Progress: &progress,
	}
	if m.LeaseNS > 0 {
		stopHB := make(chan struct{})
		defer close(stopHB)
		go w.heartbeat(wr, m.JobID, time.Duration(m.LeaseNS), &progress, stopHB, alsoRenew)
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

// heartbeat renews the lease on jobID every lease/3 until stop closes,
// reporting the job's live canonical-candidate count with each renewal.
// alsoRenew job ids — completed jobs whose results await a batch flush —
// ride the same message as bare renewals, so heartbeat traffic stays one
// line per tick regardless of batch size. Send failures are ignored:
// the main loop owns the connection and will surface the error when it
// next touches the wire.
func (w *Worker) heartbeat(wr *wire, jobID uint64, lease time.Duration, progress *atomic.Uint64, stop <-chan struct{}, alsoRenew []uint64) {
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
			p := progress.Load()
			w.cfg.Logger.Debug("dist_heartbeat",
				"worker", w.cfg.ID, "job", jobID, "progress", p, "held", len(alsoRenew))
			_ = wr.send(&message{
				Type: msgHeartbeat, Worker: w.cfg.ID, JobID: jobID,
				Progress: p, Held: alsoRenew,
			})
		}
	}
}

// defaultWorkerID is unique per process, so a fleet launched without
// explicit ids still gets per-machine throughput estimates instead of
// every worker blending into one shared "worker" entry.
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
