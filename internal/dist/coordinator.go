package dist

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"koopmancrc/internal/core"
	"koopmancrc/internal/journal"
	"koopmancrc/internal/obs"
	"koopmancrc/internal/poly"
)

// CoordinatorConfig tunes a Coordinator.
type CoordinatorConfig struct {
	// Spec is the search served to every worker.
	Spec SearchSpec
	// JobSize is the number of raw indices per job: job i is the slice
	// [i·JobSize, min((i+1)·JobSize, total)). Zero means 4096 for a
	// fresh sweep and the checkpoint's size on Resume; a resume with a
	// different size is refused, since the size defines every job id.
	JobSize uint64
	// LeaseTimeout bounds how long an assigned job may stay silent
	// before it is requeued for another worker (default 30s). Workers
	// send mid-job heartbeats at a third of this interval, so it only
	// needs to exceed a few heartbeat periods — not the worst-case job
	// duration — for slow-but-healthy workers to keep their leases.
	LeaseTimeout time.Duration
	// CheckpointDir, when non-empty, enables the durable journal: the
	// coordinator records completions and requeues as they happen and
	// compacts them into snapshots, so a crashed sweep can be resumed
	// from disk and inspected read-only with ReadStatus.
	CheckpointDir string
	// Resume reconstructs the ledger from an existing CheckpointDir
	// journal instead of starting the sweep at index zero. The
	// journaled spec and job size must match this configuration.
	Resume bool
	// Logf, when set, receives progress lines (assignments, requeues,
	// completions).
	Logf func(format string, args ...any)
	// DebugAddr, when non-empty, starts a read-only HTTP telemetry
	// listener on that address (e.g. "127.0.0.1:0"): /metrics serves the
	// live ledger — per-worker completed jobs, lease ages, requeue and
	// coverage counters — in Prometheus text exposition, /v1/traces and
	// /v1/traces/{id} serve the per-job trace recorder (one span tree
	// per grant, spanning coordinator → worker), and /healthz answers
	// liveness probes. The listener is unauthenticated; bind it to
	// loopback or an operator network.
	DebugAddr string
}

// Summary is the merged outcome of a completed distributed search.
type Summary struct {
	// Jobs is the number of jobs the space was cut into.
	Jobs int
	// Requeues counts lease expiries that sent a job back to the queue,
	// including ones restored from a resumed checkpoint.
	Requeues int
	// Resumed is the number of jobs restored as already done from a
	// checkpoint journal (0 for a fresh sweep).
	Resumed int
	// Canonical is the total number of canonical candidates evaluated.
	Canonical uint64
	// Survivors pass the HD filter at every scheduled length, in
	// ascending Koopman order.
	Survivors []poly.P
	// Elapsed is the coordinator wall-clock time from start to the last
	// job's result (the current process only, on a resumed sweep).
	Elapsed time.Duration
}

// lease is one job handed to a worker. Leases are not journaled: they
// die with the coordinator, and a resumed one grants every job that is
// not done again.
type lease struct {
	id, start, end uint64
	worker         string
	deadline       time.Time
	// traceID / rootSpan / grantedAt are the lease's trace context,
	// minted fresh on every grant (a requeued job gets a new trace — its
	// old one is recorded as errored when the lease expires).
	traceID   string
	rootSpan  string
	grantedAt time.Time
}

// Coordinator owns the job queue of a distributed search: it hands out
// fixed JobSize slices of the space as [start, end) jobs, leases them to
// workers over TCP, requeues expired leases, journals the ledger when
// checkpointing is enabled and merges results into a Summary.
type Coordinator struct {
	cfg     CoordinatorConfig
	ln      net.Listener
	debugLn net.Listener // optional telemetry listener (cfg.DebugAddr)

	mu           sync.Mutex
	ledger                         // the journaled sweep state (journal.go)
	leases       map[uint64]*lease // leased job ids
	queue        []uint64          // requeued job ids, granted before the cursor moves on
	next         uint64            // the cursor: next job id to grant
	resumed      int
	summary      *Summary
	recorder     *obs.FlightRecorder // per-job traces behind Traces()/DebugAddr
	conns        map[net.Conn]struct{}
	jnl          *journal.Journal
	appendsSince int

	started   time.Time
	doneCh    chan struct{}
	closedCh  chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewCoordinator validates the spec, opens (or resumes) the checkpoint
// journal if configured, and starts listening on addr (e.g.
// "127.0.0.1:0" for an ephemeral port).
func NewCoordinator(addr string, cfg CoordinatorConfig) (*Coordinator, error) {
	space, err := core.NewSpace(cfg.Spec.Width)
	if err != nil {
		return nil, err
	}
	if len(cfg.Spec.Lengths) == 0 || cfg.Spec.MinHD < 2 {
		return nil, fmt.Errorf("dist: spec needs lengths and MinHD >= 2")
	}
	if cfg.Resume && cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("dist: Resume requires CheckpointDir")
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	c := &Coordinator{
		cfg:      cfg,
		leases:   make(map[uint64]*lease),
		recorder: obs.NewFlightRecorder(traceCapacity, 1),
		conns:    make(map[net.Conn]struct{}),
		started:  time.Now(),
		doneCh:   make(chan struct{}),
		closedCh: make(chan struct{}),
	}
	c.ledger = newLedger(beginRec{
		Version: journalVersion, Spec: cfg.Spec, JobSize: cfg.JobSize,
		Total: space.TotalPolynomials(), TS: c.started.UnixNano(),
	})
	if cfg.CheckpointDir != "" {
		jnl, rec, err := journal.Open(cfg.CheckpointDir)
		if err != nil {
			return nil, err
		}
		c.jnl = jnl
		if cfg.Resume {
			if err := c.restore(rec); err != nil {
				jnl.Close()
				return nil, err
			}
			c.cfg.Logf("dist: resumed checkpoint %s: %d of %d jobs done (%d/%d indices), %d survivors so far",
				cfg.CheckpointDir, c.doneJobs(), c.totalJobs(), c.doneIdx, c.begin.Total, len(c.survivors))
		} else if rec.Snapshot != nil || len(rec.Entries) > 0 {
			jnl.Close()
			return nil, fmt.Errorf("dist: checkpoint %s already holds a journal; set Resume to continue it",
				cfg.CheckpointDir)
		}
	}
	if c.cfg.JobSize == 0 {
		c.cfg.JobSize = 4096
	}
	c.begin.JobSize = c.cfg.JobSize
	c.next = c.watermark
	if c.jnl != nil && !cfg.Resume {
		if err := c.jnl.Append(recBegin, c.begin); err != nil {
			c.jnl.Close()
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		if c.jnl != nil {
			c.jnl.Close()
		}
		return nil, err
	}
	c.ln = ln
	if cfg.DebugAddr != "" {
		if err := c.startDebug(cfg.DebugAddr); err != nil {
			ln.Close()
			if c.jnl != nil {
				c.jnl.Close()
			}
			return nil, fmt.Errorf("dist: debug listener: %w", err)
		}
	}
	c.mu.Lock()
	if c.complete() {
		// A resumed checkpoint of a finished sweep: nothing left to
		// lease. Workers that connect are told to shut down.
		c.completeLocked()
	}
	c.mu.Unlock()
	c.wg.Add(2)
	go c.acceptLoop()
	go c.leaseLoop()
	return c, nil
}

// Addr returns the coordinator's listen address, suitable for NewWorker.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Progress reports raw-index coverage: how many of the space's total
// indices belong to completed jobs.
func (c *Coordinator) Progress() (done, total uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.doneIdx, c.begin.Total
}

// Wait blocks until every job has reported (returning the merged
// Summary), the context is cancelled, or the coordinator is closed.
func (c *Coordinator) Wait(ctx context.Context) (*Summary, error) {
	select {
	case <-c.doneCh:
		return c.summaryLocked(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.closedCh:
		// Close raced with completion; prefer the summary if it exists.
		select {
		case <-c.doneCh:
			return c.summaryLocked(), nil
		default:
		}
		return nil, fmt.Errorf("dist: coordinator closed before the space was covered")
	}
}

func (c *Coordinator) summaryLocked() *Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.summary
}

// Close stops the listener, disconnects workers, flushes a final
// checkpoint snapshot and unblocks Wait. It is idempotent and safe to
// call after completion; with a checkpoint configured it is also the
// clean way to suspend a sweep for a later Resume.
func (c *Coordinator) Close() error {
	c.closeOnce.Do(func() {
		close(c.closedCh)
		c.ln.Close()
		if c.debugLn != nil {
			c.debugLn.Close()
		}
		c.mu.Lock()
		for conn := range c.conns {
			conn.Close()
		}
		c.mu.Unlock()
	})
	c.wg.Wait()
	// All connection handlers have drained; the ledger is quiescent.
	c.mu.Lock()
	if c.jnl != nil {
		c.snapshotLocked()
		if err := c.jnl.Close(); err != nil {
			c.cfg.Logf("dist: closing checkpoint journal: %v", err)
		}
		c.jnl = nil
	}
	c.mu.Unlock()
	return nil
}

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.mu.Lock()
		c.conns[conn] = struct{}{}
		c.mu.Unlock()
		// A connection accepted concurrently with Close can miss its
		// sweep of c.conns; close it here so handleConn exits at once
		// instead of leasing jobs (and blocking Close) after shutdown.
		select {
		case <-c.closedCh:
			conn.Close()
		default:
		}
		c.wg.Add(1)
		go c.handleConn(conn)
	}
}

// leaseLoop requeues jobs whose lease expired — the fault-tolerance path
// for workers that died or hung mid-job. Healthy workers renew their
// lease with heartbeats, so expiry means sustained silence, not slowness.
func (c *Coordinator) leaseLoop() {
	defer c.wg.Done()
	interval := c.cfg.LeaseTimeout / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.closedCh:
			return
		case <-c.doneCh:
			return
		case now := <-t.C:
			c.mu.Lock()
			for id, l := range c.leases {
				if !now.After(l.deadline) {
					continue
				}
				delete(c.leases, id)
				c.queue = append(c.queue, id)
				rq := requeueRec{JobID: id, Worker: l.worker, TS: now.UnixNano()}
				c.requeue(rq)
				c.jnlAppendLocked(recRequeue, rq, false)
				// The expired lease's trace is recorded as errored —
				// pinned by the recorder, so a flaky fleet's lost jobs
				// stay inspectable at /v1/traces long after the sweep
				// moved on (the requeue mints a fresh trace).
				c.recorder.Record(assembleJobTrace(l, l.worker,
					"lease expired; job requeued", nil, now))
				c.cfg.Logf("dist: lease expired on job %d [%d,%d) held by %q; requeued",
					id, l.start, l.end, l.worker)
			}
			c.mu.Unlock()
		}
	}
}

func (c *Coordinator) handleConn(conn net.Conn) {
	defer c.wg.Done()
	defer func() {
		c.mu.Lock()
		delete(c.conns, conn)
		c.mu.Unlock()
		conn.Close()
	}()
	w := newWire(conn)
	for {
		m, err := w.recv()
		if err != nil {
			return
		}
		switch m.Type {
		case msgResult:
			if err := c.recordResult(m); err != nil {
				c.cfg.Logf("dist: dropping result from %q: %v", m.Worker, err)
				return
			}
		case msgNext:
			// fall through to assignment
		case msgHeartbeat:
			// Fire-and-forget lease renewal from a busy worker's side
			// goroutine; no reply, or it would interleave with the job
			// reply the worker's main loop is waiting for.
			c.renewLease(m.JobID, m.Worker)
			continue
		default:
			c.cfg.Logf("dist: unknown message %q from %q", m.Type, m.Worker)
			return
		}
		if err := w.send(c.nextAssignment(m.Worker)); err != nil {
			return
		}
	}
}

// renewLease extends a job's deadline if it is still leased to the
// heartbeating worker. Heartbeats for requeued or completed jobs are
// ignored: a worker that lost its lease to sustained silence does not
// get it back by resuming heartbeats.
func (c *Coordinator) renewLease(id uint64, worker string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l := c.leases[id]; l != nil && l.worker == worker {
		l.deadline = time.Now().Add(c.cfg.LeaseTimeout)
	}
}

// nextAssignment hands a worker its next job: a requeued one first, else
// the cursor's next job that is not done (on a resumed sweep the cursor
// starts at the done watermark and skips the done ids above it). Tells
// it to wait (leases outstanding) or shut down (space covered)
// otherwise.
func (c *Coordinator) nextAssignment(worker string) *message {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.complete() {
		return &message{Type: msgShutdown}
	}
	for len(c.queue) > 0 {
		id := c.queue[0]
		c.queue = c.queue[1:]
		if !c.isDone(id) { // a slow worker may have delivered it after all
			return c.grantLocked(id, worker)
		}
	}
	for total := c.totalJobs(); c.next < total; {
		id := c.next
		c.next++
		if !c.isDone(id) {
			return c.grantLocked(id, worker)
		}
	}
	return &message{Type: msgWait}
}

// grantLocked leases job id to a worker (c.mu held).
func (c *Coordinator) grantLocked(id uint64, worker string) *message {
	now := time.Now()
	l := &lease{
		id: id, worker: worker, deadline: now.Add(c.cfg.LeaseTimeout),
		traceID: obs.NewTraceID(), rootSpan: obs.NewSpanID(), grantedAt: now,
	}
	l.start, l.end = c.jobRange(id)
	c.leases[id] = l
	spec := c.cfg.Spec
	return &message{
		Type: msgJob, JobID: id, Spec: &spec, Start: l.start, End: l.end,
		LeaseNS: int64(c.cfg.LeaseTimeout),
		TraceID: l.traceID, ParentSpan: l.rootSpan,
	}
}

// recordResult merges one job's partial result, ignoring duplicates so a
// requeued job that two workers both finish is counted exactly once. An
// accepted result is journaled before the coordinator acknowledges it.
func (c *Coordinator) recordResult(m *message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m.JobID >= c.totalJobs() {
		return fmt.Errorf("unknown job id %d", m.JobID)
	}
	if c.isDone(m.JobID) {
		c.cfg.Logf("dist: duplicate result for job %d from %q ignored", m.JobID, m.Worker)
		return nil
	}
	survivors, err := c.polys(m.Survivors)
	if err != nil {
		return fmt.Errorf("job %d %w", m.JobID, err)
	}
	now := time.Now()
	// Stitch the worker's wire spans under the grant's root and retain
	// the job's trace. A worker that predates tracing sends no spans; the
	// trace still records the grant → result envelope.
	if l := c.leases[m.JobID]; l != nil {
		delete(c.leases, m.JobID)
		c.recorder.Record(assembleJobTrace(l, m.Worker, "", m.Spans, now))
	}
	d := doneRec{
		JobID: m.JobID, Worker: m.Worker, Canonical: m.Canonical,
		Survivors: m.Survivors, ElapsedNS: m.ElapsedNS, TS: now.UnixNano(),
	}
	c.markDone(d, survivors)
	c.jnlAppendLocked(recDone, d, true)
	start, end := c.jobRange(m.JobID)
	c.cfg.Logf("dist: job %d [%d,%d) done by %q in %v (%d of %d jobs, %d/%d indices)",
		m.JobID, start, end, m.Worker, time.Duration(m.ElapsedNS), c.doneJobs(), c.totalJobs(), c.doneIdx, c.begin.Total)
	if c.complete() {
		c.completeLocked()
	}
	return nil
}

// completeLocked seals the sweep (c.mu held): survivors are re-sorted
// into the order a sequential single-machine run would produce (jobs
// complete out of order), the Summary is built, a final snapshot
// compacts the journal and Wait unblocks.
func (c *Coordinator) completeLocked() {
	sort.Slice(c.survivors, func(i, k int) bool {
		return c.survivors[i].Koopman() < c.survivors[k].Koopman()
	})
	c.summary = &Summary{
		Jobs:      int(c.totalJobs()),
		Requeues:  c.requeues,
		Resumed:   c.resumed,
		Canonical: c.canonical,
		Survivors: c.survivors,
		Elapsed:   time.Since(c.started),
	}
	c.snapshotLocked()
	close(c.doneCh)
}
