package dist

import (
	"context"
	"fmt"
	"math"
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
	// JobSize is the number of raw indices per job before the
	// coordinator has any throughput data for a worker (default 4096).
	// With adaptive sizing off (TargetJobTime zero) every job is
	// exactly this size.
	JobSize uint64
	// TargetJobTime, when positive, enables adaptive job sizing: each
	// fresh grant to a worker is sized so the job should take roughly
	// this much wall time, using that worker's observed throughput
	// (completed-job rates blended with live heartbeat progress).
	// Stragglers then get smaller jobs and stop dominating tail
	// latency; fast machines get bigger ones and amortize protocol
	// overhead. Requeued jobs keep their original ranges.
	TargetJobTime time.Duration
	// MinJobSize and MaxJobSize clamp adaptive grants in raw indices
	// (defaults 1 and 64*JobSize). A worker whose reported throughput
	// is zero, absurd or not yet known always receives a job of at
	// least one index, so sizing can never stall the queue.
	MinJobSize uint64
	MaxJobSize uint64
	// LeaseTimeout bounds how long an assigned job may stay silent
	// before it is requeued for another worker (default 30s). Workers
	// send mid-job heartbeats at a third of this interval, so it only
	// needs to exceed a few heartbeat periods — not the worst-case job
	// duration — for slow-but-healthy workers to keep their leases.
	LeaseTimeout time.Duration
	// CheckpointDir, when non-empty, enables the durable journal: the
	// coordinator records grants, completions, requeues and sizing
	// decisions as they happen and compacts them into snapshots, so a
	// crashed sweep can be resumed from disk and inspected read-only
	// with ReadStatus.
	CheckpointDir string
	// Resume reconstructs the ledger from an existing CheckpointDir
	// journal instead of starting the sweep at index zero. The
	// journaled spec must match this configuration; sizing knobs
	// (JobSize, TargetJobTime, clamps) may be retuned across a resume
	// because every job's range is journaled with its grant.
	Resume bool
	// SnapshotEvery is the journal compaction cadence in appended
	// records (default 64).
	SnapshotEvery int
	// Logf, when set, receives progress lines (assignments, requeues,
	// sizing changes).
	Logf func(format string, args ...any)
	// DebugAddr, when non-empty, starts a read-only HTTP telemetry
	// listener on that address (e.g. "127.0.0.1:0"): /metrics serves the
	// live ledger — per-worker EWMA rates and grant sizes, lease ages,
	// requeue and coverage counters — in Prometheus text exposition,
	// /v1/traces and /v1/traces/{id} serve the per-job trace recorder
	// (one span tree per grant, spanning coordinator → worker), and
	// /healthz answers liveness probes. The listener is unauthenticated;
	// bind it to loopback or an operator network.
	DebugAddr string
}

// Summary is the merged outcome of a completed distributed search.
type Summary struct {
	// Jobs is the number of jobs the space was carved into.
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

type jobState int

const (
	jobPending jobState = iota
	jobAssigned
	jobDone
)

type job struct {
	id         uint64
	start, end uint64
	state      jobState
	worker     string
	deadline   time.Time
	// progress / progressAt track the worker's last heartbeat-reported
	// candidate count for this lease, for live throughput sampling.
	// Both reset on every grant, so a requeued job's new lease never
	// inherits (or double-counts) a dead worker's progress.
	progress   uint64
	progressAt time.Time
	// traceID / rootSpan / grantedAt are the lease's trace context,
	// minted fresh on every grant (a requeued job gets a new trace — its
	// old one is recorded as errored when the lease expires).
	traceID   string
	rootSpan  string
	grantedAt time.Time
}

// rateAlpha is the EWMA weight of a new throughput sample; samples come
// from completed jobs (canonical/elapsed) and heartbeat progress deltas.
const rateAlpha = 0.4

// requeueLogCap bounds the requeue history kept for snapshots and the
// status view; Requeues keeps the exact total regardless.
const requeueLogCap = 128

// appendRequeue appends one requeue event, evicting the oldest so the
// log always holds the newest requeueLogCap events — an operator
// debugging a flaky fleet needs the recent expiries, not the first ones.
func appendRequeue(log []requeueRec, rq requeueRec) []requeueRec {
	log = append(log, rq)
	if len(log) > requeueLogCap {
		log = append(log[:0], log[len(log)-requeueLogCap:]...)
	}
	return log
}

// materialResize reports whether a grant-size change is worth a journal
// record and a log line. The EWMA estimate drifts a little on almost
// every sample, so journaling every delta would double per-grant journal
// traffic; a quarter of the previous size is the threshold for a real
// sizing decision.
func materialResize(old, new uint64) bool {
	if old == 0 {
		return true
	}
	d := new - old
	if new < old {
		d = old - new
	}
	return d*4 >= old
}

// workerStat is the coordinator's per-worker throughput ledger. It is
// rebuilt on resume by replaying done and resize records, so the same
// struct backs the live coordinator, the restore path and ReadStatus.
type workerStat struct {
	rate      float64       // EWMA canonical candidates/sec
	jobsDone  int           // jobs this worker completed
	canonical uint64        // canonical candidates across those jobs
	elapsed   time.Duration // summed compute time across those jobs
	lastSize  uint64        // last journaled sizing decision (fresh grants stay within materialResize of it)
}

// observe folds one throughput sample into the EWMA. Zero or absurd
// samples (no candidates, non-positive duration, overflow to ±Inf) carry
// no signal and are discarded — they must never drive the estimate, and
// with it the grant size, to zero or infinity.
func (ws *workerStat) observe(candidates uint64, dt time.Duration) {
	if candidates == 0 || dt <= 0 {
		return
	}
	sample := float64(candidates) / dt.Seconds()
	if math.IsNaN(sample) || math.IsInf(sample, 0) || sample <= 0 {
		return
	}
	if ws.rate <= 0 {
		ws.rate = sample
		return
	}
	ws.rate = rateAlpha*sample + (1-rateAlpha)*ws.rate
}

// observeDone records a completed job. The math is shared verbatim with
// journal replay so a resumed coordinator and ReadStatus reconstruct
// exactly the stats the live coordinator had.
func (ws *workerStat) observeDone(canonical uint64, elapsed time.Duration) {
	ws.observe(canonical, elapsed)
	ws.jobsDone++
	ws.canonical += canonical
	ws.elapsed += elapsed
}

// Coordinator owns the job queue of a distributed search: it carves the
// space into [start, end) jobs on demand — sized per worker when adaptive
// sizing is on — leases them to workers over TCP, requeues expired
// leases, journals the ledger when checkpointing is enabled and merges
// results into a Summary.
type Coordinator struct {
	cfg     CoordinatorConfig
	ln      net.Listener
	debugLn net.Listener // optional telemetry listener (cfg.DebugAddr)

	mu           sync.Mutex
	jobs         []*job   // carved so far; index == job id
	queue        []uint64 // pending carved jobs (requeues, restored remainders)
	nextStart    uint64   // first raw index not yet carved into any job
	total        uint64   // raw indices in the whole space
	doneJobs     int
	doneIdx      uint64 // raw indices covered by done jobs
	requeues     int
	requeueLog   []requeueRec
	resumed      int
	canonical    uint64
	survivors    []poly.P
	workers      map[string]*workerStat
	summary      *Summary
	recorder     *obs.FlightRecorder // per-job traces behind Traces()/DebugAddr
	conns        map[net.Conn]struct{}
	jnl          *journal.Journal
	appendsSince int
	beginTS      int64 // sweep start (unix nanos), preserved across resume

	started   time.Time
	doneCh    chan struct{}
	closedCh  chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewCoordinator validates the spec, opens (or resumes) the checkpoint
// journal if configured, and starts listening on addr (e.g.
// "127.0.0.1:0" for an ephemeral port). Jobs are carved lazily as
// workers ask for them, so the job count of a sweep is not fixed up
// front when adaptive sizing is on.
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
	if cfg.JobSize == 0 {
		cfg.JobSize = 4096
	}
	if cfg.MinJobSize == 0 {
		cfg.MinJobSize = 1
	}
	if cfg.MaxJobSize == 0 {
		cfg.MaxJobSize = 64 * cfg.JobSize
	}
	if cfg.MinJobSize > cfg.MaxJobSize {
		return nil, fmt.Errorf("dist: MinJobSize %d > MaxJobSize %d", cfg.MinJobSize, cfg.MaxJobSize)
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 30 * time.Second
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 64
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	c := &Coordinator{
		cfg:      cfg,
		total:    space.TotalPolynomials(),
		workers:  make(map[string]*workerStat),
		recorder: obs.NewFlightRecorder(traceCapacity, 1),
		conns:    make(map[net.Conn]struct{}),
		started:  time.Now(),
		doneCh:   make(chan struct{}),
		closedCh: make(chan struct{}),
	}
	c.beginTS = c.started.UnixNano()
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
			c.cfg.Logf("dist: resumed checkpoint %s: %d jobs done (%d/%d indices), %d survivors so far",
				cfg.CheckpointDir, c.doneJobs, c.doneIdx, c.total, len(c.survivors))
		} else {
			if rec.Snapshot != nil || len(rec.Entries) > 0 {
				jnl.Close()
				return nil, fmt.Errorf("dist: checkpoint %s already holds a journal; set Resume to continue it",
					cfg.CheckpointDir)
			}
			begin := beginRec{
				Version: journalVersion, Spec: cfg.Spec, JobSize: cfg.JobSize,
				Total: c.total, TS: c.beginTS,
			}
			if err := jnl.Append(recBegin, begin); err != nil {
				jnl.Close()
				return nil, err
			}
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
	if c.coveredLocked() {
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
// indices belong to completed jobs. Indices, not job counts, because
// adaptive sizing makes the final job count emerge as the sweep runs.
func (c *Coordinator) Progress() (done, total uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.doneIdx, c.total
}

// coveredLocked reports whether the whole space has been carved and
// every carved job has reported (c.mu held).
func (c *Coordinator) coveredLocked() bool {
	return c.nextStart >= c.total && c.doneJobs == len(c.jobs)
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
			for _, j := range c.jobs {
				if j.state == jobAssigned && now.After(j.deadline) {
					j.state = jobPending
					c.queue = append(c.queue, j.id)
					c.requeues++
					rq := requeueRec{JobID: j.id, Worker: j.worker, TS: now.UnixNano()}
					c.requeueLog = appendRequeue(c.requeueLog, rq)
					c.jnlAppendLocked(recRequeue, rq, false)
					// The expired lease's trace is recorded as errored —
					// pinned by the recorder, so a flaky fleet's lost jobs
					// stay inspectable at /v1/traces long after the sweep
					// moved on (the requeue mints a fresh trace).
					c.recorder.Record(assembleJobTrace(j, j.worker,
						"lease expired; job requeued", nil, now))
					c.cfg.Logf("dist: lease expired on job %d [%d,%d) held by %q; requeued",
						j.id, j.start, j.end, j.worker)
				}
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
			c.renewLease(m.JobID, m.Worker, m.Progress)
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

// workerLocked returns (creating if needed) the stats entry for a
// worker id (c.mu held).
func (c *Coordinator) workerLocked(id string) *workerStat {
	ws := c.workers[id]
	if ws == nil {
		ws = &workerStat{}
		c.workers[id] = ws
	}
	return ws
}

// renewLease extends a job's deadline if it is still assigned to the
// heartbeating worker, and folds the heartbeat's progress delta into
// that worker's throughput estimate. Heartbeats for requeued or
// completed jobs are ignored: a worker that lost its lease to sustained
// silence does not get it back — and its stale progress counts never
// reach the ledger or the estimate — by resuming heartbeats.
func (c *Coordinator) renewLease(id uint64, worker string, progress uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id >= uint64(len(c.jobs)) {
		return
	}
	j := c.jobs[id]
	if j.state != jobAssigned || j.worker != worker {
		return
	}
	now := time.Now()
	j.deadline = now.Add(c.cfg.LeaseTimeout)
	if progress > j.progress {
		c.workerLocked(worker).observe(progress-j.progress, now.Sub(j.progressAt))
		j.progress = progress
		j.progressAt = now
	}
}

// grantSizeLocked sizes a fresh grant for a worker (c.mu held): the
// worker's EWMA candidate rate times the target wall time, converted to
// raw indices via the sweep-wide indices-per-candidate ratio observed so
// far (≈2: reciprocal dedup roughly halves the raw space). Clamped to
// [MinJobSize, MaxJobSize] and floored at one index, so a zero, unknown
// or absurd rate can never produce an empty grant or starve the queue.
func (c *Coordinator) grantSizeLocked(ws *workerStat) uint64 {
	if c.cfg.TargetJobTime <= 0 {
		return c.cfg.JobSize // fixed sizing: every job exactly JobSize, as documented
	}
	size := c.cfg.JobSize
	if ws.rate > 0 {
		perCand := 2.0
		if c.canonical > 0 && c.doneIdx > 0 {
			perCand = float64(c.doneIdx) / float64(c.canonical)
		}
		ideal := ws.rate * c.cfg.TargetJobTime.Seconds() * perCand
		if math.IsNaN(ideal) || ideal >= float64(c.cfg.MaxJobSize) {
			size = c.cfg.MaxJobSize
		} else {
			size = uint64(ideal)
		}
	}
	if size > c.cfg.MaxJobSize {
		size = c.cfg.MaxJobSize
	}
	if size < c.cfg.MinJobSize {
		size = c.cfg.MinJobSize
	}
	if size == 0 {
		size = 1
	}
	return size
}

// nextAssignment hands a worker its next job: a requeued one first, else
// a fresh slice carved off the uncovered space and sized for this
// worker. Tells it to wait (leases outstanding) or shut down (space
// covered) otherwise.
func (c *Coordinator) nextAssignment(worker string) *message {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.coveredLocked() {
		return &message{Type: msgShutdown}
	}
	for len(c.queue) > 0 {
		id := c.queue[0]
		c.queue = c.queue[1:]
		j := c.jobs[id]
		if j.state != jobPending {
			continue // completed while requeued — a slow worker delivered after all
		}
		return c.grantLocked(j, worker)
	}
	if c.nextStart < c.total {
		ws := c.workerLocked(worker)
		size := c.grantSizeLocked(ws)
		end := c.nextStart + size
		if end > c.total || end < c.nextStart {
			end = c.total
		}
		j := &job{id: uint64(len(c.jobs)), start: c.nextStart, end: end}
		c.jobs = append(c.jobs, j)
		c.nextStart = end
		if got := j.end - j.start; materialResize(ws.lastSize, got) {
			c.jnlAppendLocked(recResize, resizeRec{
				Worker: worker, Size: got, Rate: ws.rate, TS: time.Now().UnixNano(),
			}, false)
			c.cfg.Logf("dist: sizing jobs for %q at %d indices (rate ~%.0f candidates/s)",
				worker, got, ws.rate)
			ws.lastSize = got
		}
		return c.grantLocked(j, worker)
	}
	return &message{Type: msgWait}
}

// grantLocked leases a pending job to a worker (c.mu held), resetting
// the per-lease progress tracking and journaling the grant with its
// range — the journal's record of how the space was carved.
func (c *Coordinator) grantLocked(j *job, worker string) *message {
	now := time.Now()
	j.state = jobAssigned
	j.worker = worker
	j.deadline = now.Add(c.cfg.LeaseTimeout)
	j.progress = 0
	j.progressAt = now
	j.traceID = obs.NewTraceID()
	j.rootSpan = obs.NewSpanID()
	j.grantedAt = now
	c.jnlAppendLocked(recGrant, grantRec{
		JobID: j.id, Worker: worker, Start: j.start, End: j.end, TS: now.UnixNano(),
	}, false)
	spec := c.cfg.Spec
	return &message{
		Type: msgJob, JobID: j.id, Spec: &spec, Start: j.start, End: j.end,
		LeaseNS: int64(c.cfg.LeaseTimeout),
		TraceID: j.traceID, ParentSpan: j.rootSpan,
	}
}

// recordResult merges one job's partial result, ignoring duplicates so a
// requeued job that two workers both finish is counted exactly once. An
// accepted result is journaled before the coordinator acknowledges it.
func (c *Coordinator) recordResult(m *message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m.JobID >= uint64(len(c.jobs)) {
		return fmt.Errorf("unknown job id %d", m.JobID)
	}
	j := c.jobs[m.JobID]
	if j.state == jobDone {
		c.cfg.Logf("dist: duplicate result for job %d from %q ignored", j.id, m.Worker)
		return nil
	}
	survivors := make([]poly.P, 0, len(m.Survivors))
	for _, k := range m.Survivors {
		p, err := poly.FromKoopman(c.cfg.Spec.Width, k)
		if err != nil {
			return fmt.Errorf("job %d survivor %#x: %w", j.id, k, err)
		}
		survivors = append(survivors, p)
	}
	j.state = jobDone
	j.worker = m.Worker
	// Stitch the worker's wire spans under the grant's root and retain
	// the job's trace. A worker that predates tracing sends no spans; the
	// trace still records the grant → result envelope.
	if j.traceID != "" {
		c.recorder.Record(assembleJobTrace(j, m.Worker, "", m.Spans, time.Now()))
	}
	c.canonical += m.Canonical
	c.doneIdx += j.end - j.start
	c.survivors = append(c.survivors, survivors...)
	c.doneJobs++
	c.workerLocked(m.Worker).observeDone(m.Canonical, time.Duration(m.ElapsedNS))
	c.jnlAppendLocked(recDone, doneRec{
		JobID: j.id, Worker: m.Worker, Canonical: m.Canonical,
		Survivors: m.Survivors, ElapsedNS: m.ElapsedNS,
		TS: time.Now().UnixNano(),
	}, true)
	c.cfg.Logf("dist: job %d [%d,%d) done by %q in %v (%d jobs, %d/%d indices)",
		j.id, j.start, j.end, m.Worker, time.Duration(m.ElapsedNS), c.doneJobs, c.doneIdx, c.total)
	if c.coveredLocked() {
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
		Jobs:      len(c.jobs),
		Requeues:  c.requeues,
		Resumed:   c.resumed,
		Canonical: c.canonical,
		Survivors: c.survivors,
		Elapsed:   time.Since(c.started),
	}
	c.snapshotLocked()
	close(c.doneCh)
}
