package dist

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"time"

	"koopmancrc/internal/journal"
	"koopmancrc/internal/poly"
)

// Journal record types written by a checkpointing coordinator. Job i is
// always the raw-index slice [i·JobSize, min((i+1)·JobSize, Total)), so
// the begin record fixes every job's range and grants need no record:
// a lease dies with the coordinator that issued it. Done records and the
// periodic snapshot are what exactly-once resumption is rebuilt from;
// requeue records are audit state the status view reads back.
//
// Requeues are appended without fsync: the WAL is strictly
// append-ordered, so the sync on any later record (every done is synced)
// also makes them durable, and one lost from the tail only undercounts
// the requeue history.
const (
	recBegin   = "begin"
	recRequeue = "requeue"
	recDone    = "done"
)

// journalVersion is bumped when the record schema changes incompatibly.
// Version 3 dropped the grant and resize records and the snapshot's
// carve table: jobs are fixed slices, so a done watermark and the done
// ids above it replace the per-job table. Dropping a field needs no
// bump: replay ignores fields it does not know.
const journalVersion = 3

// snapshotEvery is the journal compaction cadence in appended records.
const snapshotEvery = 64

// beginRec pins the sweep's identity. A resume validates it so a
// checkpoint directory can never silently continue a different search;
// the job size is part of that identity, since it defines every job id.
type beginRec struct {
	Version int        `json:"version"`
	Spec    SearchSpec `json:"spec"`
	JobSize uint64     `json:"job_size"`
	Total   uint64     `json:"total"`
	TS      int64      `json:"ts"`
}

// requeueRec records a lease expiry that sent a job back to the queue.
type requeueRec struct {
	JobID  uint64 `json:"job_id"`
	Worker string `json:"worker,omitempty"`
	TS     int64  `json:"ts"`
}

// doneRec records one job's accepted result — the unit of exactly-once
// accounting across a crash.
type doneRec struct {
	JobID     uint64   `json:"job_id"`
	Worker    string   `json:"worker"`
	Canonical uint64   `json:"canonical"`
	Survivors []uint64 `json:"survivors,omitempty"`
	ElapsedNS int64    `json:"elapsed_ns"`
	TS        int64    `json:"ts"`
}

// workerSnap is one worker's ledger entry in a snapshot.
type workerSnap struct {
	ID        string `json:"id"`
	JobsDone  int    `json:"jobs_done"`
	Canonical uint64 `json:"canonical"`
	ElapsedNS int64  `json:"elapsed_ns"`
}

// ledgerSnap is the compacted ledger stored by snapshots.
type ledgerSnap struct {
	Begin      beginRec     `json:"begin"`
	Watermark  uint64       `json:"watermark"`
	DoneAbove  []uint64     `json:"done_above,omitempty"`
	Requeues   int          `json:"requeues"`
	RequeueLog []requeueRec `json:"requeue_log,omitempty"`
	Canonical  uint64       `json:"canonical"`
	Survivors  []uint64     `json:"survivors,omitempty"`
	Workers    []workerSnap `json:"workers,omitempty"`
	TS         int64        `json:"ts"`
}

// workerStat is one worker's completed-job ledger.
type workerStat struct {
	jobsDone  int           // jobs this worker completed
	canonical uint64        // canonical candidates across those jobs
	elapsed   time.Duration // summed compute time across those jobs
}

// requeueLogCap bounds the requeue history kept for snapshots and the
// status view; requeues keeps the exact total regardless.
const requeueLogCap = 128

// ledger is the journaled state of a sweep: what a snapshot stores, what
// a replay rebuilds, and what the live coordinator updates. The live
// coordinator, its restore path and ReadStatus all account through the
// same methods, so the three can never disagree about a checkpoint. Jobs
// are named by id alone, so the ledger's size tracks out-of-order
// completions, workers and survivors, not the number of jobs.
type ledger struct {
	begin      beginRec
	watermark  uint64              // every job id below it is done
	doneAbove  map[uint64]struct{} // done ids at or above watermark
	doneIdx    uint64              // raw indices covered by done jobs
	requeues   int
	requeueLog []requeueRec
	canonical  uint64
	survivors  []poly.P // in completion order until the sweep completes
	workers    map[string]*workerStat
	lastTS     int64 // newest record timestamp seen
}

func newLedger(b beginRec) ledger {
	return ledger{begin: b, doneAbove: make(map[uint64]struct{}), workers: make(map[string]*workerStat)}
}

// totalJobs is the number of JobSize slices covering the space.
func (l *ledger) totalJobs() uint64 {
	n := l.begin.Total / l.begin.JobSize
	if l.begin.Total%l.begin.JobSize != 0 {
		n++
	}
	return n
}

// jobRange returns the raw-index slice [start, end) of job id.
func (l *ledger) jobRange(id uint64) (start, end uint64) {
	start = id * l.begin.JobSize
	end = start + l.begin.JobSize
	if end > l.begin.Total || end < start {
		end = l.begin.Total
	}
	return start, end
}

func (l *ledger) isDone(id uint64) bool {
	if id < l.watermark {
		return true
	}
	_, ok := l.doneAbove[id]
	return ok
}

func (l *ledger) doneJobs() uint64 { return l.watermark + uint64(len(l.doneAbove)) }

func (l *ledger) complete() bool { return l.doneJobs() == l.totalJobs() }

// addDone marks job id done and advances the watermark over every done
// id it now reaches. The caller checks id is in range and not done.
func (l *ledger) addDone(id uint64) {
	l.doneAbove[id] = struct{}{}
	for {
		if _, ok := l.doneAbove[l.watermark]; !ok {
			break
		}
		delete(l.doneAbove, l.watermark)
		l.watermark++
	}
	start, end := l.jobRange(id)
	l.doneIdx += end - start
}

// markDone folds one accepted result, whose survivors the caller has
// already parsed, into the ledger.
func (l *ledger) markDone(d doneRec, survivors []poly.P) {
	l.addDone(d.JobID)
	l.canonical += d.Canonical
	l.survivors = append(l.survivors, survivors...)
	ws := l.worker(d.Worker)
	ws.jobsDone++
	ws.canonical += d.Canonical
	ws.elapsed += time.Duration(d.ElapsedNS)
	l.seeTS(d.TS)
}

// requeue records one lease expiry, evicting the oldest logged event so
// the log always holds the newest requeueLogCap events — an operator
// debugging a flaky fleet needs the recent expiries, not the first ones.
func (l *ledger) requeue(r requeueRec) {
	l.requeues++
	l.requeueLog = append(l.requeueLog, r)
	if len(l.requeueLog) > requeueLogCap {
		l.requeueLog = append(l.requeueLog[:0], l.requeueLog[len(l.requeueLog)-requeueLogCap:]...)
	}
	l.seeTS(r.TS)
}

func (l *ledger) worker(id string) *workerStat {
	ws := l.workers[id]
	if ws == nil {
		ws = &workerStat{}
		l.workers[id] = ws
	}
	return ws
}

func (l *ledger) seeTS(ts int64) {
	if ts > l.lastTS {
		l.lastTS = ts
	}
}

// polys parses Koopman survivors at the sweep's width.
func (l *ledger) polys(ks []uint64) ([]poly.P, error) {
	out := make([]poly.P, 0, len(ks))
	for _, k := range ks {
		p, err := poly.FromKoopman(l.begin.Spec.Width, k)
		if err != nil {
			return nil, fmt.Errorf("survivor %#x: %w", k, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// snap is the ledger as a snapshot stores it.
func (l *ledger) snap() ledgerSnap {
	s := ledgerSnap{
		Begin:      l.begin,
		Watermark:  l.watermark,
		Requeues:   l.requeues,
		RequeueLog: l.requeueLog,
		Canonical:  l.canonical,
		Survivors:  make([]uint64, len(l.survivors)),
		TS:         time.Now().UnixNano(),
	}
	for id := range l.doneAbove {
		s.DoneAbove = append(s.DoneAbove, id)
	}
	slices.Sort(s.DoneAbove)
	for i, p := range l.survivors {
		s.Survivors[i] = p.Koopman()
	}
	for _, id := range l.workerIDs() {
		ws := l.workers[id]
		s.Workers = append(s.Workers, workerSnap{
			ID: id, JobsDone: ws.jobsDone, Canonical: ws.canonical, ElapsedNS: ws.elapsed.Nanoseconds(),
		})
	}
	return s
}

func (l *ledger) workerIDs() []string {
	ids := make([]string, 0, len(l.workers))
	for id := range l.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// loadSnap installs a snapshot into an empty ledger, rejecting done ids
// outside the sweep or listed twice.
func (l *ledger) loadSnap(s ledgerSnap) error {
	if s.Watermark > l.totalJobs() {
		return fmt.Errorf("dist: checkpoint snapshot watermark %d exceeds the sweep's %d jobs", s.Watermark, l.totalJobs())
	}
	l.watermark = s.Watermark
	if s.Watermark > 0 {
		_, l.doneIdx = l.jobRange(s.Watermark - 1)
	}
	for _, id := range s.DoneAbove {
		if id >= l.totalJobs() || l.isDone(id) {
			return fmt.Errorf("dist: checkpoint snapshot lists job %d as done twice or beyond the sweep", id)
		}
		l.addDone(id)
	}
	survivors, err := l.polys(s.Survivors)
	if err != nil {
		return fmt.Errorf("dist: checkpoint snapshot %w", err)
	}
	l.survivors = survivors
	l.requeues = s.Requeues
	l.requeueLog = s.RequeueLog
	l.canonical = s.Canonical
	for _, w := range s.Workers {
		l.workers[w.ID] = &workerStat{jobsDone: w.JobsDone, canonical: w.Canonical, elapsed: time.Duration(w.ElapsedNS)}
	}
	l.seeTS(s.TS)
	return nil
}

// replayLedger rebuilds the sweep state from a replayed journal:
// snapshot first, then the WAL records above its watermark. It validates
// the journal's internal consistency (version, record ordering, job ids)
// but not against any particular coordinator configuration — that is
// the caller's job, so the read-only status path can replay a checkpoint
// without knowing the sweep's spec up front.
func replayLedger(rec *journal.Recovery) (*ledger, error) {
	var l *ledger
	if rec.Snapshot != nil {
		var s ledgerSnap
		if err := json.Unmarshal(rec.Snapshot, &s); err != nil {
			return nil, fmt.Errorf("dist: checkpoint snapshot: %w", err)
		}
		if err := checkVersion(s.Begin); err != nil {
			return nil, err
		}
		nl := newLedger(s.Begin)
		l = &nl
		if err := l.loadSnap(s); err != nil {
			return nil, err
		}
	}
	for _, e := range rec.Entries {
		if e.Type != recBegin && l == nil {
			return nil, fmt.Errorf("dist: checkpoint %s record (seq %d) precedes the begin record", e.Type, e.Seq)
		}
		switch e.Type {
		case recBegin:
			var b beginRec
			if err := json.Unmarshal(e.Data, &b); err != nil {
				return nil, fmt.Errorf("dist: checkpoint begin record: %w", err)
			}
			if err := checkVersion(b); err != nil {
				return nil, err
			}
			if l != nil {
				return nil, fmt.Errorf("dist: checkpoint holds two begin records")
			}
			nl := newLedger(b)
			l = &nl
			l.seeTS(b.TS)
		case recRequeue:
			var r requeueRec
			if err := json.Unmarshal(e.Data, &r); err != nil {
				return nil, fmt.Errorf("dist: checkpoint requeue record: %w", err)
			}
			l.requeue(r)
		case recDone:
			var d doneRec
			if err := json.Unmarshal(e.Data, &d); err != nil {
				return nil, fmt.Errorf("dist: checkpoint done record: %w", err)
			}
			if d.JobID >= l.totalJobs() {
				return nil, fmt.Errorf("dist: checkpoint done record for job %d beyond the sweep's %d jobs",
					d.JobID, l.totalJobs())
			}
			if l.isDone(d.JobID) {
				continue
			}
			survivors, err := l.polys(d.Survivors)
			if err != nil {
				return nil, fmt.Errorf("dist: checkpoint done record for job %d: %w", d.JobID, err)
			}
			l.markDone(d, survivors)
		default:
			return nil, fmt.Errorf("dist: unknown checkpoint record type %q (seq %d)", e.Type, e.Seq)
		}
	}
	if l == nil {
		return nil, fmt.Errorf("dist: checkpoint has no begin record (empty or foreign journal)")
	}
	return l, nil
}

// checkVersion rejects journals written by an incompatible schema, and
// a begin record whose job size could not define any job.
func checkVersion(b beginRec) error {
	if b.Version != journalVersion {
		return fmt.Errorf("dist: checkpoint journal is schema version %d, this build reads version %d",
			b.Version, journalVersion)
	}
	if b.JobSize == 0 {
		return fmt.Errorf("dist: checkpoint journal has job size 0")
	}
	return nil
}

// restore replaces the coordinator's fresh ledger with a replayed one
// after validating the journaled sweep identity against this
// coordinator's configuration. JobSize 0 adopts the checkpoint's size.
// Jobs without a done record — including ones leased when the old
// coordinator died — are granted again, in ascending id order, by the
// cursor starting at the watermark.
func (c *Coordinator) restore(rec *journal.Recovery) error {
	l, err := replayLedger(rec)
	if err != nil {
		return err
	}
	b := l.begin
	if !b.Spec.equal(c.cfg.Spec) {
		return fmt.Errorf("dist: checkpoint is for spec %+v, coordinator configured %+v", b.Spec, c.cfg.Spec)
	}
	if b.Total != c.begin.Total {
		return fmt.Errorf("dist: checkpoint covers %d raw indices, coordinator's space has %d", b.Total, c.begin.Total)
	}
	if c.cfg.JobSize != 0 && c.cfg.JobSize != b.JobSize {
		return fmt.Errorf("dist: checkpoint was swept with job size %d, coordinator configured job size %d",
			b.JobSize, c.cfg.JobSize)
	}
	c.cfg.JobSize = b.JobSize
	c.ledger = *l
	c.resumed = int(c.doneJobs())
	return nil
}

// jnlAppendLocked appends one ledger record (c.mu held), compacting into
// a snapshot every snapshotEvery appends. Done records fsync before
// returning; requeues are buffered and ride the next synced operation.
// Journal failures are reported but do not stop the sweep: the search
// result stays correct, only resumability degrades.
func (c *Coordinator) jnlAppendLocked(typ string, v any, sync bool) {
	if c.jnl == nil {
		return
	}
	var err error
	if sync {
		err = c.jnl.Append(typ, v)
	} else {
		err = c.jnl.AppendNoSync(typ, v)
	}
	if err != nil {
		c.cfg.Logf("dist: checkpoint append failed: %v", err)
		return
	}
	c.appendsSince++
	if c.appendsSince >= snapshotEvery {
		c.snapshotLocked()
	}
}

// snapshotLocked compacts the ledger into the journal's snapshot (c.mu
// held).
func (c *Coordinator) snapshotLocked() {
	if c.jnl == nil {
		return
	}
	if err := c.jnl.Snapshot(c.snap()); err != nil {
		c.cfg.Logf("dist: checkpoint snapshot failed: %v", err)
		return
	}
	c.appendsSince = 0
}
