package dist

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"koopmancrc/internal/journal"
	"koopmancrc/internal/poly"
)

// Journal record types written by a checkpointing coordinator. Grants
// define how the space was carved (adaptive sizing makes job ranges a
// runtime decision, so the carve itself must be journaled); done records
// and the periodic snapshot are what exactly-once resumption is rebuilt
// from; requeue and resize records are audit/observability state that
// the status view and resumed sizing read back.
//
// Grants, requeues and resizes are appended without fsync: the WAL is
// strictly append-ordered, so the sync on any later record (every done
// is synced) also makes them durable, and a grant lost from the tail is
// harmless — its job was never completed, so the range is simply carved
// again after resume.
const (
	recBegin   = "begin"
	recGrant   = "grant"
	recRequeue = "requeue"
	recDone    = "done"
	recResize  = "resize"
)

// journalVersion is bumped when the record schema changes incompatibly.
// Version 2 introduced ranged grants (adaptive sizing), timestamps,
// resize records and the per-worker stats snapshot. Dropping a field
// needs no bump: replay ignores fields it does not know, so version-2
// journals that still carry per-stage "stages" statistics resume.
const journalVersion = 2

// beginRec pins the sweep's identity. A resume validates it so a
// checkpoint directory can never silently continue a different search.
// Sizing knobs are deliberately not part of the identity: every job's
// range rides its grant record, so JobSize/TargetJobTime may be retuned
// between runs of the same sweep.
type beginRec struct {
	Version int        `json:"version"`
	Spec    SearchSpec `json:"spec"`
	JobSize uint64     `json:"job_size"`
	Total   uint64     `json:"total"`
	TS      int64      `json:"ts"`
}

// grantRec records a job lease handed to a worker. The first grant for a
// job id is the carve decision that defines its [start, end) range;
// later grants for the same id are re-leases of a requeued job.
type grantRec struct {
	JobID  uint64 `json:"job_id"`
	Worker string `json:"worker"`
	Start  uint64 `json:"start"`
	End    uint64 `json:"end"`
	TS     int64  `json:"ts"`
}

// requeueRec records a lease expiry that sent a job back to the queue.
type requeueRec struct {
	JobID  uint64 `json:"job_id"`
	Worker string `json:"worker,omitempty"`
	TS     int64  `json:"ts"`
}

// resizeRec records an adaptive-sizing decision: from this point the
// worker's fresh grants are Size raw indices, estimated from Rate
// canonical candidates/sec. Replayed on resume so sizing state (and the
// heartbeat-driven part of the estimate, which is never journaled
// directly) survives a crash.
type resizeRec struct {
	Worker string  `json:"worker"`
	Size   uint64  `json:"size"`
	Rate   float64 `json:"rate"`
	TS     int64   `json:"ts"`
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

// snapJob is one carved job in a snapshot.
type snapJob struct {
	ID     uint64 `json:"id"`
	Start  uint64 `json:"start"`
	End    uint64 `json:"end"`
	Done   bool   `json:"done,omitempty"`
	Worker string `json:"worker,omitempty"`
}

// workerSnap is one worker's throughput ledger in a snapshot.
type workerSnap struct {
	ID        string  `json:"id"`
	Rate      float64 `json:"rate"`
	JobsDone  int     `json:"jobs_done"`
	Canonical uint64  `json:"canonical"`
	ElapsedNS int64   `json:"elapsed_ns"`
	LastSize  uint64  `json:"last_size"`
}

// ledgerSnap is the compacted whole-ledger state stored by snapshots.
type ledgerSnap struct {
	Begin      beginRec     `json:"begin"`
	NextStart  uint64       `json:"next_start"`
	Jobs       []snapJob    `json:"jobs"`
	Requeues   int          `json:"requeues"`
	RequeueLog []requeueRec `json:"requeue_log,omitempty"`
	Canonical  uint64       `json:"canonical"`
	Survivors  []uint64     `json:"survivors,omitempty"`
	Workers    []workerSnap `json:"workers,omitempty"`
	TS         int64        `json:"ts"`
}

// ledgerJob is a carved job as reconstructed from the journal.
type ledgerJob struct {
	id, start, end uint64
	done           bool
	worker         string
}

// ledgerState is the full sweep state a journal replay reconstructs. It
// is the single source both the coordinator's restore path and the
// read-only ReadStatus view are built from, so the two can never
// disagree about what a checkpoint contains.
type ledgerState struct {
	begin      beginRec
	jobs       []ledgerJob // index == job id
	nextStart  uint64
	doneJobs   int
	doneIdx    uint64
	requeues   int
	requeueLog []requeueRec
	canonical  uint64
	survivors  []uint64
	workers    map[string]*workerStat
	lastTS     int64 // newest record timestamp seen
}

func (ls *ledgerState) worker(id string) *workerStat {
	ws := ls.workers[id]
	if ws == nil {
		ws = &workerStat{}
		ls.workers[id] = ws
	}
	return ws
}

func (ls *ledgerState) seeTS(ts int64) {
	if ts > ls.lastTS {
		ls.lastTS = ts
	}
}

// applyDone marks one journaled completion, mirroring the live
// recordResult accounting (duplicates ignored, worker stats updated with
// the same observeDone math).
func (ls *ledgerState) applyDone(d doneRec) error {
	if d.JobID >= uint64(len(ls.jobs)) {
		return fmt.Errorf("dist: checkpoint done record for uncarved job %d", d.JobID)
	}
	j := &ls.jobs[d.JobID]
	if j.done {
		return nil
	}
	j.done = true
	j.worker = d.Worker
	ls.doneJobs++
	ls.doneIdx += j.end - j.start
	ls.canonical += d.Canonical
	ls.survivors = append(ls.survivors, d.Survivors...)
	ls.worker(d.Worker).observeDone(d.Canonical, time.Duration(d.ElapsedNS))
	ls.seeTS(d.TS)
	return nil
}

// replayLedger rebuilds the sweep state from a replayed journal:
// snapshot first, then the WAL records above its watermark. It validates
// the journal's internal consistency (version, record ordering) but not
// against any particular coordinator configuration — that is the
// caller's job, so the read-only status path can replay a checkpoint
// without knowing the sweep's spec up front.
func replayLedger(rec *journal.Recovery) (*ledgerState, error) {
	ls := &ledgerState{workers: make(map[string]*workerStat)}
	seenBegin := false
	if rec.Snapshot != nil {
		var s ledgerSnap
		if err := json.Unmarshal(rec.Snapshot, &s); err != nil {
			return nil, fmt.Errorf("dist: checkpoint snapshot: %w", err)
		}
		if err := checkVersion(s.Begin); err != nil {
			return nil, err
		}
		seenBegin = true
		ls.begin = s.Begin
		ls.nextStart = s.NextStart
		ls.requeues = s.Requeues
		ls.requeueLog = s.RequeueLog
		ls.canonical = s.Canonical
		ls.survivors = s.Survivors
		ls.jobs = make([]ledgerJob, len(s.Jobs))
		for i, sj := range s.Jobs {
			if sj.ID != uint64(i) {
				return nil, fmt.Errorf("dist: checkpoint snapshot job %d has id %d", i, sj.ID)
			}
			ls.jobs[i] = ledgerJob{id: sj.ID, start: sj.Start, end: sj.End, done: sj.Done, worker: sj.Worker}
			if sj.Done {
				ls.doneJobs++
				ls.doneIdx += sj.End - sj.Start
			}
		}
		for _, w := range s.Workers {
			ls.workers[w.ID] = &workerStat{
				rate: w.Rate, jobsDone: w.JobsDone, canonical: w.Canonical,
				elapsed: time.Duration(w.ElapsedNS), lastSize: w.LastSize,
			}
		}
		ls.seeTS(s.TS)
	}
	for _, e := range rec.Entries {
		switch e.Type {
		case recBegin:
			var b beginRec
			if err := json.Unmarshal(e.Data, &b); err != nil {
				return nil, fmt.Errorf("dist: checkpoint begin record: %w", err)
			}
			if err := checkVersion(b); err != nil {
				return nil, err
			}
			if seenBegin {
				return nil, fmt.Errorf("dist: checkpoint holds two begin records")
			}
			seenBegin = true
			ls.begin = b
			ls.seeTS(b.TS)
		case recGrant:
			var g grantRec
			if err := json.Unmarshal(e.Data, &g); err != nil {
				return nil, fmt.Errorf("dist: checkpoint grant record: %w", err)
			}
			switch {
			case g.JobID == uint64(len(ls.jobs)):
				// The carve decision for a fresh job.
				ls.jobs = append(ls.jobs, ledgerJob{id: g.JobID, start: g.Start, end: g.End, worker: g.Worker})
				if g.End > ls.nextStart {
					ls.nextStart = g.End
				}
			case g.JobID < uint64(len(ls.jobs)):
				// A re-lease of a requeued job; leases don't survive the
				// coordinator that issued them, but the holder is audit
				// state worth keeping.
				if !ls.jobs[g.JobID].done {
					ls.jobs[g.JobID].worker = g.Worker
				}
			default:
				return nil, fmt.Errorf("dist: checkpoint grant for job %d skips %d uncarved jobs",
					g.JobID, g.JobID-uint64(len(ls.jobs)))
			}
			ls.seeTS(g.TS)
		case recRequeue:
			var r requeueRec
			if err := json.Unmarshal(e.Data, &r); err != nil {
				return nil, fmt.Errorf("dist: checkpoint requeue record: %w", err)
			}
			ls.requeues++
			ls.requeueLog = appendRequeue(ls.requeueLog, r)
			ls.seeTS(r.TS)
		case recResize:
			var r resizeRec
			if err := json.Unmarshal(e.Data, &r); err != nil {
				return nil, fmt.Errorf("dist: checkpoint resize record: %w", err)
			}
			ws := ls.worker(r.Worker)
			ws.lastSize = r.Size
			if r.Rate > 0 {
				ws.rate = r.Rate
			}
			ls.seeTS(r.TS)
		case recDone:
			var d doneRec
			if err := json.Unmarshal(e.Data, &d); err != nil {
				return nil, fmt.Errorf("dist: checkpoint done record: %w", err)
			}
			if err := ls.applyDone(d); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("dist: unknown checkpoint record type %q (seq %d)", e.Type, e.Seq)
		}
	}
	if !seenBegin {
		return nil, fmt.Errorf("dist: checkpoint has no begin record (empty or foreign journal)")
	}
	return ls, nil
}

// checkVersion rejects journals written by an incompatible schema.
func checkVersion(b beginRec) error {
	if b.Version != journalVersion {
		return fmt.Errorf("dist: checkpoint journal is schema version %d, this build reads version %d",
			b.Version, journalVersion)
	}
	return nil
}

// checkBegin validates a journaled sweep identity against this
// coordinator's configuration.
func (c *Coordinator) checkBegin(b beginRec) error {
	if !b.Spec.equal(c.cfg.Spec) {
		return fmt.Errorf("dist: checkpoint is for spec %+v, coordinator configured %+v", b.Spec, c.cfg.Spec)
	}
	if b.Total != c.total {
		return fmt.Errorf("dist: checkpoint covers %d raw indices, coordinator's space has %d", b.Total, c.total)
	}
	return nil
}

// restore installs a replayed ledger into the coordinator. Jobs without
// a done record — including ones that were granted when the old
// coordinator died — go back to pending, and per-worker throughput and
// sizing state carries over so the first grants after a resume are
// already adapted.
func (c *Coordinator) restore(rec *journal.Recovery) error {
	ls, err := replayLedger(rec)
	if err != nil {
		return err
	}
	if err := c.checkBegin(ls.begin); err != nil {
		return err
	}
	if ls.begin.JobSize != c.cfg.JobSize {
		c.cfg.Logf("dist: base job size retuned from %d to %d across resume", ls.begin.JobSize, c.cfg.JobSize)
	}
	for _, k := range ls.survivors {
		p, err := poly.FromKoopman(c.cfg.Spec.Width, k)
		if err != nil {
			return fmt.Errorf("dist: checkpoint survivor %#x: %w", k, err)
		}
		c.survivors = append(c.survivors, p)
	}
	c.beginTS = ls.begin.TS
	c.nextStart = ls.nextStart
	c.requeues = ls.requeues
	c.requeueLog = ls.requeueLog
	c.canonical = ls.canonical
	c.doneIdx = ls.doneIdx
	c.doneJobs = ls.doneJobs
	c.workers = ls.workers
	c.jobs = make([]*job, len(ls.jobs))
	for i, lj := range ls.jobs {
		j := &job{id: lj.id, start: lj.start, end: lj.end, worker: lj.worker}
		if lj.done {
			j.state = jobDone
		} else {
			j.state = jobPending
			c.queue = append(c.queue, j.id)
		}
		c.jobs[i] = j
	}
	c.resumed = c.doneJobs
	return nil
}

// jnlAppendLocked appends one ledger record (c.mu held), compacting into
// a snapshot every SnapshotEvery appends. Recovery-critical records
// (begin, done) fsync before returning; carve/audit records (grants,
// requeues, resizes) are buffered and ride the next synced operation,
// keeping the per-assignment fsync off the handout hot path. Journal
// failures are reported but do not stop the sweep: the search result
// stays correct, only resumability degrades.
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
	if c.appendsSince >= c.cfg.SnapshotEvery {
		c.snapshotLocked()
	}
}

// snapshotLocked compacts the full ledger — including the carve table
// and per-worker sizing state — into the journal's snapshot (c.mu held).
func (c *Coordinator) snapshotLocked() {
	if c.jnl == nil {
		return
	}
	snap := ledgerSnap{
		Begin: beginRec{
			Version: journalVersion, Spec: c.cfg.Spec, JobSize: c.cfg.JobSize,
			Total: c.total, TS: c.beginTS,
		},
		NextStart:  c.nextStart,
		Jobs:       make([]snapJob, len(c.jobs)),
		Requeues:   c.requeues,
		RequeueLog: c.requeueLog,
		Canonical:  c.canonical,
		Survivors:  make([]uint64, len(c.survivors)),
		TS:         time.Now().UnixNano(),
	}
	for i, j := range c.jobs {
		snap.Jobs[i] = snapJob{ID: j.id, Start: j.start, End: j.end, Done: j.state == jobDone, Worker: j.worker}
	}
	for i, p := range c.survivors {
		snap.Survivors[i] = p.Koopman()
	}
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ws := c.workers[id]
		snap.Workers = append(snap.Workers, workerSnap{
			ID: id, Rate: ws.rate, JobsDone: ws.jobsDone, Canonical: ws.canonical,
			ElapsedNS: ws.elapsed.Nanoseconds(), LastSize: ws.lastSize,
		})
	}
	if err := c.jnl.Snapshot(snap); err != nil {
		c.cfg.Logf("dist: checkpoint snapshot failed: %v", err)
		return
	}
	c.appendsSince = 0
}
