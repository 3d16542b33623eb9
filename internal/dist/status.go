package dist

import (
	"time"

	"koopmancrc/internal/journal"
)

// WorkerStatus is one worker's journal-reconstructed ledger.
type WorkerStatus struct {
	// ID is the worker's self-reported id.
	ID string `json:"id"`
	// JobsDone is how many jobs this worker completed.
	JobsDone int `json:"jobs_done"`
	// Canonical is the candidate count across those jobs.
	Canonical uint64 `json:"canonical"`
	// Compute is the summed per-job compute time the worker reported.
	Compute time.Duration `json:"compute_ns"`
}

// RequeueEvent is one journaled lease expiry.
type RequeueEvent struct {
	// JobID is the job that went back to the queue.
	JobID uint64 `json:"job_id"`
	// Worker held the expired lease.
	Worker string `json:"worker"`
	// Time is when the coordinator requeued the job.
	Time time.Time `json:"time"`
}

// Status is the read-only view of a checkpointed sweep, reconstructed
// purely from the journal: ReadStatus never contacts (or interferes
// with) a running coordinator, and because it replays the same ledger
// the resume path does, its counts always match what a resumed
// coordinator would start from.
type Status struct {
	// Spec identifies the sweep.
	Spec SearchSpec `json:"spec"`
	// JobSize is the journaled job size in raw indices.
	JobSize uint64 `json:"job_size"`
	// TotalIndices is the raw size of the search space.
	TotalIndices uint64 `json:"total_indices"`
	// TotalJobs / DoneJobs / PendingJobs count the JobSize slices the
	// space is cut into, those completed and those still owed.
	TotalJobs   int `json:"total_jobs"`
	DoneJobs    int `json:"done_jobs"`
	PendingJobs int `json:"pending_jobs"`
	// DoneIndices counts the raw indices covered by done jobs.
	DoneIndices uint64 `json:"done_indices"`
	// Canonical counts candidates evaluated; Survivors counts
	// polynomials that passed every filter so far.
	Canonical uint64 `json:"canonical"`
	Survivors int    `json:"survivors"`
	// Requeues is the exact lease-expiry total; RequeueLog holds the
	// most recent requeueLogCap events with holders and times.
	Requeues   int            `json:"requeues"`
	RequeueLog []RequeueEvent `json:"requeue_log,omitempty"`
	// Workers lists per-worker ledgers, sorted by id.
	Workers []WorkerStatus `json:"workers"`
	// Started is when the sweep first began (preserved across
	// resumes); LastActivity is the newest journal record. Active is
	// the span between them — journal-observed sweep time, which for a
	// suspended sweep excludes nothing but is the best ETA base the
	// journal alone can offer.
	Started      time.Time     `json:"started"`
	LastActivity time.Time     `json:"last_activity"`
	Active       time.Duration `json:"active_ns"`
	// IndexRate is the sweep-wide throughput in raw indices per second
	// over Active; ETA extrapolates it over the uncovered remainder.
	// Both are zero when the journal holds too little to estimate.
	IndexRate float64       `json:"index_rate"`
	ETA       time.Duration `json:"eta_ns"`
	// Complete reports whether the space is fully covered.
	Complete bool `json:"complete"`
}

// ReadStatus replays a checkpoint directory without opening it for
// writing and reports sweep progress, per-worker work, requeue
// history and an ETA. Safe to run against the checkpoint of a live
// coordinator: it reads whatever is durable on disk and mutates
// nothing.
func ReadStatus(dir string) (*Status, error) {
	rec, err := journal.Read(dir)
	if err != nil {
		return nil, err
	}
	ls, err := replayLedger(rec)
	if err != nil {
		return nil, err
	}
	st := &Status{
		Spec:         ls.begin.Spec,
		JobSize:      ls.begin.JobSize,
		TotalIndices: ls.begin.Total,
		TotalJobs:    int(ls.totalJobs()),
		DoneJobs:     int(ls.doneJobs()),
		DoneIndices:  ls.doneIdx,
		Canonical:    ls.canonical,
		Survivors:    len(ls.survivors),
		Requeues:     ls.requeues,
		Started:      time.Unix(0, ls.begin.TS),
		LastActivity: time.Unix(0, ls.lastTS),
		Complete:     ls.complete(),
	}
	st.PendingJobs = st.TotalJobs - st.DoneJobs
	for _, r := range ls.requeueLog {
		st.RequeueLog = append(st.RequeueLog, RequeueEvent{JobID: r.JobID, Worker: r.Worker, Time: time.Unix(0, r.TS)})
	}
	for _, id := range ls.workerIDs() {
		ws := ls.workers[id]
		st.Workers = append(st.Workers, WorkerStatus{
			ID: id, JobsDone: ws.jobsDone, Canonical: ws.canonical, Compute: ws.elapsed,
		})
	}
	if ls.lastTS > ls.begin.TS {
		st.Active = time.Duration(ls.lastTS - ls.begin.TS)
	}
	if st.Active > 0 && st.DoneIndices > 0 {
		st.IndexRate = float64(st.DoneIndices) / st.Active.Seconds()
		remaining := st.TotalIndices - st.DoneIndices
		if st.IndexRate > 0 && remaining > 0 {
			st.ETA = time.Duration(float64(remaining) / st.IndexRate * float64(time.Second))
		}
	}
	return st, nil
}
