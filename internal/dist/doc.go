// Package dist implements the paper's §4.2 distributed design-space
// search: the 2^30 canonical 32-bit candidates were filtered on ~50 idle
// workstations over three months by handing out slices of the space and
// recombining partial results.
//
// A Coordinator cuts a core.Space into fixed jobs — job i is the raw
// index slice [i·JobSize, min((i+1)·JobSize, total)) — and serves them
// to Workers over a line-delimited JSON TCP protocol. Each assignment
// carries a lease; workers renew their lease with mid-job heartbeats, so
// expiry means a worker died or hung — not that a healthy worker is
// slow — and expired jobs are requeued automatically, with duplicate
// results from slow workers discarded so no candidate is lost or
// double-counted. A straggler holds up the sweep's tail by at most one
// job. Every worker filters its jobs with the same core.Pipeline engine
// as the local koopmancrc.Search path — including the intra-machine
// worker-pool fan-out, so one dist worker per machine saturates all of
// its cores. Completed jobs merge into a Summary — candidate count and
// survivors, equal to one single-machine run — once the whole space is
// covered.
//
// With CoordinatorConfig.CheckpointDir set, the coordinator layers the
// internal/journal write-ahead log under its ledger: completions and
// requeues are journaled as they happen and periodically compacted into
// snapshots. Grants are not journaled; a lease dies with the coordinator
// that issued it. Because job ids fix job ranges, the ledger is a done
// watermark plus the done ids above it, and a snapshot's size tracks
// out-of-order completions, workers and survivors rather than the number
// of jobs. A crashed or interrupted coordinator restarts with Resume,
// which reconstructs the done jobs, partial survivors and per-worker
// counts from disk and grants every job that is not done again, in
// ascending order, with exactly-once accounting — completed jobs are
// never re-granted. ReadStatus replays the same ledger read-only, so an
// operator can report done/pending jobs, per-worker work, requeue
// history and an ETA from the journal without touching a running
// coordinator; because status and resume share one replay path, the two
// views cannot disagree.
//
// The wire protocol is a strict request/response exchange initiated by
// the worker (heartbeats being the one fire-and-forget exception): each
// completed job travels as one result message, which also asks for the
// next job; see protocol.go. cmd/crcsearch exposes all of it (-mode
// coord | worker | status, with -jobsize and -checkpoint/-resume) and
// examples/distsearch runs the whole architecture in-process over
// localhost, including a mid-sweep coordinator kill, a read-only status
// inspection of the orphaned journal, and a resume.
package dist
