package dist_test

import (
	"context"
	"testing"
	"time"

	"koopmancrc/internal/dist"
)

// TestStatusMatchesResumedLedger is the acceptance check for the
// read-only status view: the counts ReadStatus reports from a mid-sweep
// checkpoint must exactly match the ledger a resumed coordinator
// reconstructs from the same journal.
func TestStatusMatchesResumedLedger(t *testing.T) {
	dir := t.TempDir()
	coord1, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec: smallSpec, JobSize: 8, LeaseTimeout: time.Minute,
		CheckpointDir: dir, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Complete five jobs, abandon a sixth mid-lease, then "crash".
	w1 := dialRaw(t, coord1.Addr())
	var wantCanonical uint64
	var wantSurvivors int
	var pending map[string]any
	for i := 0; i < 5; i++ {
		var jobMsg map[string]any
		if pending != nil {
			jobMsg = pending
			pending = nil
		} else {
			reply, ok := w1.takeJob("mortal")
			if !ok {
				t.Fatalf("job %d: got %v, want a job", i, reply["type"])
			}
			jobMsg = reply
		}
		canonical, survivors := computeJob(t, smallSpec,
			uint64(jobMsg["start"].(float64)), uint64(jobMsg["end"].(float64)))
		wantCanonical += canonical
		wantSurvivors += len(survivors)
		w1.send(map[string]any{
			"type": "result", "worker": "mortal", "job_id": jobMsg["job_id"],
			"canonical": canonical, "survivors": survivors,
			"elapsed_ns": int64(50 * time.Millisecond),
		})
		reply := w1.recv()
		if reply["type"] != "job" {
			t.Fatalf("after result %d: got %v, want next job", i, reply["type"])
		}
		pending = reply
	}
	w1.conn.Close() // abandon the sixth job mid-lease
	if err := coord1.Close(); err != nil {
		t.Fatal(err)
	}

	// The read-only view of the orphaned checkpoint.
	st, err := dist.ReadStatus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Spec.Width != smallSpec.Width || st.Spec.MinHD != smallSpec.MinHD {
		t.Errorf("status spec = %+v, want %+v", st.Spec, smallSpec)
	}
	if st.TotalIndices != 128 || st.JobSize != 8 {
		t.Errorf("status space = %d indices / job size %d, want 128 / 8", st.TotalIndices, st.JobSize)
	}
	if st.TotalJobs != 16 || st.DoneJobs != 5 || st.PendingJobs != 11 {
		t.Errorf("status jobs = %d total / %d done / %d pending, want 16/5/11",
			st.TotalJobs, st.DoneJobs, st.PendingJobs)
	}
	if st.DoneIndices != 40 {
		t.Errorf("status indices = %d done, want 40", st.DoneIndices)
	}
	if st.Canonical != wantCanonical {
		t.Errorf("status canonical = %d, want %d", st.Canonical, wantCanonical)
	}
	if st.Survivors != wantSurvivors {
		t.Errorf("status survivors = %d, want %d", st.Survivors, wantSurvivors)
	}
	if st.Complete {
		t.Error("status reports a mid-sweep checkpoint as complete")
	}
	if len(st.Workers) != 1 || st.Workers[0].ID != "mortal" {
		t.Fatalf("status workers = %+v, want exactly [mortal]", st.Workers)
	}
	ws := st.Workers[0]
	if ws.JobsDone != 5 || ws.Canonical != wantCanonical {
		t.Errorf("worker status = %d jobs / %d canonical, want 5 / %d", ws.JobsDone, ws.Canonical, wantCanonical)
	}
	if ws.Compute != 5*50*time.Millisecond {
		t.Errorf("worker compute = %v, want 250ms", ws.Compute)
	}
	if st.IndexRate <= 0 || st.ETA <= 0 {
		t.Errorf("IndexRate = %v ETA = %v, want both > 0 mid-sweep", st.IndexRate, st.ETA)
	}

	// The resumed coordinator must agree with the status view exactly.
	coord2, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec: smallSpec, JobSize: 8, LeaseTimeout: time.Minute,
		CheckpointDir: dir, Resume: true, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	if done, total := coord2.Progress(); done != st.DoneIndices || total != st.TotalIndices {
		t.Errorf("resumed Progress = %d/%d, status said %d/%d", done, total, st.DoneIndices, st.TotalIndices)
	}

	w2 := dist.NewWorker(coord2.Addr(), dist.WorkerConfig{ID: "phoenix", Logf: t.Logf})
	if _, err := w2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	sum, err := coord2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Resumed != st.DoneJobs {
		t.Errorf("resumed coordinator restored %d jobs, status said %d were done", sum.Resumed, st.DoneJobs)
	}
	checkMatchesSingleMachine(t, smallSpec, sum)
	coord2.Close()

	// After completion the status view must agree with the Summary.
	final, err := dist.ReadStatus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Complete {
		t.Error("final status not marked complete")
	}
	if final.DoneIndices != final.TotalIndices || final.DoneJobs != final.TotalJobs || final.PendingJobs != 0 {
		t.Errorf("final status = %d/%d indices, %d/%d jobs done, %d pending",
			final.DoneIndices, final.TotalIndices, final.DoneJobs, final.TotalJobs, final.PendingJobs)
	}
	if final.Canonical != sum.Canonical {
		t.Errorf("final status canonical = %d, summary has %d", final.Canonical, sum.Canonical)
	}
	if final.Survivors != len(sum.Survivors) {
		t.Errorf("final status survivors = %d, summary has %d", final.Survivors, len(sum.Survivors))
	}
	if final.DoneJobs != sum.Jobs {
		t.Errorf("final status jobs = %d, summary has %d", final.DoneJobs, sum.Jobs)
	}
	if final.Requeues != sum.Requeues {
		t.Errorf("final status requeues = %d, summary has %d", final.Requeues, sum.Requeues)
	}
}

// TestStatusReportsRequeueHistory: lease expiries show up in the status
// view with the job and the worker that lost it.
func TestStatusReportsRequeueHistory(t *testing.T) {
	dir := t.TempDir()
	coord, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec: smallSpec, JobSize: 16, LeaseTimeout: 50 * time.Millisecond,
		CheckpointDir: dir, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	victim := dialRaw(t, coord.Addr())
	jobMsg, ok := victim.takeJob("victim")
	if !ok {
		t.Fatalf("got %v, want a job", jobMsg["type"])
	}
	victim.conn.Close() // die holding the lease

	w := dist.NewWorker(coord.Addr(), dist.WorkerConfig{ID: "healthy", Logf: t.Logf})
	if _, err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	sum, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Requeues < 1 {
		t.Fatalf("requeues = %d, want >= 1", sum.Requeues)
	}
	coord.Close()

	st, err := dist.ReadStatus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requeues != sum.Requeues {
		t.Errorf("status requeues = %d, summary has %d", st.Requeues, sum.Requeues)
	}
	if len(st.RequeueLog) == 0 {
		t.Fatal("status requeue log is empty")
	}
	found := false
	for _, rq := range st.RequeueLog {
		if rq.Worker == "victim" && rq.JobID == uint64(jobMsg["job_id"].(float64)) {
			found = true
			if rq.Time.IsZero() {
				t.Error("requeue event has no timestamp")
			}
		}
	}
	if !found {
		t.Errorf("requeue log %+v does not name the victim's job", st.RequeueLog)
	}
}

// TestStatusErrors: a missing directory and a directory with no journal
// both fail loudly instead of reporting an empty sweep.
func TestStatusErrors(t *testing.T) {
	if _, err := dist.ReadStatus("/nonexistent/checkpoint/dir"); err == nil {
		t.Error("ReadStatus on a missing directory should error")
	}
	if _, err := dist.ReadStatus(t.TempDir()); err == nil {
		t.Error("ReadStatus on an empty directory should error")
	}
}

// TestProgressAcrossRequeueAndResumeDoesNotDoubleCount: the "progress"
// count older workers send in heartbeats is never ledger state. A
// worker that heartbeats progress, loses its lease and keeps
// heartbeating stale counts must not perturb the sweep's accounting —
// across the requeue and across a checkpoint resume.
func TestProgressAcrossRequeueAndResumeDoesNotDoubleCount(t *testing.T) {
	dir := t.TempDir()
	coord1, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec: smallSpec, JobSize: 16, LeaseTimeout: 60 * time.Millisecond,
		CheckpointDir: dir, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The doomed worker takes a job, reports some progress, then goes
	// silent until its lease expires.
	doomed := dialRaw(t, coord1.Addr())
	jobMsg, ok := doomed.takeJob("doomed")
	if !ok {
		t.Fatalf("got %v, want a job", jobMsg["type"])
	}
	doomed.send(map[string]any{"type": "heartbeat", "worker": "doomed", "job_id": jobMsg["job_id"], "progress": 7})
	time.Sleep(200 * time.Millisecond) // lease expires; the job is requeued

	// Stale heartbeats with inflated progress after losing the lease:
	// ignored — no lease renewal, no ledger contribution.
	for i := 0; i < 3; i++ {
		doomed.send(map[string]any{"type": "heartbeat", "worker": "doomed", "job_id": jobMsg["job_id"], "progress": 99999})
		time.Sleep(10 * time.Millisecond)
	}
	if done, _ := coord1.Progress(); done != 0 {
		t.Errorf("Progress counts %d indices done, want 0 — heartbeat progress is not completion", done)
	}
	if err := coord1.Close(); err != nil { // crash with the requeue journaled
		t.Fatal(err)
	}

	// Status from the orphaned journal: the requeue is visible, but no
	// progress leaked into the candidate accounting.
	st, err := dist.ReadStatus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.DoneJobs != 0 || st.DoneIndices != 0 || st.Canonical != 0 {
		t.Errorf("status after in-flight-only progress = %d jobs / %d indices / %d canonical, want all 0",
			st.DoneJobs, st.DoneIndices, st.Canonical)
	}
	if st.Requeues < 1 {
		t.Errorf("status requeues = %d, want >= 1", st.Requeues)
	}

	// Resume and finish with a healthy worker: the abandoned job's
	// candidates are counted exactly once.
	coord2, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec: smallSpec, JobSize: 16, LeaseTimeout: time.Minute,
		CheckpointDir: dir, Resume: true, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	w := dist.NewWorker(coord2.Addr(), dist.WorkerConfig{ID: "healthy", Logf: t.Logf})
	if _, err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	sum, err := coord2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Resumed != 0 {
		t.Errorf("resumed = %d jobs, want 0 (nothing was completed before the crash)", sum.Resumed)
	}
	checkMatchesSingleMachine(t, smallSpec, sum)
}
