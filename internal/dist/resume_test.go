package dist_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"koopmancrc"
	"koopmancrc/internal/core"
	"koopmancrc/internal/dist"
	"koopmancrc/internal/journal"
)

// computeJob runs a job's [start, end) slice through the real pipeline
// so raw protocol clients in these tests report genuine results.
func computeJob(t *testing.T, spec dist.SearchSpec, start, end uint64) (canonical uint64, survivors []uint64) {
	t.Helper()
	res, err := koopmancrc.Search(context.Background(), koopmancrc.SearchConfig{
		Width: spec.Width, MinHD: spec.MinHD, Lengths: spec.Lengths,
		StartIdx: start, EndIdx: end, Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Survivors {
		survivors = append(survivors, p.Koopman())
	}
	return res.Candidates, survivors
}

// takeJob requests an assignment and returns (job message, true), or
// (reply, false) for wait/shutdown.
func (c *rawClient) takeJob(worker string) (map[string]any, bool) {
	c.t.Helper()
	c.send(map[string]any{"type": "next", "worker": worker})
	reply := c.recv()
	return reply, reply["type"] == "job"
}

// finishJob reports a genuinely computed result for a job message and
// does not wait for the reply (the caller reads it as its next message).
func (c *rawClient) finishJob(spec dist.SearchSpec, worker string, jobMsg map[string]any) {
	c.t.Helper()
	canonical, survivors := computeJob(c.t, spec, uint64(jobMsg["start"].(float64)), uint64(jobMsg["end"].(float64)))
	c.send(map[string]any{
		"type": "result", "worker": worker, "job_id": jobMsg["job_id"],
		"canonical": canonical, "survivors": survivors,
	})
}

// TestCheckpointResumeMatchesUninterrupted is the crash/resume parity
// check: a coordinator is killed mid-sweep, a second one resumes from
// the journal, and the final Summary must equal an uninterrupted run —
// without any completed job being granted again.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()

	// Run 1: complete exactly 6 of the 16 jobs, abandon a 7th mid-job,
	// then kill the coordinator.
	coord1, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec: smallSpec, JobSize: 8, LeaseTimeout: time.Minute,
		CheckpointDir: dir, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	w1 := dialRaw(t, coord1.Addr())
	doneRun1 := make(map[uint64]bool)
	var pendingReply map[string]any
	for i := 0; i < 6; i++ {
		var jobMsg map[string]any
		if pendingReply != nil {
			jobMsg = pendingReply
		} else {
			reply, ok := w1.takeJob("mortal")
			if !ok {
				t.Fatalf("run 1 job %d: got %v, want a job", i, reply["type"])
			}
			jobMsg = reply
		}
		doneRun1[uint64(jobMsg["job_id"].(float64))] = true
		w1.finishJob(smallSpec, "mortal", jobMsg)
		reply := w1.recv() // result acts as an implicit next
		if reply["type"] == "job" {
			pendingReply = reply
		} else {
			t.Fatalf("run 1 after result: got %v, want next job", reply["type"])
		}
	}
	abandoned := uint64(pendingReply["job_id"].(float64))
	if doneRun1[abandoned] {
		t.Fatalf("job %d both done and abandoned", abandoned)
	}
	w1.conn.Close() // die holding the lease on the abandoned job
	if done, total := coord1.Progress(); done != 6*8 || total != 128 {
		t.Fatalf("run 1 progress = %d/%d indices, want 48/128", done, total)
	}
	if err := coord1.Close(); err != nil { // the "crash" (with final flush)
		t.Fatal(err)
	}

	// The journal on disk reflects exactly the six completions.
	rec, err := journal.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot == nil {
		t.Fatal("no snapshot flushed by Close")
	}

	// Run 2: resume. The test is the worker, so every re-grant is seen.
	coord2, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec: smallSpec, JobSize: 8, LeaseTimeout: time.Minute,
		CheckpointDir: dir, Resume: true, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	w2 := dialRaw(t, coord2.Addr())
	granted := make(map[uint64]int)
	var reply map[string]any
	var ok bool
	reply, ok = w2.takeJob("phoenix")
	for ok {
		id := uint64(reply["job_id"].(float64))
		granted[id]++
		w2.finishJob(smallSpec, "phoenix", reply)
		reply = w2.recv()
		ok = reply["type"] == "job"
	}
	if reply["type"] != "shutdown" {
		t.Fatalf("run 2 ended with %v, want shutdown", reply["type"])
	}

	// Exactly-once accounting: no job completed before the crash is
	// granted again, and every remaining job is granted exactly once.
	for id := range doneRun1 {
		if granted[id] != 0 {
			t.Errorf("job %d was completed before the crash but re-granted %d times", id, granted[id])
		}
	}
	if len(granted) != 16-len(doneRun1) {
		t.Errorf("resumed run granted %d distinct jobs, want %d", len(granted), 16-len(doneRun1))
	}
	for id, n := range granted {
		if n != 1 {
			t.Errorf("job %d granted %d times in the resumed run", id, n)
		}
	}
	if granted[abandoned] != 1 {
		t.Errorf("abandoned job %d granted %d times after resume, want 1", abandoned, granted[abandoned])
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	sum, err := coord2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Jobs != 16 || sum.Resumed != 6 {
		t.Errorf("jobs = %d resumed = %d, want 16 and 6", sum.Jobs, sum.Resumed)
	}
	checkMatchesSingleMachine(t, smallSpec, sum)

	// Census parity with the uninterrupted run, as the paper's Table 2
	// would be derived from the merged survivors.
	census, err := core.Census(sum.Survivors)
	if err != nil {
		t.Fatal(err)
	}
	want := singleMachine(t, smallSpec)
	if len(census) != len(want.CensusByShape) {
		t.Errorf("census has %d shapes, want %d", len(census), len(want.CensusByShape))
	}
	for shape, n := range want.CensusByShape {
		if census[shape] != n {
			t.Errorf("census[%s] = %d, want %d", shape, census[shape], n)
		}
	}
}

func TestResumeCompletedSweepYieldsSummaryImmediately(t *testing.T) {
	dir := t.TempDir()
	coord, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec: smallSpec, JobSize: 16, LeaseTimeout: time.Minute,
		CheckpointDir: dir, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := dist.NewWorker(coord.Addr(), dist.WorkerConfig{ID: "solo", Logf: t.Logf})
	if _, err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	coord.Close()

	// Resuming a finished sweep needs no workers at all.
	coord2, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec: smallSpec, JobSize: 16, LeaseTimeout: time.Minute,
		CheckpointDir: dir, Resume: true, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	sum, err := coord2.Wait(ctx2)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Resumed != sum.Jobs {
		t.Errorf("resumed = %d, want all %d jobs", sum.Resumed, sum.Jobs)
	}
	checkMatchesSingleMachine(t, smallSpec, sum)
}

func TestCheckpointGuards(t *testing.T) {
	dir := t.TempDir()
	coord, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec: smallSpec, JobSize: 8, LeaseTimeout: time.Minute, CheckpointDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord.Close()

	// A fresh (non-resume) coordinator must refuse an existing journal.
	if _, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec: smallSpec, JobSize: 8, LeaseTimeout: time.Minute, CheckpointDir: dir,
	}); err == nil {
		t.Error("fresh coordinator on an existing checkpoint should error")
	}
	// Resume must reject a different spec...
	other := smallSpec
	other.MinHD = 3
	if _, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec: other, JobSize: 8, LeaseTimeout: time.Minute, CheckpointDir: dir, Resume: true,
	}); err == nil {
		t.Error("resume with a different spec should error")
	}
	// ... and a different job size, which would renumber every job,
	// naming both sizes ...
	if _, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec: smallSpec, JobSize: 16, LeaseTimeout: time.Minute, CheckpointDir: dir, Resume: true,
	}); err == nil || !strings.Contains(err.Error(), "job size 8") || !strings.Contains(err.Error(), "job size 16") {
		t.Errorf("resume with a different job size: error %v, want one naming sizes 8 and 16", err)
	}
	// ... while JobSize 0 adopts the checkpoint's size.
	adopted, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec: smallSpec, LeaseTimeout: time.Minute, CheckpointDir: dir, Resume: true,
	})
	if err != nil {
		t.Fatalf("resume with JobSize 0 should adopt the checkpoint's size: %v", err)
	}
	w := dialRaw(t, adopted.Addr())
	if job, ok := w.takeJob("w"); !ok || job["start"] != 0.0 || job["end"] != 8.0 {
		t.Errorf("first job after a JobSize-0 resume = %v, want [0,8)", job)
	}
	w.conn.Close()
	adopted.Close()
	// ... and Resume without a checkpoint dir or without a journal.
	if _, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec: smallSpec, JobSize: 8, LeaseTimeout: time.Minute, Resume: true,
	}); err == nil {
		t.Error("Resume without CheckpointDir should error")
	}
	if _, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec: smallSpec, JobSize: 8, LeaseTimeout: time.Minute,
		CheckpointDir: t.TempDir(), Resume: true,
	}); err == nil {
		t.Error("resume of an empty journal should error")
	}
	// A fresh sweep with JobSize 0 journals 4096-index jobs.
	fresh := t.TempDir()
	coord, err = dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec: smallSpec, LeaseTimeout: time.Minute, CheckpointDir: fresh,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord.Close()
	if st, err := dist.ReadStatus(fresh); err != nil || st.JobSize != 4096 || st.TotalJobs != 1 {
		t.Errorf("fresh JobSize-0 sweep: status %+v, %v; want job size 4096 and 1 job", st, err)
	}
}

// TestHeartbeatKeepsLeaseAlive holds a job far past the lease timeout
// while heartbeating; the lease must survive and the job must not be
// requeued.
func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	coord, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec:         smallSpec,
		JobSize:      128, // the whole width-8 space: one job
		LeaseTimeout: 200 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	slow := dialRaw(t, coord.Addr())
	jobMsg, ok := slow.takeJob("tortoise")
	if !ok {
		t.Fatalf("got %v, want a job", jobMsg["type"])
	}
	if jobMsg["lease_ns"].(float64) != float64(200*time.Millisecond) {
		t.Errorf("lease_ns = %v, want %v", jobMsg["lease_ns"], float64(200*time.Millisecond))
	}
	// Hold the job for 3x the lease, heartbeating the whole time: first
	// as older workers did, with a "progress" count the coordinator no
	// longer reads, then as current workers do. Each phase alone
	// outlasts the lease, so both forms must renew it.
	for i := 0; i < 12; i++ {
		time.Sleep(50 * time.Millisecond)
		hb := map[string]any{"type": "heartbeat", "worker": "tortoise", "job_id": jobMsg["job_id"]}
		if i < 6 {
			hb["progress"] = i
		}
		slow.send(hb)
	}
	slow.finishJob(smallSpec, "tortoise", jobMsg)
	if reply := slow.recv(); reply["type"] != "shutdown" {
		t.Fatalf("after the only job: got %v, want shutdown", reply["type"])
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	sum, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Requeues != 0 {
		t.Errorf("requeues = %d, want 0 (heartbeats must renew the lease)", sum.Requeues)
	}
	checkMatchesSingleMachine(t, smallSpec, sum)
}

// TestHeartbeatFromWrongWorkerDoesNotRenew: only the lease holder can
// keep a lease alive.
func TestHeartbeatFromWrongWorkerDoesNotRenew(t *testing.T) {
	coord, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec:         smallSpec,
		JobSize:      16,
		LeaseTimeout: 80 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	victim := dialRaw(t, coord.Addr())
	jobMsg, ok := victim.takeJob("victim")
	if !ok {
		t.Fatalf("got %v, want a job", jobMsg["type"])
	}
	// An imposter heartbeats the victim's job; it must not renew.
	imposter := dialRaw(t, coord.Addr())
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
				imposter.send(map[string]any{"type": "heartbeat", "worker": "imposter", "job_id": jobMsg["job_id"]})
			}
		}
	}()
	defer close(stop)

	// A healthy worker sweeps the space, requiring the victim's job to
	// be requeued despite the imposter's heartbeats.
	w := dist.NewWorker(coord.Addr(), dist.WorkerConfig{ID: "healthy", Logf: t.Logf})
	done := make(chan error, 1)
	go func() {
		_, err := w.Run(context.Background())
		done <- err
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	sum, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if sum.Requeues < 1 {
		t.Errorf("requeues = %d, want >= 1 (imposter heartbeats must not renew the lease)", sum.Requeues)
	}
	checkMatchesSingleMachine(t, smallSpec, sum)
}

// TestWorkerSendsHeartbeats drives a real Worker from a fake coordinator
// and observes mid-job heartbeat messages on the wire.
func TestWorkerSendsHeartbeats(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	type outcome struct {
		heartbeats int
		resultID   float64
		err        error
	}
	got := make(chan outcome, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			got <- outcome{err: err}
			return
		}
		defer conn.Close()
		// A json.Decoder, not a bufio.Scanner: the width-16 result line
		// carries ~16k survivors, far past Scanner's 64KB token cap.
		dec := json.NewDecoder(bufio.NewReader(conn))
		enc := json.NewEncoder(conn)
		var o outcome
		for {
			var m map[string]any
			if err := dec.Decode(&m); err != nil {
				o.err = err
				break
			}
			switch m["type"] {
			case "next":
				// One slow job: the full width-16 space (>100ms
				// sequential) with a 30ms lease, so the worker's
				// lease/3 heartbeat cadence must fire mid-job even on
				// a single-CPU host where the compute goroutine only
				// yields at preemption granularity (~10ms).
				enc.Encode(map[string]any{
					"type": "job", "job_id": 7, "start": 0, "end": 32768,
					"spec":     map[string]any{"width": 16, "min_hd": 4, "lengths": []int{17, 34}},
					"lease_ns": int64(30 * time.Millisecond),
				})
			case "heartbeat":
				if id := m["job_id"].(float64); id != 7 {
					o.err = fmt.Errorf("heartbeat for job %v, want 7", id)
				}
				o.heartbeats++
			case "result":
				o.resultID = m["job_id"].(float64)
				enc.Encode(map[string]any{"type": "shutdown"})
				got <- o
				return
			}
		}
		got <- o
	}()

	w := dist.NewWorker(ln.Addr().String(), dist.WorkerConfig{ID: "hb", Parallelism: 1, Logf: t.Logf})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	jobs, err := w.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if jobs != 1 {
		t.Errorf("worker completed %d jobs, want 1", jobs)
	}
	o := <-got
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.resultID != 7 {
		t.Errorf("result for job %v, want 7", o.resultID)
	}
	if o.heartbeats < 1 {
		t.Errorf("observed %d mid-job heartbeats, want >= 1", o.heartbeats)
	}
	t.Logf("observed %d heartbeats during the job", o.heartbeats)
}

// sweepInOrder completes every job of a coordinator in id order through
// one raw client, each result computed for real.
func sweepInOrder(t *testing.T, coord *dist.Coordinator, spec dist.SearchSpec, worker string) {
	t.Helper()
	c := dialRaw(t, coord.Addr())
	defer c.conn.Close()
	reply, ok := c.takeJob(worker)
	for want := 0.0; ok; want++ {
		if reply["job_id"] != want {
			t.Fatalf("granted job %v, want %v", reply["job_id"], want)
		}
		c.finishJob(spec, worker, reply)
		reply = c.recv()
		ok = reply["type"] == "job"
	}
	if reply["type"] != "shutdown" {
		t.Fatalf("sweep ended with %v, want shutdown", reply["type"])
	}
}

// withoutTimes clears the parts of a Status that record when the sweep ran.
func withoutTimes(st *dist.Status) *dist.Status {
	st.Started, st.LastActivity, st.Active, st.IndexRate, st.ETA = time.Time{}, time.Time{}, 0, 0, 0
	return st
}

// TestResumeWithHolesMatchesUninterrupted: jobs done above a job that is
// not done survive a crash, both in the WAL and in the snapshot, and the
// resumed coordinator grants exactly the jobs that are not done, in
// ascending order, reaching the Summary and status of an uninterrupted
// run.
func TestResumeWithHolesMatchesUninterrupted(t *testing.T) {
	cfg := dist.CoordinatorConfig{Spec: smallSpec, JobSize: 8, LeaseTimeout: time.Minute, Logf: t.Logf}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	cfg.CheckpointDir = t.TempDir()
	whole, err := dist.NewCoordinator("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	sweepInOrder(t, whole, smallSpec, "w")
	wantSum, err := whole.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	whole.Close()
	wantSt, err := dist.ReadStatus(cfg.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}

	// Lease jobs 0 and 1 at once, finish 1, 2 and 3, and die holding 0
	// and 4: the watermark stays at 0 with jobs 1-3 done above it.
	cfg.CheckpointDir = t.TempDir()
	coord1, err := dist.NewCoordinator("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := dialRaw(t, coord1.Addr())
	if job, ok := c.takeJob("w"); !ok || job["job_id"] != 0.0 {
		t.Fatalf("first grant %v, want job 0", job)
	}
	job, _ := c.takeJob("w")
	for want := 1.0; want <= 4; want++ {
		if job["job_id"] != want {
			t.Fatalf("granted %v, want job %v", job["job_id"], want)
		}
		if want == 4 {
			break
		}
		c.finishJob(smallSpec, "w", job)
		job = c.recv()
	}
	c.conn.Close()
	// The live coordinator has not compacted yet: this status replays
	// the WAL's done records.
	fromWAL, err := dist.ReadStatus(cfg.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	coord1.Close() // compacts the ledger into a snapshot
	fromSnap, err := dist.ReadStatus(cfg.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*dist.Status{fromWAL, fromSnap} {
		if st.DoneJobs != 3 || st.PendingJobs != 13 || st.DoneIndices != 24 || st.Complete {
			t.Errorf("status with holes = %d done / %d pending jobs, %d indices, complete %v; want 3/13/24, false",
				st.DoneJobs, st.PendingJobs, st.DoneIndices, st.Complete)
		}
	}

	coord2, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec: smallSpec, LeaseTimeout: time.Minute, CheckpointDir: cfg.CheckpointDir, Resume: true, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	c = dialRaw(t, coord2.Addr())
	var granted []float64
	job, ok := c.takeJob("w")
	for ok {
		granted = append(granted, job["job_id"].(float64))
		c.finishJob(smallSpec, "w", job)
		job = c.recv()
		ok = job["type"] == "job"
	}
	c.conn.Close()
	want := []float64{0, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	if !slices.Equal(granted, want) {
		t.Errorf("resumed grants %v, want %v", granted, want)
	}
	sum, err := coord2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	coord2.Close()
	if sum.Resumed != 3 {
		t.Errorf("resumed %d jobs, want 3", sum.Resumed)
	}
	sum.Resumed, sum.Elapsed, wantSum.Elapsed = 0, 0, 0
	if !reflect.DeepEqual(sum, wantSum) {
		t.Errorf("resumed summary %+v, uninterrupted %+v", sum, wantSum)
	}
	st, err := dist.ReadStatus(cfg.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	// Elapsed times are zero on both sides: finishJob reports none.
	if got, want := withoutTimes(st), withoutTimes(wantSt); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed status %+v, uninterrupted %+v", got, want)
	}
}

// TestSnapshotSizeIndependentOfJobCount: the snapshot holds a watermark
// and the done ids above it, not a table with one entry per job, so an
// in-order sweep of 4096 one-index jobs compacts to nearly the same size
// as one of 256.
func TestSnapshotSizeIndependentOfJobCount(t *testing.T) {
	size := func(width int) int64 {
		t.Helper()
		dir := t.TempDir()
		coord, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
			Spec:    dist.SearchSpec{Width: width, MinHD: 4, Lengths: []int{width + 1}},
			JobSize: 1, LeaseTimeout: time.Minute, CheckpointDir: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		c := dialRaw(t, coord.Addr())
		defer c.conn.Close()
		// Synthetic results keep the survivor list, which does grow
		// with the sweep, out of the comparison.
		jobs := 0
		for reply, ok := c.takeJob("w"); ok; ok = reply["type"] == "job" {
			c.send(map[string]any{"type": "result", "worker": "w", "job_id": reply["job_id"], "canonical": 1})
			reply = c.recv()
			jobs++
		}
		if want := 1 << (width - 1); jobs != want {
			t.Fatalf("width %d swept %d jobs, want %d", width, jobs, want)
		}
		coord.Close()
		fi, err := os.Stat(filepath.Join(dir, "snapshot.jlog"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	small, large := size(9), size(13)
	t.Logf("snapshot after 256 jobs: %d B, after 4096 jobs: %d B", small, large)
	if large-small >= 1024 {
		t.Errorf("snapshot grew from %d B to %d B between 256 and 4096 jobs, want < 1 KB apart", small, large)
	}
}
