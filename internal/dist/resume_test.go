package dist_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
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
	// ... but a retuned base job size is fine: every job's range is
	// journaled with its grant, so the carve no longer has to match.
	retuned, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec: smallSpec, JobSize: 16, LeaseTimeout: time.Minute, CheckpointDir: dir, Resume: true,
	})
	if err != nil {
		t.Errorf("resume with a retuned job size should succeed: %v", err)
	} else {
		retuned.Close()
	}
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
	// Hold the job for 3x the lease, heartbeating the whole time.
	for i := 0; i < 12; i++ {
		time.Sleep(50 * time.Millisecond)
		slow.send(map[string]any{"type": "heartbeat", "worker": "tortoise", "job_id": jobMsg["job_id"]})
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
