package dist_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"koopmancrc"
	"koopmancrc/internal/dist"
)

// smallSpec is a search small enough for in-process tests: the complete
// width-8 space (128 raw indices, 72 canonical candidates).
var smallSpec = dist.SearchSpec{Width: 8, MinHD: 4, Lengths: []int{9, 19}}

func singleMachine(t *testing.T, spec dist.SearchSpec) *koopmancrc.SearchResult {
	t.Helper()
	res, err := koopmancrc.Search(context.Background(), koopmancrc.SearchConfig{
		Width: spec.Width, MinHD: spec.MinHD, Lengths: spec.Lengths,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func checkMatchesSingleMachine(t *testing.T, spec dist.SearchSpec, sum *dist.Summary) {
	t.Helper()
	want := singleMachine(t, spec)
	if sum.Canonical != want.Candidates {
		t.Errorf("canonical = %d, want %d (candidates lost or double-counted)", sum.Canonical, want.Candidates)
	}
	if len(sum.Survivors) != len(want.Survivors) {
		t.Fatalf("%d survivors, single machine found %d", len(sum.Survivors), len(want.Survivors))
	}
	for i := range sum.Survivors {
		if sum.Survivors[i] != want.Survivors[i] {
			t.Errorf("survivor %d = %v, single machine has %v", i, sum.Survivors[i], want.Survivors[i])
		}
	}
}

func TestCoordinatorThreeWorkersMatchesSingleMachine(t *testing.T) {
	coord, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec:         smallSpec,
		JobSize:      8, // 16 jobs across 3 workers
		LeaseTimeout: 30 * time.Second,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	var wg sync.WaitGroup
	jobs := make([]int, 3)
	for i, id := range []string{"alpha", "beta", "gamma"} {
		w := dist.NewWorker(coord.Addr(), dist.WorkerConfig{ID: id, Logf: t.Logf})
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, err := w.Run(context.Background())
			if err != nil {
				t.Errorf("worker %s: %v", id, err)
			}
			jobs[i] = n
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	sum, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if sum.Jobs != 16 {
		t.Errorf("jobs = %d, want 16", sum.Jobs)
	}
	if sum.Requeues != 0 {
		t.Errorf("requeues = %d, want 0 (no worker died)", sum.Requeues)
	}
	total := 0
	for _, n := range jobs {
		total += n
	}
	if total != sum.Jobs {
		t.Errorf("workers completed %d jobs, coordinator has %d", total, sum.Jobs)
	}
	checkMatchesSingleMachine(t, smallSpec, sum)
}

// TestBatchedWorkerMatchesSingleMachine drives a full sweep of many tiny
// jobs, the traffic result batching used to coalesce, through one
// worker: each result is its own message that also asks for the next
// job, and the merged summary must be identical to a single-machine run.
func TestBatchedWorkerMatchesSingleMachine(t *testing.T) {
	coord, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec:         smallSpec,
		JobSize:      4, // 32 jobs
		LeaseTimeout: 30 * time.Second,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	w := dist.NewWorker(coord.Addr(), dist.WorkerConfig{ID: "plain", Logf: t.Logf})
	type ran struct {
		n   int
		err error
	}
	done := make(chan ran, 1)
	go func() {
		n, err := w.Run(context.Background())
		done <- ran{n, err}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	sum, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("worker: %v", r.err)
	}
	checkMatchesSingleMachine(t, smallSpec, sum)
	if sum.Jobs != 32 || r.n != 32 {
		t.Errorf("coordinator has %d jobs and the worker completed %d, want 32 each", sum.Jobs, r.n)
	}
}

// TestBatchingDisabledSendsPlainResults plays an older coordinator that
// advertises batching ("batch_ok":true on every job) over the whole
// width-8 space in 16 jobs. The worker must ignore the offer and answer
// each job with one plain result for that job, and the results must sum
// to a single-machine run.
func TestBatchingDisabledSendsPlainResults(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	w := dist.NewWorker(ln.Addr().String(), dist.WorkerConfig{ID: "plain", Logf: t.Logf})
	type ran struct {
		n   int
		err error
	}
	done := make(chan ran, 1)
	go func() {
		n, err := w.Run(context.Background())
		done <- ran{n, err}
	}()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(time.Minute))
	old := &rawClient{t: t, conn: conn, sc: bufio.NewScanner(conn), enc: json.NewEncoder(conn)}
	if m := old.recv(); m["type"] != "next" {
		t.Fatalf("worker opened with %v, want next", m)
	}

	const total, jobSize = 128, 8
	var canonical uint64
	var survivors []uint64
	for id := uint64(0); id < total/jobSize; id++ {
		old.send(map[string]any{
			"type": "job", "spec": smallSpec, "job_id": id,
			"start": id * jobSize, "end": (id + 1) * jobSize, "batch_ok": true,
		})
		m := old.recv()
		if m["type"] != "result" || m["job_id"] != float64(id) {
			t.Fatalf("job %d answered with %v, want a plain result for it", id, m)
		}
		canonical += uint64(m["canonical"].(float64))
		if s, ok := m["survivors"].([]any); ok {
			for _, v := range s {
				survivors = append(survivors, uint64(v.(float64)))
			}
		}
	}
	old.send(map[string]any{"type": "shutdown"})
	r := <-done
	if r.err != nil {
		t.Fatalf("worker: %v", r.err)
	}
	if r.n != total/jobSize {
		t.Errorf("worker completed %d jobs, want %d", r.n, total/jobSize)
	}

	want := singleMachine(t, smallSpec)
	if canonical != want.Candidates {
		t.Errorf("canonical = %d, want %d", canonical, want.Candidates)
	}
	if len(survivors) != len(want.Survivors) {
		t.Fatalf("%d survivors, single machine found %d", len(survivors), len(want.Survivors))
	}
	slices.Sort(survivors)
	for i, p := range want.Survivors {
		if survivors[i] != p.Koopman() {
			t.Errorf("survivor %d = %#x, single machine has %#x", i, survivors[i], p.Koopman())
		}
	}
}

// rawClient speaks the wire protocol directly so tests can misbehave in
// ways a real Worker never would.
type rawClient struct {
	t    *testing.T
	conn net.Conn
	sc   *bufio.Scanner
	enc  *json.Encoder
}

func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return &rawClient{t: t, conn: conn, sc: bufio.NewScanner(conn), enc: json.NewEncoder(conn)}
}

func (c *rawClient) send(m map[string]any) {
	c.t.Helper()
	if err := c.enc.Encode(m); err != nil {
		c.t.Fatal(err)
	}
}

func (c *rawClient) recv() map[string]any {
	c.t.Helper()
	if !c.sc.Scan() {
		c.t.Fatalf("connection closed: %v", c.sc.Err())
	}
	var m map[string]any
	if err := json.Unmarshal(c.sc.Bytes(), &m); err != nil {
		c.t.Fatal(err)
	}
	return m
}

func TestLeaseRequeueAfterWorkerDeath(t *testing.T) {
	coord, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec:         smallSpec,
		JobSize:      16,
		LeaseTimeout: 50 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// A "worker" takes a job and dies without reporting it.
	victim := dialRaw(t, coord.Addr())
	victim.send(map[string]any{"type": "next", "worker": "victim"})
	reply := victim.recv()
	if reply["type"] != "job" {
		t.Fatalf("victim got %v, want a job", reply["type"])
	}
	victim.conn.Close()

	// A healthy worker sweeps the space, including the requeued job.
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
		t.Errorf("requeues = %d, want >= 1 (victim's lease must expire)", sum.Requeues)
	}
	checkMatchesSingleMachine(t, smallSpec, sum)
}

func TestStaleResultAfterRequeueIsNotDoubleCounted(t *testing.T) {
	coord, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec:         smallSpec,
		JobSize:      16,
		LeaseTimeout: 50 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// A slow worker takes a job and holds it past its lease.
	slow := dialRaw(t, coord.Addr())
	slow.send(map[string]any{"type": "next", "worker": "slow"})
	job := slow.recv()
	if job["type"] != "job" {
		t.Fatalf("slow worker got %v, want a job", job["type"])
	}

	// A healthy worker finishes the whole space, including the requeued
	// copy of the slow worker's job.
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

	// The slow worker finally reports a bogus duplicate; it must be
	// ignored, not merged on top of the completed summary.
	slow.send(map[string]any{
		"type": "result", "worker": "slow", "job_id": job["job_id"],
		"canonical": 9999, "survivors": []uint64{1 << (smallSpec.Width - 1)},
	})
	if reply := slow.recv(); reply["type"] != "shutdown" {
		t.Errorf("stale result reply = %v, want shutdown", reply["type"])
	}
	if sum.Requeues < 1 {
		t.Errorf("requeues = %d, want >= 1", sum.Requeues)
	}
	checkMatchesSingleMachine(t, smallSpec, sum)
}

func TestCloseUnblocksWait(t *testing.T) {
	coord, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec: smallSpec, JobSize: 16, LeaseTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() {
		_, err := coord.Wait(context.Background())
		waitErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // let Wait block
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-waitErr:
		if err == nil {
			t.Error("Wait on a closed, incomplete coordinator should error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock Wait")
	}
}

func TestWaitHonoursContext(t *testing.T) {
	coord, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec: smallSpec, JobSize: 16, LeaseTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := coord.Wait(ctx); err == nil {
		t.Error("Wait should return the context error when no workers connect")
	}
}

func TestCoordinatorValidation(t *testing.T) {
	if _, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec: dist.SearchSpec{Width: 99, MinHD: 4, Lengths: []int{8}},
	}); err == nil {
		t.Error("bad width should error")
	}
	if _, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec: dist.SearchSpec{Width: 8, MinHD: 1, Lengths: []int{8}},
	}); err == nil {
		t.Error("bad MinHD should error")
	}
	if _, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec: dist.SearchSpec{Width: 8, MinHD: 4},
	}); err == nil {
		t.Error("missing lengths should error")
	}
}

func TestWorkerRunAgainstNoCoordinator(t *testing.T) {
	w := dist.NewWorker("127.0.0.1:1", dist.WorkerConfig{ID: "lost"})
	if _, err := w.Run(context.Background()); err == nil {
		t.Error("dialing a dead coordinator should error")
	}
}

// TestOversizedFrameDropsOnlyThatPeer bounds the wire: a peer streaming
// one frame past the cap is disconnected as soon as the cap is crossed,
// without the coordinator waiting for (or buffering) the rest of the
// frame. Other connections are untouched and a real worker still
// completes an exact sweep.
func TestOversizedFrameDropsOnlyThatPeer(t *testing.T) {
	const limit = 64 << 10
	defer dist.SetFrameLimitForTest(limit)()
	coord, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec:         smallSpec,
		JobSize:      16,
		LeaseTimeout: 50 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	bystander := dialRaw(t, coord.Addr())
	defer bystander.conn.Close()

	// One frame, twice the cap, with no newline: the coordinator must
	// drop the peer on the byte count alone.
	big := dialRaw(t, coord.Addr())
	defer big.conn.Close()
	go func() {
		frame := `{"type":"next","worker":"big","pad":"` + strings.Repeat("a", 2*limit)
		_, _ = big.conn.Write([]byte(frame)) // fails once the coordinator hangs up
	}()
	big.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := big.conn.Read(make([]byte, 1)); err == nil {
		t.Fatalf("oversized peer got a %d-byte reply instead of a disconnect", n)
	} else if ne := net.Error(nil); errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("coordinator kept the oversized peer connected")
	}

	// The other connection still speaks the protocol.
	bystander.send(map[string]any{"type": "next", "worker": "bystander"})
	if reply := bystander.recv(); reply["type"] != "job" {
		t.Fatalf("bystander got %v, want a job", reply["type"])
	}
	bystander.conn.Close() // its job requeues when the lease expires

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
	checkMatchesSingleMachine(t, smallSpec, sum)
}

// olderBatchFrame is a result_batch frame as workers sent it when a
// coordinator advertised batching: one gzipped, base64-wrapped result
// line claiming job 0 with 9999 candidates and survivor 0x80. Merged,
// it would break the sweep's totals.
const olderBatchFrame = `{"type":"result_batch","worker":"old",` +
	`"batch":"H4sIAAAAAAACAw3IOw6AIBBF0d5lvHoKsVK2YoxBmQIlDBn8xBj3Lre758XxZIaFcjnjAcIturNWkejrbrLMwcO2hNUlSWF1EXaoEcqpV7hEC+xoun4icHS5sJ9TJfM1P9D3O8deAAAA",` +
	`"count":1}`

// TestOlderBatchFrameDropsThatPeer checks that a result_batch frame,
// which no current message type covers, drops the peer that sent it
// without merging anything: the peer's job requeues once its lease
// expires, a healthy worker completes it, and the summary matches one
// machine's.
func TestOlderBatchFrameDropsThatPeer(t *testing.T) {
	coord, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec:         smallSpec,
		JobSize:      16,
		LeaseTimeout: 50 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	old := dialRaw(t, coord.Addr())
	defer old.conn.Close()
	old.send(map[string]any{"type": "next", "worker": "old"})
	job := old.recv()
	if job["type"] != "job" || job["job_id"] != 0.0 {
		t.Fatalf("old peer got %v, want job 0", job)
	}
	if _, ok := job["batch_ok"]; ok {
		t.Errorf("job message still advertises batching: %v", job)
	}
	if _, err := old.conn.Write([]byte(olderBatchFrame + "\n")); err != nil {
		t.Fatal(err)
	}
	old.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := old.conn.Read(make([]byte, 1)); err == nil {
		t.Fatalf("result_batch peer got a %d-byte reply instead of a disconnect", n)
	} else if ne := net.Error(nil); errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("coordinator kept the result_batch peer connected")
	}

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
		t.Errorf("requeues = %d, want >= 1 (the dropped peer's lease must expire)", sum.Requeues)
	}
	if sum.Jobs != 8 {
		t.Errorf("jobs = %d, want 8", sum.Jobs)
	}
	checkMatchesSingleMachine(t, smallSpec, sum)
}
