package dist_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net"
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
		t.Errorf("workers completed %d jobs, coordinator carved %d", total, sum.Jobs)
	}
	checkMatchesSingleMachine(t, smallSpec, sum)
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
