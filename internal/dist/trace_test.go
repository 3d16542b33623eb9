package dist_test

import (
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"koopmancrc"
	"koopmancrc/internal/dist"
	"koopmancrc/internal/obs"
)

// memSink is an in-memory BakeSink for tests that don't need a real
// corpus store on disk.
type memSink struct {
	mu sync.Mutex
	m  map[uint64]*koopmancrc.MemoSnapshot
}

func newMemSink() *memSink { return &memSink{m: map[uint64]*koopmancrc.MemoSnapshot{}} }

func (s *memSink) Get(width int, polyK uint64) (*koopmancrc.MemoSnapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, ok := s.m[polyK]
	return snap, ok
}

func (s *memSink) Put(snap *koopmancrc.MemoSnapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[snap.Poly] = snap
	return nil
}

// TestJobTracePropagation is the dist acceptance path: a real sweep over
// TCP yields one trace per job whose span tree crosses the process
// boundary — the coordinator's "dist.job" root with the worker's
// "worker.job" span stitched underneath, carrying the job's candidate
// and survivor counts — retrievable through both the Go API and the
// DebugAddr listener.
func TestJobTracePropagation(t *testing.T) {
	coord, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec:         smallSpec,
		JobSize:      32, // 4 jobs
		LeaseTimeout: 30 * time.Second,
		DebugAddr:    "127.0.0.1:0",
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	w := dist.NewWorker(coord.Addr(), dist.WorkerConfig{ID: "tracer", Logf: t.Logf})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := w.Run(context.Background()); err != nil {
			t.Errorf("worker: %v", err)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	sum, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	traces := coord.Traces(obs.TraceFilter{})
	if len(traces) != sum.Jobs {
		t.Fatalf("%d traces retained, want one per job (%d)", len(traces), sum.Jobs)
	}
	var spanCanonical, spanSurvivors uint64
	for _, s := range traces {
		if s.Name != "dist.job" {
			t.Errorf("trace %s named %q, want dist.job", s.TraceID, s.Name)
		}
		if s.Error != "" {
			t.Errorf("clean sweep produced errored trace %s: %q", s.TraceID, s.Error)
		}
		td, ok := coord.Trace(s.TraceID)
		if !ok {
			t.Fatalf("summary %s does not resolve", s.TraceID)
		}
		var workerSpan int
		for _, c := range td.Root.Children {
			if c.Name != "worker.job" {
				continue
			}
			workerSpan++
			for _, a := range c.Attrs {
				n, err := strconv.ParseUint(a.V, 10, 64)
				switch a.K {
				case "canonical":
					spanCanonical += n
				case "survivors":
					spanSurvivors += n
				default:
					continue
				}
				if err != nil {
					t.Errorf("worker.job attr %s=%q: %v", a.K, a.V, err)
				}
			}
		}
		if workerSpan != 1 {
			t.Errorf("trace %s has %d worker.job spans, want 1: %+v", s.TraceID, workerSpan, td.Root)
		}
	}
	// Each job's worker.job span reports that job's candidate and
	// survivor counts, so over all jobs they add up to the Summary.
	if spanCanonical != sum.Canonical || spanSurvivors != uint64(len(sum.Survivors)) {
		t.Errorf("worker.job spans count %d candidates and %d survivors, summary %d and %d",
			spanCanonical, spanSurvivors, sum.Canonical, len(sum.Survivors))
	}

	// The same traces are served on the debug listener.
	resp, err := http.Get("http://" + coord.DebugAddr() + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Count  int                `json:"count"`
		Traces []obs.TraceSummary `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if list.Count != sum.Jobs {
		t.Fatalf("debug listener lists %d traces, want %d", list.Count, sum.Jobs)
	}
	one, err := http.Get("http://" + coord.DebugAddr() + "/v1/traces/" + list.Traces[0].TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer one.Body.Close()
	if one.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/traces/{id}: %d", one.StatusCode)
	}
	var td obs.TraceData
	if err := json.NewDecoder(one.Body).Decode(&td); err != nil {
		t.Fatal(err)
	}
	if td.Root == nil || td.Root.Name != "dist.job" {
		t.Fatalf("debug trace root: %+v", td.Root)
	}

	miss, err := http.Get("http://" + coord.DebugAddr() + "/v1/traces/nope")
	if err != nil {
		t.Fatal(err)
	}
	miss.Body.Close()
	if miss.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace id: %d, want 404", miss.StatusCode)
	}
}

// TestExpiredLeaseTraceRetainedAsError pins the failure path: a worker
// that takes a job and dies leaves an errored, pinned trace behind when
// the lease expires, and the requeued grant gets a fresh trace.
func TestExpiredLeaseTraceRetainedAsError(t *testing.T) {
	coord, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec:         smallSpec,
		JobSize:      64, // 2 jobs
		LeaseTimeout: 50 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Take a job and vanish without heartbeats.
	c := dialRaw(t, coord.Addr())
	c.send(map[string]any{"type": "next", "worker": "ghost"})
	reply := c.recv()
	if reply["type"] != "job" {
		t.Fatalf("reply %v, want job", reply["type"])
	}
	if reply["trace_id"] == "" || reply["parent_span"] == "" {
		t.Fatalf("grant carries no trace context: %v", reply)
	}
	deadTrace, _ := reply["trace_id"].(string)
	c.conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		errored := coord.Traces(obs.TraceFilter{ErrorsOnly: true})
		if len(errored) > 0 {
			if errored[0].TraceID != deadTrace {
				t.Fatalf("errored trace %s, want the dead lease's %s", errored[0].TraceID, deadTrace)
			}
			td, ok := coord.Trace(deadTrace)
			if !ok || td.Error == "" {
				t.Fatalf("expired lease trace not retrievable as errored: %+v", td)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lease never expired into an errored trace")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A healthy worker finishes the sweep; the requeued job's fresh trace
	// must be distinct from the dead lease's.
	w := dist.NewWorker(coord.Addr(), dist.WorkerConfig{ID: "healthy", Logf: t.Logf})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	done := make(chan error, 1)
	go func() { _, err := w.Run(ctx); done <- err }()
	if _, err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	clean := 0
	for _, s := range coord.Traces(obs.TraceFilter{}) {
		if s.TraceID == deadTrace && s.Error == "" {
			t.Error("dead lease's trace lost its error on requeue")
		}
		if s.Error == "" {
			clean++
		}
	}
	if clean < 2 {
		t.Errorf("%d clean job traces after completion, want >= 2", clean)
	}
}

// TestBuildSpanTreeHostileInput exercises the wire-span stitcher against
// the malformed shapes an untrusted worker could send.
func TestBuildSpanTreeHostileInput(t *testing.T) {
	root := "aaaaaaaa"
	spans := []dist.WireSpan{
		{ID: "s1", Parent: root, Name: "worker.job", DurNS: 10},
		{ID: "s2", Parent: "s1", Name: "worker.child", DurNS: 5},
		{ID: "s3", Parent: "missing", Name: "orphan", DurNS: 1}, // unknown parent → root
		{ID: "s4", Parent: "s4", Name: "self-cycle", DurNS: 1},  // self-parent → root
		{ID: "a", Parent: "b", Name: "2-cycle", DurNS: 1},       // a→b→a: b is cut loose
		{ID: "b", Parent: "a", Name: "2-cycle", DurNS: 1},
		{ID: "x", Parent: "y", Name: "3-cycle", DurNS: 1}, // x→y→z→x: z is cut loose
		{ID: "y", Parent: "z", Name: "3-cycle", DurNS: 1},
		{ID: "z", Parent: "x", Name: "3-cycle", DurNS: 1},
		{ID: "", Name: "no-id"},                   // dropped
		{ID: root, Name: "id-collides-with-root"}, // dropped
		{ID: "s1", Name: "duplicate-id"},          // dropped
	}
	td := dist.AssembleJobTraceForTest(root, spans)
	names := map[string]int{}
	var walk func(sd *obs.SpanData)
	walk = func(sd *obs.SpanData) {
		names[sd.Name]++
		for _, c := range sd.Children {
			walk(c)
		}
	}
	walk(td.Root)
	if names["worker.job"] != 1 || names["worker.child"] != 1 {
		t.Errorf("well-formed spans mangled: %v", names)
	}
	if names["orphan"] != 1 || names["self-cycle"] != 1 {
		t.Errorf("orphans must attach to the root, not vanish: %v", names)
	}
	if names["2-cycle"] != 2 || names["3-cycle"] != 3 {
		t.Errorf("every member of a parent cycle must stay in the tree: %v", names)
	}
	under := map[string][]string{}
	for _, c := range td.Root.Children {
		for _, g := range c.Children {
			under[c.ID] = append(under[c.ID], g.ID)
		}
	}
	if !reflect.DeepEqual(under["b"], []string{"a"}) || !reflect.DeepEqual(under["z"], []string{"y"}) {
		t.Errorf("cycles must be cut at their last-listed member: root children's children %v", under)
	}
	if names["no-id"] != 0 || names["id-collides-with-root"] != 0 || names["duplicate-id"] != 0 {
		t.Errorf("malformed spans must be dropped: %v", names)
	}
	if td.Spans != 10 {
		t.Errorf("span count %d, want 10 (root + 9 kept)", td.Spans)
	}
}

// FuzzBuildSpanTree feeds the wire-span stitcher arbitrary span lists,
// as an untrusted worker could send them over TCP. The list holds count
// spans (so it may run past the 512-span cap); span i takes its ID and
// parent from bytes 2i and 2i+1 of data, cycled. Byte 0 names the empty
// ID and byte 1 the trace root; bytes below 128 name one of 32 shared
// IDs, so duplicates and parent cycles are common; bytes from 128 name
// an ID derived from i, so long lists of distinct IDs occur too. The
// stitcher must never panic, and every distinct valid ID among the
// first 512 spans must appear exactly once under the root, no other ID
// at all, with the trace's span count agreeing.
func FuzzBuildSpanTree(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{2, 1, 3, 2, 4, 9, 5, 5, 0, 0, 1, 0, 2, 0}, uint16(7)) // the hostile-input shapes
	f.Add([]byte{6, 7, 7, 6}, uint16(2))                               // a 2-cycle
	f.Add([]byte{6, 7, 7, 8, 8, 6}, uint16(3))                         // a 3-cycle
	f.Add([]byte{128, 129}, uint16(600))                               // a 600-span chain
	f.Add([]byte{128, 255, 200, 140}, uint16(1000))                    // long, branching, past the cap
	f.Fuzz(func(t *testing.T, data []byte, count uint16) {
		const root = "aaaaaaaa"
		n := int(count) % 1100
		if len(data) == 0 {
			n = 0
		}
		name := func(b byte, i int) string {
			switch {
			case b == 0:
				return ""
			case b == 1:
				return root
			case b < 128:
				return "s" + strconv.Itoa(int(b%32))
			default:
				return "u" + strconv.Itoa((i+int(b))%n)
			}
		}
		spans := make([]dist.WireSpan, n)
		want := map[string]bool{}
		for i := range spans {
			id, parent := name(data[2*i%len(data)], i), name(data[(2*i+1)%len(data)], i)
			spans[i] = dist.WireSpan{ID: id, Parent: parent, Name: "span"}
			if i < 512 && id != "" && id != root {
				want[id] = true
			}
		}
		td := dist.AssembleJobTraceForTest(root, spans)
		seen := map[string]bool{}
		var walk func(sd *obs.SpanData)
		walk = func(sd *obs.SpanData) {
			for _, c := range sd.Children {
				if seen[c.ID] {
					t.Fatalf("span %q appears twice in the tree", c.ID)
				}
				seen[c.ID] = true
				if !want[c.ID] {
					t.Fatalf("span %q is in the tree but not a valid ID among the first 512", c.ID)
				}
				walk(c)
			}
		}
		walk(td.Root)
		if len(seen) != len(want) {
			t.Fatalf("%d of %d distinct valid IDs reachable from the root", len(seen), len(want))
		}
		if td.Spans != 1+len(seen) || len(seen) > 512 {
			t.Fatalf("trace counts %d spans, tree holds root + %d", td.Spans, len(seen))
		}
	})
}

// TestBakeRecorderTraces checks BakeConfig.Recorder: one trace per
// polynomial with engine leaf spans, failures marked errored.
func TestBakeRecorderTraces(t *testing.T) {
	rec := obs.NewFlightRecorder(64, 1)
	sink := newMemSink()
	spec := dist.BakeSpec{Width: 8, Polys: []uint64{0x83, 0x9c}, MaxLen: 64, MaxHD: 4}
	sum, err := dist.Bake(context.Background(), spec, sink, dist.BakeConfig{
		Workers: 2, Recorder: rec, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Baked != 2 {
		t.Fatalf("baked %d, want 2", sum.Baked)
	}
	traces := rec.Summaries(obs.TraceFilter{Name: "bake"})
	if len(traces) != 2 {
		t.Fatalf("%d bake traces, want 2", len(traces))
	}
	for _, s := range traces {
		td, ok := rec.Get(s.TraceID)
		if !ok {
			t.Fatalf("bake trace %s not retrievable", s.TraceID)
		}
		engine := 0
		for _, c := range td.Root.Children {
			if strings.HasPrefix(c.Name, "engine.") {
				engine++
			}
		}
		if engine == 0 {
			t.Errorf("bake trace %s has no engine phase spans", s.TraceID)
		}
	}
}
