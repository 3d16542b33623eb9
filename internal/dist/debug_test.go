package dist_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"koopmancrc/internal/dist"
	"koopmancrc/internal/obs"
)

// TestDebugListenerExposesLedger runs a small sweep with the telemetry
// listener on and checks that /metrics is a valid Prometheus exposition
// carrying the ledger — worker rates, coverage, requeue counters — and
// that /healthz answers.
func TestDebugListenerExposesLedger(t *testing.T) {
	coord, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec:         smallSpec,
		JobSize:      8,
		LeaseTimeout: 30 * time.Second,
		Logf:         t.Logf,
		DebugAddr:    "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	base := "http://" + coord.DebugAddr()
	if coord.DebugAddr() == "" {
		t.Fatal("DebugAddr empty with DebugAddr configured")
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || body != `{"status":"ok"}`+"\n" {
		t.Fatalf("/healthz: %d %q", code, body)
	}

	// Scrape mid-sweep concurrently with the workers to exercise the
	// collector locking, then once more after completion for the final
	// ledger assertions.
	stopScrape := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stopScrape:
				return
			default:
			}
			code, body := get("/metrics")
			if code != http.StatusOK {
				t.Errorf("/metrics: %d", code)
				return
			}
			if err := obs.CheckExposition(strings.NewReader(body)); err != nil {
				t.Errorf("mid-sweep exposition invalid: %v", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for _, id := range []string{"alpha", "beta"} {
		w := dist.NewWorker(coord.Addr(), dist.WorkerConfig{ID: id, Logf: t.Logf})
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := w.Run(context.Background()); err != nil {
				t.Errorf("worker %s: %v", id, err)
			}
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	sum, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(stopScrape)
	scrapeWG.Wait()

	_, body := get("/metrics")
	if err := obs.CheckExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("final exposition invalid: %v\n%s", err, body)
	}
	for _, want := range []string{
		"dist_indices_total 128",
		"dist_indices_done 128",
		"dist_jobs_done 16",
		"dist_requeues_total 0",
		`dist_worker_rate_candidates_per_second{worker="alpha"}`,
		`dist_worker_rate_candidates_per_second{worker="beta"}`,
		`dist_worker_jobs_done{worker=`,
		"dist_survivors",
		"# TYPE dist_lease_age_seconds gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if !strings.Contains(body, "dist_canonical_total "+itoa(sum.Canonical)) {
		t.Errorf("dist_canonical_total does not match summary %d:\n%s", sum.Canonical, body)
	}
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestDebugTracesFiltersAndErrors pins the debug listener's trace routes
// to the same contract crcserve serves: malformed filters answer 400,
// endpoint and limit filter the listing, and a missing trace is a JSON
// 404.
func TestDebugTracesFiltersAndErrors(t *testing.T) {
	coord, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec:         smallSpec,
		JobSize:      32, // 4 jobs, one trace each
		LeaseTimeout: 30 * time.Second,
		Logf:         t.Logf,
		DebugAddr:    "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	w := dist.NewWorker(coord.Addr(), dist.WorkerConfig{ID: "solo", Logf: t.Logf})
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
		t.Fatalf("worker: %v", err)
	}
	base := "http://" + coord.DebugAddr()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	list := func(query string) obs.TracesResponse {
		t.Helper()
		resp, body := get("/v1/traces" + query)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/v1/traces%s: %d %s", query, resp.StatusCode, body)
		}
		var out obs.TracesResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	for _, q := range []string{"?min_duration=bogus", "?error=maybe", "?limit=0", "?limit=x"} {
		resp, body := get("/v1/traces" + q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/v1/traces%s: %d, want 400", q, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("/v1/traces%s: Content-Type %q", q, ct)
		}
		var er struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("/v1/traces%s: error body %q", q, body)
		}
	}

	if got := list("").Count; got != sum.Jobs || sum.Jobs < 3 {
		t.Fatalf("unfiltered listing has %d traces, want one per job (%d >= 3)", got, sum.Jobs)
	}
	if got := list("?endpoint=dist.job").Count; got != sum.Jobs {
		t.Errorf("?endpoint=dist.job lists %d traces, want %d", got, sum.Jobs)
	}
	if got := list("?endpoint=/v1/evaluate").Count; got != 0 {
		t.Errorf("?endpoint=/v1/evaluate lists %d traces, want 0", got)
	}
	if got := list("?limit=2"); got.Count != 2 || len(got.Traces) != 2 {
		t.Errorf("?limit=2 lists %d traces", got.Count)
	}
	if got := list("?error=false&min_duration=0s").Count; got != sum.Jobs {
		t.Errorf("well-formed no-op filters list %d traces, want %d", got, sum.Jobs)
	}

	resp, body := get("/v1/traces/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing trace: %d, want 404", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("missing trace: Content-Type %q, want application/json", ct)
	}
	if !strings.Contains(string(body), `"error":`) {
		t.Errorf("missing trace body %q", body)
	}
}
