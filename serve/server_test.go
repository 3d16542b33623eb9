package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"koopmancrc"
	"koopmancrc/crchash"
	"koopmancrc/internal/obs"
)

func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, req, resp any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	data, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp != nil && r.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, resp); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
	}
	return r.StatusCode, data
}

// scrape is one parsed /metrics exposition: every sample line's series
// (the metric name plus its rendered labels, exactly as exposed) mapped
// to its value.
type scrape map[string]float64

// getMetrics scrapes the default /metrics exposition, checking it with
// the format validator first.
func getMetrics(t *testing.T, ts *httptest.Server) scrape {
	t.Helper()
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckExposition(bytes.NewReader(body)); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, body)
	}
	m := make(scrape)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		m[line[:i]] = v
	}
	return m
}

// series lists the series of the named family whose labels include
// every given `label="value"` pair.
func (m scrape) series(name string, labels ...string) []string {
	var out []string
	for k := range m {
		rest, ok := strings.CutPrefix(k, name)
		if !ok || (rest != "" && rest[0] != '{') {
			continue
		}
		match := true
		for _, l := range labels {
			match = match && (strings.Contains(rest, "{"+l) || strings.Contains(rest, ","+l))
		}
		if match {
			out = append(out, k)
		}
	}
	return out
}

// sum adds up the values of m.series(name, labels...): with no labels,
// the family total, e.g. the probes of every live session.
func (m scrape) sum(name string, labels ...string) float64 {
	var v float64
	for _, k := range m.series(name, labels...) {
		v += m[k]
	}
	return v
}

// smallEval is a cheap 8-bit evaluation used wherever the test needs a
// real engine run without real cost.
var smallEval = EvaluateRequest{
	PolyRef: PolyRef{Poly: "0x83", Width: 8},
	MaxLen:  64,
	MaxHD:   6,
}

// TestEvaluateWarmSessionZeroProbes is the acceptance criterion: a second
// identical /v1/evaluate answers from the pooled Analyzer's memo with
// zero new engine probes, observed through the MemoStats-backed /metrics.
func TestEvaluateWarmSessionZeroProbes(t *testing.T) {
	_, ts := startServer(t, Config{})

	var first EvaluateResponse
	if code, body := postJSON(t, ts.URL+"/v1/evaluate", smallEval, &first); code != http.StatusOK {
		t.Fatalf("first evaluate: %d %s", code, body)
	}
	m1 := getMetrics(t, ts)
	if m1["crcserve_pool_misses"] != 1 || m1["crcserve_pool_sessions"] != 1 {
		t.Fatalf("after first request: %v misses, %v sessions", m1["crcserve_pool_misses"], m1["crcserve_pool_sessions"])
	}
	probes1 := m1.sum("crcserve_pool_session_probes")
	if probes1 == 0 {
		t.Fatal("first evaluation did no engine probes?")
	}

	var second EvaluateResponse
	if code, body := postJSON(t, ts.URL+"/v1/evaluate", smallEval, &second); code != http.StatusOK {
		t.Fatalf("second evaluate: %d %s", code, body)
	}
	m2 := getMetrics(t, ts)
	if m2["crcserve_pool_hits"] != 1 {
		t.Fatalf("second request missed the pool: %v hits", m2["crcserve_pool_hits"])
	}
	probes2 := m2.sum("crcserve_pool_session_probes")
	if probes2 != probes1 {
		t.Fatalf("warm session probed the engine: %v -> %v probes", probes1, probes2)
	}
	if !bytesEqualJSON(t, first, second) {
		t.Fatalf("warm response differs: %+v vs %+v", first, second)
	}
	if sessions := m2.series("crcserve_pool_session_probes"); len(sessions) != 1 || m2[sessions[0]] != probes2 {
		t.Fatalf("per-session detail: %v", sessions)
	}
}

func bytesEqualJSON(t *testing.T, a, b any) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ja, jb)
}

// sseEvents reads an SSE stream line by line, sending each event name as
// it completes.
func sseEvents(t *testing.T, body io.Reader, events chan<- string) {
	t.Helper()
	sc := bufio.NewScanner(body)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case line == "":
			if event != "" {
				events <- event
				event = ""
			}
		}
	}
	close(events)
}

// slowEval keeps an engine busy for tens of seconds if never cancelled —
// the full-depth profile of the paper's 0xBA0DC66B at 131072 bits, whose
// high-weight boundary scans dominate — while emitting progress ticks
// from the first existence query on.
var slowEval = EvaluateRequest{
	PolyRef: PolyRef{Poly: "0xba0dc66b"},
	MaxLen:  131072,
	MaxHD:   13,
}

// TestSingleflightAndDisconnectCancellation is the second acceptance
// criterion, end to end over real HTTP: an identical concurrent request
// coalesces onto the in-flight evaluation instead of starting a second
// engine run; a departing client leaves the evaluation running for the
// remaining one; and when the last client disconnects, the cancellation
// reaches the engine's scan loops.
func TestSingleflightAndDisconnectCancellation(t *testing.T) {
	_, ts := startServer(t, Config{})

	// Client A: streaming request, so progress events prove the engine
	// is mid-scan.
	body, err := json.Marshal(slowEval)
	if err != nil {
		t.Fatal(err)
	}
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	reqA, err := http.NewRequestWithContext(ctxA, http.MethodPost, ts.URL+"/v1/evaluate?stream=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	respA, err := http.DefaultClient.Do(reqA)
	if err != nil {
		t.Fatal(err)
	}
	defer respA.Body.Close()
	events := make(chan string, 64)
	go sseEvents(t, respA.Body, events)
	waitEvent(t, events, "progress", 30*time.Second)

	// Client B: identical plain request while A's evaluation is in
	// flight — it must join the flight, not start a second engine run.
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	bErr := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctxB, http.MethodPost, ts.URL+"/v1/evaluate", bytes.NewReader(body))
		if err != nil {
			bErr <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("request B completed with status %d before cancellation", resp.StatusCode)
		}
		bErr <- err
	}()
	waitFor(t, 10*time.Second, "request B to coalesce", func() bool {
		return getMetrics(t, ts)["crcserve_coalesced_requests_total"] >= 1
	})
	if n := getMetrics(t, ts)["crcserve_flights_total"]; n != 1 {
		t.Fatalf("identical concurrent requests started %v engine runs", n)
	}

	// B disconnects; the flight must keep running for A. Progress events
	// still flowing prove the engine was not cancelled.
	cancelB()
	if err := <-bErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("request B returned %v, want context.Canceled", err)
	}
	waitEvent(t, events, "progress", 30*time.Second)
	if getMetrics(t, ts)["crcserve_canceled_evaluations_total"] != 0 {
		t.Fatalf("evaluation canceled while a client was still attached")
	}

	// A — the last client — disconnects: the refcounted flight cancels
	// its context and the engine's cancel hook must abort the scan.
	cancelA()
	waitFor(t, 30*time.Second, "engine cancellation", func() bool {
		return getMetrics(t, ts)["crcserve_canceled_evaluations_total"] == 1
	})
}

func waitEvent(t *testing.T, events <-chan string, want string, timeout time.Duration) {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("stream closed while waiting for %q event", want)
			}
			if ev == want {
				return
			}
		case <-deadline:
			t.Fatalf("no %q event within %v", want, timeout)
		}
	}
}

func waitFor(t *testing.T, timeout time.Duration, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if ok() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestLRUEviction bounds the pool: with capacity 1, a second polynomial
// evicts the first, and re-requesting the first rebuilds a session.
func TestLRUEviction(t *testing.T) {
	_, ts := startServer(t, Config{PoolSize: 1})

	other := smallEval
	other.Poly = "0x9c" // CRC-8/DARC generator
	for _, req := range []EvaluateRequest{smallEval, other, smallEval} {
		if code, body := postJSON(t, ts.URL+"/v1/evaluate", req, nil); code != http.StatusOK {
			t.Fatalf("evaluate %s: %d %s", req.Poly, code, body)
		}
	}
	m := getMetrics(t, ts)
	if m["crcserve_pool_sessions"] != 1 || m["crcserve_pool_evictions"] != 2 ||
		m["crcserve_pool_misses"] != 3 || m["crcserve_pool_hits"] != 0 {
		t.Fatalf("pool after eviction churn: %v sessions, %v evictions, %v misses, %v hits",
			m["crcserve_pool_sessions"], m["crcserve_pool_evictions"], m["crcserve_pool_misses"], m["crcserve_pool_hits"])
	}
	if sessions := m.series("crcserve_pool_session_probes"); len(sessions) != 1 ||
		len(m.series("crcserve_pool_session_probes", `poly="0x83"`)) != 1 {
		t.Fatalf("surviving session: %v", sessions)
	}
}

// TestStreamedEvaluationMatchesPlain checks the SSE success path: the
// result event equals the plain JSON response and progress ticks arrive
// before it. The stream goes first — a cold session is what emits
// progress; the plain repeat is then served from the warm memo.
func TestStreamedEvaluationMatchesPlain(t *testing.T) {
	_, ts := startServer(t, Config{})

	body, _ := json.Marshal(smallEval)
	resp, err := http.Post(ts.URL+"/v1/evaluate?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var progress int
	var result *EvaluateResponse
	sc := bufio.NewScanner(resp.Body)
	var event, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		case line == "":
			switch event {
			case "progress":
				if result != nil {
					t.Fatal("progress event after result")
				}
				progress++
			case "result":
				result = new(EvaluateResponse)
				if err := json.Unmarshal([]byte(data), result); err != nil {
					t.Fatal(err)
				}
			case "error":
				t.Fatalf("error event: %s", data)
			}
			event, data = "", ""
		}
	}
	if result == nil {
		t.Fatal("stream ended without a result event")
	}
	if progress == 0 {
		t.Error("no progress events before the result")
	}

	var plain EvaluateResponse
	if code, body := postJSON(t, ts.URL+"/v1/evaluate", smallEval, &plain); code != http.StatusOK {
		t.Fatalf("plain evaluate: %d %s", code, body)
	}
	if !bytesEqualJSON(t, plain, *result) {
		t.Fatalf("streamed result differs from plain: %+v vs %+v", plain, result)
	}
}

// TestEvaluateWeights covers the weights field end to end: in-cap lengths
// get exact engine-checked counts, an over-cap length is clamped to
// MaxLenCap instead of reaching the engine's O(n) weight scans unbounded,
// and invalid or oversized lists are rejected.
func TestEvaluateWeights(t *testing.T) {
	_, ts := startServer(t, Config{MaxLenCap: 64})

	req := smallEval
	req.Weights = []int{16, 1 << 30} // second entry far beyond the cap
	var resp EvaluateResponse
	if code, body := postJSON(t, ts.URL+"/v1/evaluate", req, &resp); code != http.StatusOK {
		t.Fatalf("evaluate with weights: %d %s", code, body)
	}
	if len(resp.Weights) != 2 || resp.Weights[0].Length != 16 || resp.Weights[1].Length != 64 {
		t.Fatalf("weights lengths not clamped to MaxLenCap: %+v", resp.Weights)
	}
	p, err := koopmancrc.ParsePolynomial(8, koopmancrc.Koopman, "0x83")
	if err != nil {
		t.Fatal(err)
	}
	for _, wc := range resp.Weights {
		for w, got := range map[int]uint64{2: wc.W2, 3: wc.W3, 4: wc.W4} {
			want, err := koopmancrc.NewAnalyzer(p).Weight(context.Background(), w, wc.Length)
			if err != nil {
				t.Fatalf("reference W%d at %d: %v", w, wc.Length, err)
			}
			if got != want {
				t.Errorf("W%d at %d bits: got %d, want %d", w, wc.Length, got, want)
			}
		}
	}

	// The clamped entry answers identically to an explicit request at the
	// cap itself.
	capReq := smallEval
	capReq.Weights = []int{64}
	var capResp EvaluateResponse
	if code, body := postJSON(t, ts.URL+"/v1/evaluate", capReq, &capResp); code != http.StatusOK {
		t.Fatalf("evaluate at the cap: %d %s", code, body)
	}
	if !bytesEqualJSON(t, resp.Weights[1], capResp.Weights[0]) {
		t.Fatalf("clamped entry differs from explicit cap entry: %+v vs %+v", resp.Weights[1], capResp.Weights[0])
	}

	// A non-positive length is rejected, as is a list beyond MaxWeightLens.
	bad := smallEval
	bad.Weights = []int{0}
	if code, body := postJSON(t, ts.URL+"/v1/evaluate", bad, nil); code != http.StatusBadRequest {
		t.Fatalf("weights [0]: %d %s, want 400", code, body)
	}
	long := smallEval
	for l := 1; l <= 9; l++ { // default MaxWeightLens is 8
		long.Weights = append(long.Weights, l)
	}
	if code, body := postJSON(t, ts.URL+"/v1/evaluate", long, nil); code != http.StatusBadRequest {
		t.Fatalf("oversized weights list: %d %s, want 400", code, body)
	}
}

// TestClampsAndLimits: per-request knobs are honoured but bounded by the
// server configuration.
func TestClampsAndLimits(t *testing.T) {
	_, ts := startServer(t, Config{MaxLenCap: 128, MaxHDCap: 5})

	req := smallEval
	req.MaxLen = 4096
	req.MaxHD = 13
	var resp EvaluateResponse
	if code, body := postJSON(t, ts.URL+"/v1/evaluate", req, &resp); code != http.StatusOK {
		t.Fatalf("evaluate: %d %s", code, body)
	}
	if resp.MaxLen != 128 || resp.MaxHD != 5 {
		t.Fatalf("clamps not applied: max_len %d, max_hd %d", resp.MaxLen, resp.MaxHD)
	}

	// A probe-budget ceiling turns an expensive request into 422 — even
	// when the request asks for a bigger budget than the ceiling allows.
	_, ts2 := startServer(t, Config{Limits: koopmancrc.Limits{MaxProbes: 10}})
	code, body := postJSON(t, ts2.URL+"/v1/hd", HDRequest{
		PolyRef: PolyRef{Poly: "0x82608edb"}, DataLen: 2048,
		Limits: &Limits{MaxProbes: 1 << 40},
	}, nil)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("budget-capped request: %d %s", code, body)
	}
}

// TestTimeout: the server deadline bounds an evaluation, and a streaming
// client that is still connected when the deadline fires gets a
// deterministic error event rather than a silently closed stream.
func TestTimeout(t *testing.T) {
	_, ts := startServer(t, Config{Timeout: 50 * time.Millisecond})
	code, body := postJSON(t, ts.URL+"/v1/evaluate", slowEval, nil)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out evaluate: %d %s", code, body)
	}

	payload, _ := json.Marshal(slowEval)
	resp, err := http.Post(ts.URL+"/v1/evaluate?stream=1", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := make(chan string, 64)
	go sseEvents(t, resp.Body, events)
	waitEvent(t, events, "error", 10*time.Second)

	// The in-band SSE error rides a 200 response, so it has a counter
	// of its own; the plain timeout is a 504 outcome.
	m := getMetrics(t, ts)
	if m["crcserve_streams_total"] != 1 || m["crcserve_stream_errors_total"] != 1 {
		t.Errorf("streams %v, stream errors %v; want 1 and 1",
			m["crcserve_streams_total"], m["crcserve_stream_errors_total"])
	}
	if n := m.sum("crcserve_requests_total", `endpoint="/v1/evaluate"`, `code="504"`); n != 1 {
		t.Errorf("504 outcomes on /v1/evaluate = %v, want 1", n)
	}
}

// TestAuth: bearer-token gating on everything but /healthz.
func TestAuth(t *testing.T) {
	_, ts := startServer(t, Config{Token: "sesame"})

	if r, err := http.Get(ts.URL + "/healthz"); err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("healthz without token: %v %v", r, err)
	} else {
		r.Body.Close()
	}
	if r, err := http.Get(ts.URL + "/metrics"); err != nil || r.StatusCode != http.StatusUnauthorized {
		t.Fatalf("metrics without token not rejected: %v %v", r, err)
	} else {
		r.Body.Close()
	}
	for token, want := range map[string]int{"sesame": http.StatusOK, "wrong": http.StatusUnauthorized} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/algorithms", nil)
		req.Header.Set("Authorization", "Bearer "+token)
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != want {
			t.Errorf("token %q: status %d, want %d", token, r.StatusCode, want)
		}
	}
}

// TestEndpoints covers the pointwise endpoints with known paper answers.
func TestEndpoints(t *testing.T) {
	_, ts := startServer(t, Config{})

	var hd HDResponse
	if code, body := postJSON(t, ts.URL+"/v1/hd", HDRequest{
		PolyRef: PolyRef{Poly: "0x8f6e37a0"}, DataLen: 400, MaxHD: 6,
	}, &hd); code != http.StatusOK {
		t.Fatalf("hd: %d %s", code, body)
	}
	if hd.HD != 6 || !hd.Exact {
		t.Fatalf("Castagnoli HD at 400 bits: %+v", hd)
	}

	var ml MaxLenResponse
	if code, body := postJSON(t, ts.URL+"/v1/maxlen", MaxLenRequest{
		PolyRef: PolyRef{Poly: "0x82608edb"}, HD: 5, Horizon: 12112,
	}, &ml); code != http.StatusOK {
		t.Fatalf("maxlen: %d %s", code, body)
	}
	if !ml.OK || ml.MaxLen != 2974 {
		t.Fatalf("IEEE HD=5 coverage: %+v (paper says 2974)", ml)
	}

	var sel SelectResponse
	if code, body := postJSON(t, ts.URL+"/v1/select", SelectRequest{
		Candidates: []PolyRef{{Poly: "0x8f6e37a0"}, {Poly: "0xba0dc66b"}},
		DataLen:    1024, MaxHD: 6,
	}, &sel); code != http.StatusOK {
		t.Fatalf("select: %d %s", code, body)
	}
	if len(sel.Ranking) != 2 || sel.Ranking[0].HD < sel.Ranking[1].HD {
		t.Fatalf("ranking not best-first: %+v", sel)
	}
	if sel.Ranking[0].HD != 6 || sel.Ranking[0].CoverageAtHD != 4096 {
		t.Fatalf("both candidates hold HD 6 through the 4x horizon at 1024 bits: %+v", sel)
	}

	var sum ChecksumResponse
	if code, body := postJSON(t, ts.URL+"/v1/checksum", ChecksumRequest{
		Algorithm: "CRC-32/IEEE-802.3", Text: "123456789",
	}, &sum); code != http.StatusOK {
		t.Fatalf("checksum: %d %s", code, body)
	}
	if sum.Checksum != 0xCBF43926 || sum.Hex != "0xcbf43926" || sum.Length != 9 {
		t.Fatalf("IEEE check value: %+v", sum)
	}
	if _, err := crchash.ParseKind(sum.Kernel); err != nil || sum.Kernel == "auto" {
		t.Fatalf("checksum response kernel %q is not a concrete kind", sum.Kernel)
	}
	m := getMetrics(t, ts)
	if m.sum("crcserve_checksums_total", `kernel="`+sum.Kernel+`"`) == 0 {
		t.Fatalf("crcserve_checksums_total missing %q: %v", sum.Kernel, m.series("crcserve_checksums_total"))
	}
	var sumData ChecksumResponse
	if code, _ := postJSON(t, ts.URL+"/v1/checksum", ChecksumRequest{
		Algorithm: "CRC-32/IEEE-802.3", Data: []byte("123456789"),
	}, &sumData); code != http.StatusOK || sumData.Checksum != sum.Checksum {
		t.Fatalf("base64 data path: %d %+v", code, sumData)
	}

	var algs AlgorithmsResponse
	r, err := http.Get(ts.URL + "/v1/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if err := json.NewDecoder(r.Body).Decode(&algs); err != nil {
		t.Fatal(err)
	}
	if len(algs.Algorithms) == 0 {
		t.Fatal("no algorithms listed")
	}
}

// TestValidation: malformed requests come back 4xx with JSON errors, and
// the error counters tick.
func TestValidation(t *testing.T) {
	_, ts := startServer(t, Config{})

	cases := []struct {
		path string
		req  any
		want int
	}{
		{"/v1/evaluate", EvaluateRequest{PolyRef: PolyRef{Poly: "zz", Width: 8}, MaxLen: 64}, http.StatusBadRequest},
		{"/v1/evaluate", EvaluateRequest{PolyRef: PolyRef{Poly: "0x83", Width: 8}}, http.StatusBadRequest},                                // max_len 0
		{"/v1/evaluate", EvaluateRequest{PolyRef: PolyRef{Poly: "0x83", Width: 8, Notation: "bogus"}, MaxLen: 64}, http.StatusBadRequest}, // notation
		{"/v1/evaluate", map[string]any{"poly": "0x83", "width": 8, "max_len": 64, "typo_field": 1}, http.StatusBadRequest},
		{"/v1/evaluate", map[string]any{"poly": "0x83", "width": 8, "max_len": 64, "limits": map[string]any{"max_store_entries": 4096}}, http.StatusBadRequest},
		{"/v1/hd", HDRequest{PolyRef: PolyRef{Poly: "0x83", Width: 8}}, http.StatusBadRequest}, // data_len 0
		{"/v1/select", SelectRequest{DataLen: 64}, http.StatusBadRequest},                      // no candidates
		{"/v1/checksum", ChecksumRequest{Algorithm: "CRC-99/NOPE"}, http.StatusNotFound},
		{"/v1/checksum", ChecksumRequest{}, http.StatusBadRequest},
	}
	for _, c := range cases {
		if code, body := postJSON(t, ts.URL+c.path, c.req, nil); code != c.want {
			t.Errorf("%s %+v: status %d (%s), want %d", c.path, c.req, code, body, c.want)
		}
	}

	// Wrong method.
	r, err := http.Get(ts.URL + "/v1/evaluate")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/evaluate: %d", r.StatusCode)
	}

	m := getMetrics(t, ts)
	if m.sum("crcserve_requests_total", `endpoint="/v1/evaluate"`, `code="400"`) == 0 ||
		m.sum("crcserve_requests_total", `endpoint="/v1/checksum"`, `code="404"`) == 0 {
		t.Errorf("error counters did not tick: %v", m.series("crcserve_requests_total"))
	}
}

// TestSelectReusesEvaluationSessions: a selection over polynomials whose
// sessions are already warm does zero new engine work.
func TestSelectReusesEvaluationSessions(t *testing.T) {
	_, ts := startServer(t, Config{})

	sel := SelectRequest{
		Candidates: []PolyRef{{Poly: "0x83", Width: 8}, {Poly: "0x9c", Width: 8}},
		DataLen:    16, MaxHD: 6,
	}
	if code, body := postJSON(t, ts.URL+"/v1/select", sel, nil); code != http.StatusOK {
		t.Fatalf("first select: %d %s", code, body)
	}
	before := getMetrics(t, ts)
	if code, body := postJSON(t, ts.URL+"/v1/select", sel, nil); code != http.StatusOK {
		t.Fatalf("second select: %d %s", code, body)
	}
	after := getMetrics(t, ts)
	if b, a := before.sum("crcserve_pool_session_probes"), after.sum("crcserve_pool_session_probes"); a != b {
		t.Fatalf("repeat selection probed the engine: %v -> %v", b, a)
	}
	if b, a := before["crcserve_pool_hits"], after["crcserve_pool_hits"]; a != b+2 {
		t.Fatalf("repeat selection missed the pool: %v -> %v hits", b, a)
	}
}
