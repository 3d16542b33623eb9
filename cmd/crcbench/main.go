// Command crcbench sweeps every checksum kernel over a range of payload
// sizes and writes the throughput trajectory as JSON — the benchmark
// artifact tracked in BENCH_PR6.json.
//
// Usage:
//
//	crcbench [-o BENCH_PR6.json] [-quick] [-algorithm CRC-32C/iSCSI]
//	         [-kinds bitwise,table,slicing16,hardware]
//	         [-sizes 64,4096,1048576] [-budget 50ms] [-serve] [-corpus]
//	         [-tracing]
//	crcbench -validate BENCH_PR6.json
//
// The default sweep runs every concrete kernel kind the algorithm
// admits across payload sizes from 64 B to 16 MiB. -quick shrinks the
// sweep (four sizes up to 1 MiB, small time budget) for CI smoke runs.
// -validate checks an existing report against the schema the sweep
// writes — kernels present, sizes covered, throughput positive — and
// exits non-zero on a malformed file, so CI can gate on artifact shape
// without re-measuring.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"koopmancrc"
	"koopmancrc/crchash"
	"koopmancrc/internal/corpus"
	"koopmancrc/internal/dist"
	"koopmancrc/internal/obs"
	"koopmancrc/serve"
	"koopmancrc/serve/client"
)

// Report is the artifact schema: host identification, the kernel Auto
// picks, and one row per kernel × payload size.
type Report struct {
	// Schema names the artifact format; bump on incompatible change.
	Schema string `json:"schema"`
	// GeneratedAt is RFC 3339 UTC.
	GeneratedAt string `json:"generated_at"`
	Host        Host   `json:"host"`
	// Algorithm is the catalogued algorithm swept.
	Algorithm string `json:"algorithm"`
	// AutoKernel is the kernel Kind Auto builds for the algorithm.
	AutoKernel string   `json:"auto_kernel"`
	Results    []Result `json:"results"`
	// Serve, when present (-serve), measures the serving layer's batch
	// amortization: many small checksums in one /v1/checksum/batch round
	// trip versus the same checksums as sequential /v1/checksum calls.
	Serve *ServeBench `json:"serve,omitempty"`
	// Corpus, when present (-corpus), measures the persistent-corpus
	// warm start: the first /v1/evaluate on a cold server versus one
	// warm-started from a corpus baked offline with the same sweep.
	Corpus *CorpusBench `json:"corpus,omitempty"`
	// Tracing, when present (-tracing), measures the request-tracing
	// tax: warm request cost with the flight recorder on versus off,
	// plus raw recorder admission throughput.
	Tracing *TracingBench `json:"tracing,omitempty"`
}

// TracingBench is the tracing overhead measurement: warm /v1/checksum
// requests driven straight through the handler (no network) on a
// server with tracing disabled versus enabled at the default sample
// rate. The overhead is the per-request delta expressed against the
// 50 µs warm-request reference the instrumentation budget has used
// since PR 7, so the gate does not wobble with how fast the checksum
// itself happens to be on the measuring host.
type TracingBench struct {
	// Requests is the per-arm measured request count.
	Requests int `json:"requests"`
	// BaselineUS is microseconds per warm request with tracing off.
	BaselineUS float64 `json:"baseline_us"`
	// InstrumentedUS is the same request with the flight recorder on
	// (256 traces, sample rate 0.1).
	InstrumentedUS float64 `json:"instrumented_us"`
	// ReferenceUS is the warm-request reference the overhead share is
	// taken against (50).
	ReferenceUS float64 `json:"reference_us"`
	// OverheadPct is (InstrumentedUS-BaselineUS)/ReferenceUS * 100;
	// the gate is <= 2.0.
	OverheadPct float64 `json:"overhead_pct"`
	// RecorderOpsPerSec is raw FlightRecorder.Record throughput over
	// pre-built span trees with distinct trace IDs.
	RecorderOpsPerSec float64 `json:"recorder_ops_per_sec"`
}

// CorpusBench is the warm-start measurement: one polynomial baked into
// a throwaway corpus, then the same first-evaluation timed against an
// in-process crcserve without and with -corpus.
type CorpusBench struct {
	Poly   string `json:"poly"` // Koopman notation
	Width  int    `json:"width"`
	MaxLen int    `json:"max_len"`
	MaxHD  int    `json:"max_hd"`
	// ColdSeconds is the first /v1/evaluate on a server with no corpus:
	// the full engine scan runs inline with the request.
	ColdSeconds float64 `json:"cold_seconds"`
	// WarmSeconds is the same first /v1/evaluate on a server whose pool
	// warm-started the session from the baked corpus.
	WarmSeconds float64 `json:"warm_seconds"`
	// Speedup is ColdSeconds / WarmSeconds.
	Speedup float64 `json:"speedup"`
	// WarmProbes is the warm session's live engine probe count after the
	// evaluation — zero when the corpus fully covered the query.
	WarmProbes int64 `json:"warm_probes"`
}

// ServeBench is the serve-level amortization measurement: Items small
// payloads of PayloadBytes each, pushed through an in-process crcserve
// over a loopback TCP listener.
type ServeBench struct {
	Items        int `json:"items"`
	PayloadBytes int `json:"payload_bytes"`
	// SequentialIPS is checksum items per second issuing one
	// /v1/checksum call per item, back to back.
	SequentialIPS float64 `json:"sequential_ips"`
	// BatchIPS is checksum items per second with all items in one
	// /v1/checksum/batch round trip per request.
	BatchIPS float64 `json:"batch_ips"`
	// Amortization is BatchIPS / SequentialIPS — how much per-request
	// overhead batching reclaims.
	Amortization float64 `json:"amortization"`
}

// Host identifies the measuring machine well enough to compare
// trajectories across checkins.
type Host struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
}

// Result is one kernel × payload-size measurement.
type Result struct {
	Kernel string `json:"kernel"`
	// Size is the payload length in bytes.
	Size int `json:"size"`
	// GBps is throughput in decimal gigabytes per second.
	GBps float64 `json:"gbps"`
}

const schemaName = "koopmancrc/crcbench/v1"

var fullSizes = []int{64, 256, 1024, 4096, 16384, 65536, 262144, 1 << 20, 4 << 20, 16 << 20}
var quickSizes = []int{64, 4096, 65536, 1 << 20}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "crcbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("crcbench", flag.ContinueOnError)
	outPath := fs.String("o", "", "write the JSON report here instead of stdout")
	quick := fs.Bool("quick", false, "small sweep with a short budget (CI smoke)")
	algorithm := fs.String("algorithm", "CRC-32C/iSCSI", "catalogued algorithm to sweep")
	kindList := fs.String("kinds", "", "comma-separated kernel kinds (default: every admissible concrete kind)")
	sizeList := fs.String("sizes", "", "comma-separated payload sizes in bytes (default: 64B..16MiB sweep)")
	budget := fs.Duration("budget", 50*time.Millisecond, "time budget per kernel+size measurement")
	serveBench := fs.Bool("serve", false, "also measure serve-level batch amortization (64 small payloads batched vs sequential)")
	corpusBench := fs.Bool("corpus", false, "also measure corpus warm-start: first /v1/evaluate cold vs restored from a baked corpus")
	tracingBench := fs.Bool("tracing", false, "also measure request-tracing overhead: warm requests with the flight recorder on vs off, plus recorder ops/sec")
	validate := fs.String("validate", "", "validate an existing report file and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *validate != "" {
		return validateReport(*validate, out)
	}

	params, err := crchash.Lookup(*algorithm)
	if err != nil {
		return err
	}

	kinds, err := pickKinds(*kindList, params)
	if err != nil {
		return err
	}
	sizes := fullSizes
	if *quick {
		sizes = quickSizes
		if *budget == 50*time.Millisecond {
			*budget = 10 * time.Millisecond
		}
	}
	if *sizeList != "" {
		sizes = nil
		for _, f := range strings.Split(*sizeList, ",") {
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &n); err != nil || n <= 0 {
				return fmt.Errorf("bad -sizes entry %q", f)
			}
			sizes = append(sizes, n)
		}
		sort.Ints(sizes)
	}

	rep := Report{
		Schema:      schemaName,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Host: Host{
			GoVersion: runtime.Version(),
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
			NumCPU:    runtime.NumCPU(),
		},
		Algorithm:  *algorithm,
		AutoKernel: crchash.KindOf(crchash.New(params)).String(),
	}

	payload := make([]byte, sizes[len(sizes)-1])
	seed := uint64(0x9E3779B97F4A7C15)
	for i := range payload {
		seed = seed*6364136223846793005 + 1442695040888963407
		payload[i] = byte(seed >> 56)
	}

	for _, k := range kinds {
		e, err := crchash.NewEngine(params, k)
		if err != nil {
			return fmt.Errorf("%v: %w", k, err)
		}
		for _, size := range sizes {
			bps := measure(e, payload[:size], *budget)
			rep.Results = append(rep.Results, Result{
				Kernel: k.String(), Size: size, GBps: bps / 1e9,
			})
			fmt.Fprintf(out, "%-10s %9dB %8.3f GB/s\n", k, size, bps/1e9)
		}
	}

	if *serveBench {
		sb, err := measureServe(*algorithm, *quick)
		if err != nil {
			return fmt.Errorf("serve bench: %w", err)
		}
		rep.Serve = sb
		fmt.Fprintf(out, "serve      %3d x %4dB  sequential %9.0f items/s  batch %9.0f items/s  amortization %.1fx\n",
			sb.Items, sb.PayloadBytes, sb.SequentialIPS, sb.BatchIPS, sb.Amortization)
	}

	if *corpusBench {
		cb, err := measureCorpus(*quick)
		if err != nil {
			return fmt.Errorf("corpus bench: %w", err)
		}
		rep.Corpus = cb
		fmt.Fprintf(out, "corpus     %s/%d maxlen %d hd %d  cold %7.3fs  warm %7.3fs  speedup %6.1fx  warm probes %d\n",
			cb.Poly, cb.Width, cb.MaxLen, cb.MaxHD, cb.ColdSeconds, cb.WarmSeconds, cb.Speedup, cb.WarmProbes)
	}

	if *tracingBench {
		tb, err := measureTracing(*quick)
		if err != nil {
			return fmt.Errorf("tracing bench: %w", err)
		}
		rep.Tracing = tb
		fmt.Fprintf(out, "tracing    %6d reqs  off %7.2fus  on %7.2fus  overhead %+5.2f%% of %gus  recorder %9.0f ops/s\n",
			tb.Requests, tb.BaselineUS, tb.InstrumentedUS, tb.OverheadPct, tb.ReferenceUS, tb.RecorderOpsPerSec)
	}

	enc, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *outPath == "" {
		_, err = out.Write(enc)
		return err
	}
	return os.WriteFile(*outPath, enc, 0o644)
}

// pickKinds resolves -kinds, defaulting to every concrete kind the
// algorithm admits (Bitwise included: the trajectory tracks the floor
// too).
func pickKinds(list string, p crchash.Params) ([]crchash.Kind, error) {
	if list == "" {
		var out []crchash.Kind
		for _, k := range crchash.Kinds() {
			if k.Admits(p) {
				out = append(out, k)
			}
		}
		return out, nil
	}
	var out []crchash.Kind
	for _, f := range strings.Split(list, ",") {
		k, err := crchash.ParseKind(f)
		if err != nil {
			return nil, err
		}
		if k == crchash.Auto {
			return nil, fmt.Errorf("-kinds wants concrete kinds; auto is a selection policy")
		}
		if !k.Admits(p) {
			return nil, fmt.Errorf("kind %v does not admit %s", k, p.Name)
		}
		out = append(out, k)
	}
	return out, nil
}

// measure times one engine on one payload for the budget and returns
// bytes/second.
func measure(e crchash.Engine, data []byte, budget time.Duration) float64 {
	e.Checksum(data) // warm tables and the stdlib's lazy table init
	var done int64
	start := time.Now()
	for time.Since(start) < budget {
		e.Checksum(data)
		done += int64(len(data))
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		return 0
	}
	return float64(done) / elapsed.Seconds()
}

// measureServe stands up an in-process crcserve on a loopback listener
// and measures the batch amortization the serving layer delivers: 64
// distinct 64-byte payloads as sequential /v1/checksum calls versus the
// same payloads in single /v1/checksum/batch round trips. Loopback
// keeps the network out of the picture, so the ratio isolates exactly
// the per-request HTTP + JSON overhead that batching amortizes.
func measureServe(algorithm string, quick bool) (*ServeBench, error) {
	const items, payloadBytes = 64, 64
	budget := time.Second
	if quick {
		budget = 200 * time.Millisecond
	}

	srv, err := serve.New(serve.Config{})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	c := client.New("http://" + ln.Addr().String())

	req := serve.ChecksumBatchRequest{Items: make([]serve.ChecksumRequest, items)}
	for i := range req.Items {
		payload := make([]byte, payloadBytes)
		for j := range payload {
			payload[j] = byte(i + j)
		}
		req.Items[i] = serve.ChecksumRequest{Algorithm: algorithm, Data: payload}
	}
	ctx := context.Background()

	// Warm both paths: connection establishment, engine build.
	if _, err := c.Checksum(ctx, algorithm, req.Items[0].Data); err != nil {
		return nil, err
	}
	if _, err := c.ChecksumBatch(ctx, req); err != nil {
		return nil, err
	}

	var seqDone int
	start := time.Now()
	for time.Since(start) < budget {
		for _, item := range req.Items {
			if _, err := c.Checksum(ctx, item.Algorithm, item.Data); err != nil {
				return nil, err
			}
		}
		seqDone += items
	}
	seqIPS := float64(seqDone) / time.Since(start).Seconds()

	var batchDone int
	start = time.Now()
	for time.Since(start) < budget {
		resp, err := c.ChecksumBatch(ctx, req)
		if err != nil {
			return nil, err
		}
		if resp.Failed != 0 {
			return nil, fmt.Errorf("%d batch items failed", resp.Failed)
		}
		batchDone += items
	}
	batchIPS := float64(batchDone) / time.Since(start).Seconds()

	if seqIPS <= 0 || batchIPS <= 0 {
		return nil, fmt.Errorf("degenerate measurement: sequential %f, batch %f items/s", seqIPS, batchIPS)
	}
	return &ServeBench{
		Items:         items,
		PayloadBytes:  payloadBytes,
		SequentialIPS: seqIPS,
		BatchIPS:      batchIPS,
		Amortization:  batchIPS / seqIPS,
	}, nil
}

// measureCorpus bakes one real 32-bit polynomial (CRC-32 IEEE 802.3)
// into a throwaway corpus, then times the first /v1/evaluate against an
// in-process crcserve twice: once cold, once warm-started from the
// corpus. The delta is exactly the engine work the corpus replaces; the
// warm session's live probe count pins the "zero probes when covered"
// serving guarantee in the artifact.
func measureCorpus(quick bool) (*CorpusBench, error) {
	const polyHex, width = "0x82608edb", 32 // CRC-32 IEEE 802.3, Koopman notation
	maxLen, maxHD := 4096, 5
	if quick {
		maxLen = 1024
	}
	p, err := koopmancrc.ParsePolynomial(width, koopmancrc.Koopman, polyHex)
	if err != nil {
		return nil, err
	}

	dir, err := os.MkdirTemp("", "crcbench-corpus-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := corpus.Open(dir, corpus.Config{})
	if err != nil {
		return nil, err
	}
	sum, err := dist.Bake(context.Background(), dist.BakeSpec{
		Width: width, Polys: []uint64{p.Koopman()}, MaxLen: maxLen, MaxHD: maxHD,
	}, store, dist.BakeConfig{})
	if err != nil {
		return nil, err
	}
	if len(sum.Failed) != 0 {
		return nil, fmt.Errorf("bake failed: %v", sum.Failed[0].Err)
	}
	if err := store.Close(); err != nil {
		return nil, err
	}

	req := serve.EvaluateRequest{
		PolyRef: serve.PolyRef{Poly: polyHex, Width: width},
		MaxLen:  maxLen,
		MaxHD:   maxHD,
	}
	cold, coldProbes, err := timeFirstEvaluate(serve.Config{}, req)
	if err != nil {
		return nil, fmt.Errorf("cold: %w", err)
	}
	if coldProbes == 0 {
		// A cold session must probe the engine; reading zero means the
		// probe scrape is broken and a zero warm count would prove nothing.
		return nil, fmt.Errorf("cold: evaluation reported no live engine probes")
	}
	warm, warmProbes, err := timeFirstEvaluate(serve.Config{CorpusDir: dir}, req)
	if err != nil {
		return nil, fmt.Errorf("warm: %w", err)
	}
	if warm <= 0 {
		return nil, fmt.Errorf("degenerate warm measurement: %v", warm)
	}
	return &CorpusBench{
		Poly:        polyHex,
		Width:       width,
		MaxLen:      maxLen,
		MaxHD:       maxHD,
		ColdSeconds: cold.Seconds(),
		WarmSeconds: warm.Seconds(),
		Speedup:     cold.Seconds() / warm.Seconds(),
		WarmProbes:  warmProbes,
	}, nil
}

// measureTracing drives warm /v1/checksum requests straight through
// the handler — no listener, no network — against two servers that
// differ only in tracing: recorder off versus on at the defaults
// crcserve ships (256 traces, sample rate 0.1). Each arm takes the
// minimum over several measurement blocks, the standard estimator for
// shaving scheduler noise off a hot-loop timing. The recorder's raw
// admission rate is measured separately over pre-built span trees with
// distinct IDs, so sampling decisions vary the way live traffic's do.
func measureTracing(quick bool) (*TracingBench, error) {
	const refUS = 50.0
	rounds, blocks := 20000, 10
	if quick {
		rounds = 4000
	}
	perBlock := rounds / blocks

	mkArm := func(cfg serve.Config) (func() (float64, error), func(), error) {
		srv, err := serve.New(cfg)
		if err != nil {
			return nil, nil, err
		}
		const body = `{"algorithm":"CRC-32C/iSCSI","text":"123456789"}`
		do := func() int {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/checksum", strings.NewReader(body)))
			return rec.Code
		}
		for i := 0; i < 200; i++ { // warm the engine and the allocator
			if code := do(); code != http.StatusOK {
				srv.Close()
				return nil, nil, fmt.Errorf("warm checksum: %d", code)
			}
		}
		block := func() (float64, error) {
			start := time.Now()
			for i := 0; i < perBlock; i++ {
				if code := do(); code != http.StatusOK {
					return 0, fmt.Errorf("checksum: %d", code)
				}
			}
			return time.Since(start).Seconds() * 1e6 / float64(perBlock), nil
		}
		return block, srv.Close, nil
	}

	// The two arms run interleaved, one block each per round, and each
	// takes its minimum — so a host whose clock drifts mid-measurement
	// (turbo, thermal, a noisy neighbor on a shared VM) shifts both arms
	// instead of silently inflating whichever ran second.
	offBlock, offClose, err := mkArm(serve.Config{TraceBuffer: -1})
	if err != nil {
		return nil, err
	}
	defer offClose()
	onBlock, onClose, err := mkArm(serve.Config{TraceBuffer: 256, TraceSampleRate: 0.1})
	if err != nil {
		return nil, err
	}
	defer onClose()
	var baseline, instrumented float64
	for b := 0; b < blocks; b++ {
		off, err := offBlock()
		if err != nil {
			return nil, err
		}
		on, err := onBlock()
		if err != nil {
			return nil, err
		}
		if baseline == 0 || off < baseline {
			baseline = off
		}
		if instrumented == 0 || on < instrumented {
			instrumented = on
		}
	}

	// Raw recorder admission rate over distinct trace IDs.
	tds := make([]*obs.TraceData, 512)
	for i := range tds {
		tr := obs.NewTrace("/bench")
		sp := tr.Root().StartChild("child")
		sp.End()
		tr.Root().End()
		tds[i] = tr.Data()
	}
	rec := obs.NewFlightRecorder(256, 0.1)
	budget := 500 * time.Millisecond
	if quick {
		budget = 100 * time.Millisecond
	}
	var ops int64
	start := time.Now()
	for time.Since(start) < budget {
		rec.Record(tds[ops%int64(len(tds))])
		ops++
	}
	opsPerSec := float64(ops) / time.Since(start).Seconds()

	if baseline <= 0 || instrumented <= 0 || opsPerSec <= 0 {
		return nil, fmt.Errorf("degenerate measurement: off %f, on %f us, %f ops/s", baseline, instrumented, opsPerSec)
	}
	return &TracingBench{
		Requests:          rounds,
		BaselineUS:        baseline,
		InstrumentedUS:    instrumented,
		ReferenceUS:       refUS,
		OverheadPct:       (instrumented - baseline) / refUS * 100,
		RecorderOpsPerSec: opsPerSec,
	}, nil
}

// timeFirstEvaluate stands up an in-process crcserve with the config,
// times one /v1/evaluate round trip, and returns it with the pool's
// live engine probe total afterwards, read from the /metrics exposition.
func timeFirstEvaluate(cfg serve.Config, req serve.EvaluateRequest) (time.Duration, int64, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	hs := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	c := client.New(base)
	ctx := context.Background()

	if err := c.Healthz(ctx); err != nil { // connection up before the clock starts
		return 0, 0, err
	}
	start := time.Now()
	if _, err := c.Evaluate(ctx, req); err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, err
	}
	// The pool's live probe total is the sum of its per-session series.
	var probes int64
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "crcserve_pool_session_probes{") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			return 0, 0, fmt.Errorf("metrics line %q: %w", line, err)
		}
		probes += int64(v)
	}
	return elapsed, probes, nil
}

// retiredKernels are kernel names older reports carry for engines
// since removed; the validator still accepts them so the checked-in
// trajectory stays readable.
var retiredKernels = map[string]bool{"slicing8": true, "chorba": true}

// checkKernel accepts a current kind name or a retired kernel name.
func checkKernel(name string) error {
	if retiredKernels[name] {
		return nil
	}
	_, err := crchash.ParseKind(name)
	return err
}

// validateReport checks a report file against the schema the sweep
// writes: schema tag, host fields, a known auto kernel, at least one
// kernel measured over at least four sizes, and every throughput
// positive. It is the CI gate on the checked-in artifact.
func validateReport(path string, out io.Writer) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != schemaName {
		return fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, schemaName)
	}
	if rep.GeneratedAt == "" {
		return fmt.Errorf("%s: missing generated_at", path)
	}
	if _, err := time.Parse(time.RFC3339, rep.GeneratedAt); err != nil {
		return fmt.Errorf("%s: generated_at: %w", path, err)
	}
	if rep.Host.GoVersion == "" || rep.Host.GOARCH == "" || rep.Host.GOOS == "" {
		return fmt.Errorf("%s: incomplete host identification %+v", path, rep.Host)
	}
	if rep.Algorithm == "" {
		return fmt.Errorf("%s: missing algorithm", path)
	}
	if err := checkKernel(rep.AutoKernel); err != nil {
		return fmt.Errorf("%s: auto_kernel: %w", path, err)
	}
	sizesByKernel := map[string]map[int]bool{}
	for i, r := range rep.Results {
		if err := checkKernel(r.Kernel); err != nil {
			return fmt.Errorf("%s: results[%d]: %w", path, i, err)
		}
		if r.Size <= 0 {
			return fmt.Errorf("%s: results[%d]: non-positive size %d", path, i, r.Size)
		}
		if r.GBps <= 0 {
			return fmt.Errorf("%s: results[%d]: non-positive throughput %v for %s/%d",
				path, i, r.GBps, r.Kernel, r.Size)
		}
		if sizesByKernel[r.Kernel] == nil {
			sizesByKernel[r.Kernel] = map[int]bool{}
		}
		sizesByKernel[r.Kernel][r.Size] = true
	}
	if len(sizesByKernel) == 0 {
		return fmt.Errorf("%s: no results", path)
	}
	for kernel, sizes := range sizesByKernel {
		if len(sizes) < 4 {
			return fmt.Errorf("%s: kernel %s measured at only %d sizes, want >= 4", path, kernel, len(sizes))
		}
	}
	serveNote := ""
	if sb := rep.Serve; sb != nil {
		if sb.Items <= 0 || sb.PayloadBytes <= 0 {
			return fmt.Errorf("%s: serve: non-positive items/payload %+v", path, sb)
		}
		if sb.SequentialIPS <= 0 || sb.BatchIPS <= 0 {
			return fmt.Errorf("%s: serve: non-positive throughput %+v", path, sb)
		}
		ratio := sb.BatchIPS / sb.SequentialIPS
		if sb.Amortization <= 0 || sb.Amortization/ratio < 0.99 || sb.Amortization/ratio > 1.01 {
			return fmt.Errorf("%s: serve: amortization %.3f inconsistent with batch/sequential %.3f", path, sb.Amortization, ratio)
		}
		serveNote = fmt.Sprintf(", serve amortization %.1fx", sb.Amortization)
	}
	corpusNote := ""
	if cb := rep.Corpus; cb != nil {
		if _, err := koopmancrc.ParsePolynomial(cb.Width, koopmancrc.Koopman, cb.Poly); err != nil {
			return fmt.Errorf("%s: corpus: %w", path, err)
		}
		if cb.MaxLen <= 0 || cb.MaxHD < 2 {
			return fmt.Errorf("%s: corpus: bad sweep window %+v", path, cb)
		}
		if cb.ColdSeconds <= 0 || cb.WarmSeconds <= 0 {
			return fmt.Errorf("%s: corpus: non-positive timings %+v", path, cb)
		}
		ratio := cb.ColdSeconds / cb.WarmSeconds
		if cb.Speedup <= 0 || cb.Speedup/ratio < 0.99 || cb.Speedup/ratio > 1.01 {
			return fmt.Errorf("%s: corpus: speedup %.3f inconsistent with cold/warm %.3f", path, cb.Speedup, ratio)
		}
		if cb.WarmProbes != 0 {
			return fmt.Errorf("%s: corpus: warm evaluation did %d live probes, want 0 (corpus must cover the query)", path, cb.WarmProbes)
		}
		corpusNote = fmt.Sprintf(", corpus warm-start %.0fx", cb.Speedup)
	}
	tracingNote := ""
	if tb := rep.Tracing; tb != nil {
		if tb.Requests <= 0 {
			return fmt.Errorf("%s: tracing: non-positive request count %d", path, tb.Requests)
		}
		if tb.BaselineUS <= 0 || tb.InstrumentedUS <= 0 || tb.ReferenceUS <= 0 || tb.RecorderOpsPerSec <= 0 {
			return fmt.Errorf("%s: tracing: non-positive measurement %+v", path, tb)
		}
		want := (tb.InstrumentedUS - tb.BaselineUS) / tb.ReferenceUS * 100
		if d := tb.OverheadPct - want; d < -0.05 || d > 0.05 {
			return fmt.Errorf("%s: tracing: overhead %.3f%% inconsistent with (on-off)/reference %.3f%%", path, tb.OverheadPct, want)
		}
		if tb.OverheadPct > 2.0 {
			return fmt.Errorf("%s: tracing: overhead %.3f%% exceeds the 2%% gate", path, tb.OverheadPct)
		}
		tracingNote = fmt.Sprintf(", tracing overhead %+.2f%%", tb.OverheadPct)
	}
	fmt.Fprintf(out, "%s: valid (%d kernels, %d measurements%s%s%s)\n", path, len(sizesByKernel), len(rep.Results), serveNote, corpusNote, tracingNote)
	return nil
}
