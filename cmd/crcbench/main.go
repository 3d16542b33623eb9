// Command crcbench measures the request-tracing tax of the serving
// layer and validates the crcbench reports kept at the repository root.
//
// Usage:
//
//	crcbench [-o FILE]
//	crcbench -validate FILE
//
// A plain run drives warm /v1/checksum requests through two in-process
// servers, tracing off and tracing on, and writes a
// koopmancrc/crcbench/v2 report: generated_at, host and the tracing
// section. -validate checks a report and exits non-zero on a malformed
// file or a tracing overhead over 2%, so CI can gate on it without
// re-measuring. It accepts both schemas: v2 reports from this command,
// and the v1 reports BENCH_PR6–10, written by the retired kernel-sweep,
// -serve and -corpus modes and kept as history. Kernel throughput is
// measured by BenchmarkCRCThroughput and paperbench's checksum workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"koopmancrc"
	"koopmancrc/crchash"
	"koopmancrc/internal/obs"
	"koopmancrc/serve"
)

// Report is the artifact schema. A v2 report carries the header, the
// host and Tracing. A v1 report, recorded by the retired kernel-sweep
// mode and validated as history, also carries Algorithm, AutoKernel and
// one row per kernel × payload size, and may carry Serve, Corpus or
// Tracing.
type Report struct {
	// Schema names the artifact format; bump on incompatible change.
	Schema string `json:"schema"`
	// GeneratedAt is RFC 3339 UTC.
	GeneratedAt string `json:"generated_at"`
	Host        Host   `json:"host"`
	// Algorithm is the catalogued algorithm swept (v1).
	Algorithm string `json:"algorithm,omitempty"`
	// AutoKernel is the kernel Kind Auto built for the algorithm (v1).
	AutoKernel string   `json:"auto_kernel,omitempty"`
	Results    []Result `json:"results,omitempty"`
	// Serve, when present (v1 -serve), measured the serving layer's
	// batch amortization: many small checksums in one
	// /v1/checksum/batch round trip versus the same checksums as
	// sequential /v1/checksum calls.
	Serve *ServeBench `json:"serve,omitempty"`
	// Corpus, when present (v1 -corpus), measured the persistent-corpus
	// warm start: the first /v1/evaluate on a cold server versus one
	// warm-started from a corpus baked offline with the same sweep.
	Corpus *CorpusBench `json:"corpus,omitempty"`
	// Tracing measures the request-tracing tax: warm request cost with
	// the flight recorder on versus off, plus raw recorder admission
	// throughput. Required in v2, optional in v1.
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

// CorpusBench is the warm-start measurement recorded by the retired
// -corpus mode and validated as history: one polynomial baked into a
// throwaway corpus, then the same first evaluation timed against an
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

// ServeBench is the serve-level amortization measurement recorded by
// the retired -serve mode and validated as history: Items small
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
// reports across checkins.
type Host struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
}

// Result is one kernel × payload-size measurement (v1).
type Result struct {
	Kernel string `json:"kernel"`
	// Size is the payload length in bytes.
	Size int `json:"size"`
	// GBps is throughput in decimal gigabytes per second.
	GBps float64 `json:"gbps"`
}

const (
	schemaV1 = "koopmancrc/crcbench/v1"
	schemaV2 = "koopmancrc/crcbench/v2"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "crcbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("crcbench", flag.ContinueOnError)
	outPath := fs.String("o", "", "write the JSON report here instead of stdout")
	validate := fs.String("validate", "", "validate an existing report file and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *validate != "" {
		return validateReport(*validate, out)
	}

	tb, err := measureTracing()
	if err != nil {
		return fmt.Errorf("tracing bench: %w", err)
	}
	fmt.Fprintf(out, "tracing    %6d reqs  off %7.2fus  on %7.2fus  overhead %+5.2f%% of %gus  recorder %9.0f ops/s\n",
		tb.Requests, tb.BaselineUS, tb.InstrumentedUS, tb.OverheadPct, tb.ReferenceUS, tb.RecorderOpsPerSec)
	rep := Report{
		Schema:      schemaV2,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Host: Host{
			GoVersion: runtime.Version(),
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
			NumCPU:    runtime.NumCPU(),
		},
		Tracing: tb,
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

// measureTracing drives warm /v1/checksum requests straight through
// the handler — no listener, no network — against two servers that
// differ only in tracing: recorder off versus on at the defaults
// crcserve ships (256 traces, sample rate 0.1). Each arm takes the
// minimum over several measurement blocks, the standard estimator for
// shaving scheduler noise off a hot-loop timing. The recorder's raw
// admission rate is measured separately over pre-built span trees with
// distinct IDs, so sampling decisions vary the way live traffic's do.
func measureTracing() (*TracingBench, error) {
	const refUS = 50.0
	const rounds, blocks = 20000, 10
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
	const budget = 500 * time.Millisecond
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

// validateReport checks a report file: schema tag, generated_at and
// host fields for both schemas, then a tracing section for v2. A v1
// report additionally needs its algorithm, a known auto kernel, at
// least one kernel measured over at least four sizes with every
// throughput positive, and consistent serve, corpus and tracing
// sections where present. It is the CI gate on the checked-in reports.
func validateReport(path string, out io.Writer) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != schemaV1 && rep.Schema != schemaV2 {
		return fmt.Errorf("%s: schema %q, want %q or %q", path, rep.Schema, schemaV2, schemaV1)
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
	if rep.Schema == schemaV2 {
		if rep.Tracing == nil {
			return fmt.Errorf("%s: missing tracing section", path)
		}
		if err := checkTracing(rep.Tracing); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Fprintf(out, "%s: valid (tracing overhead %+.2f%%)\n", path, rep.Tracing.OverheadPct)
		return nil
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
		if err := checkTracing(tb); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		tracingNote = fmt.Sprintf(", tracing overhead %+.2f%%", tb.OverheadPct)
	}
	fmt.Fprintf(out, "%s: valid (%d kernels, %d measurements%s%s%s)\n", path, len(sizesByKernel), len(rep.Results), serveNote, corpusNote, tracingNote)
	return nil
}

// checkTracing checks a tracing section, in either schema: positive
// measurements, an overhead consistent with (on-off)/reference, and
// the 2% gate.
func checkTracing(tb *TracingBench) error {
	if tb.Requests <= 0 {
		return fmt.Errorf("tracing: non-positive request count %d", tb.Requests)
	}
	if tb.BaselineUS <= 0 || tb.InstrumentedUS <= 0 || tb.ReferenceUS <= 0 || tb.RecorderOpsPerSec <= 0 {
		return fmt.Errorf("tracing: non-positive measurement %+v", tb)
	}
	want := (tb.InstrumentedUS - tb.BaselineUS) / tb.ReferenceUS * 100
	if d := tb.OverheadPct - want; d < -0.05 || d > 0.05 {
		return fmt.Errorf("tracing: overhead %.3f%% inconsistent with (on-off)/reference %.3f%%", tb.OverheadPct, want)
	}
	if tb.OverheadPct > 2.0 {
		return fmt.Errorf("tracing: overhead %.3f%% exceeds the 2%% gate", tb.OverheadPct)
	}
	return nil
}
