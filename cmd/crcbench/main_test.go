package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// checkedIn lists the crcbench reports kept at the repository root.
// They carry rows for the retired slicing8 and chorba kernels and an
// auto_profile key the current schema no longer writes.
var checkedIn = []string{"BENCH_PR6.json", "BENCH_PR8.json", "BENCH_PR9.json", "BENCH_PR10.json"}

func TestValidateCheckedInReports(t *testing.T) {
	for _, name := range checkedIn {
		if err := validateReport(filepath.Join("..", "..", name), io.Discard); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// writeMutated loads BENCH_PR10.json, applies mutate to its decoded
// report and writes the result to a temporary file.
func writeMutated(t *testing.T, mutate func(*Report)) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_PR10.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	mutate(&rep)
	out, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestValidateRejectsUnknownKernel(t *testing.T) {
	path := writeMutated(t, func(r *Report) { r.Results[0].Kernel = "warpdrive" })
	err := validateReport(path, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "warpdrive") {
		t.Fatalf("validateReport = %v, want an unknown-kernel error", err)
	}
}

func TestValidateRejectsEmptyAutoKernel(t *testing.T) {
	path := writeMutated(t, func(r *Report) { r.AutoKernel = "" })
	err := validateReport(path, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "auto_kernel") {
		t.Fatalf("validateReport = %v, want an auto_kernel error", err)
	}
}

// TestRunWritesV2Report runs the measurement at its real size and
// checks the report's shape. It does not validate the file: the 2% gate
// is a timing, and a timing taken inside go test would make the suite
// flaky.
func TestRunWritesV2Report(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	if err := run([]string{"-o", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != schemaV2 {
		t.Errorf("schema = %q, want %q", rep.Schema, schemaV2)
	}
	if _, err := time.Parse(time.RFC3339, rep.GeneratedAt); err != nil {
		t.Errorf("generated_at: %v", err)
	}
	if h := rep.Host; h.GoVersion == "" || h.GOOS == "" || h.GOARCH == "" || h.NumCPU <= 0 {
		t.Errorf("incomplete host %+v", h)
	}
	tb := rep.Tracing
	if tb == nil {
		t.Fatal("report has no tracing section")
	}
	if tb.Requests <= 0 || tb.BaselineUS <= 0 || tb.InstrumentedUS <= 0 || tb.ReferenceUS <= 0 || tb.RecorderOpsPerSec <= 0 {
		t.Errorf("non-positive tracing measurement %+v", tb)
	}
	for _, key := range []string{"algorithm", "auto_kernel", "results"} {
		if strings.Contains(string(raw), `"`+key+`"`) {
			t.Errorf("v2 report carries v1 key %q", key)
		}
	}
}

// asV2 turns BENCH_PR10's v1 report into the v2 report a plain run
// writes: the header, the host and its tracing section.
func asV2(r *Report) {
	r.Schema = schemaV2
	r.Algorithm, r.AutoKernel, r.Results = "", "", nil
}

func TestValidateReports(t *testing.T) {
	for _, tt := range []struct {
		name    string
		mutate  func(*Report)
		wantErr string // "" means the report is valid
	}{
		{"v1 without results", func(r *Report) { r.Results = nil }, "no results"},
		{"v2", asV2, ""},
		{"v2 without tracing", func(r *Report) { asV2(r); r.Tracing = nil }, "missing tracing"},
		{"v2 inconsistent overhead", func(r *Report) { asV2(r); r.Tracing.OverheadPct += 0.5 }, "inconsistent"},
		{"v2 over the gate", func(r *Report) {
			asV2(r)
			r.Tracing.InstrumentedUS = r.Tracing.BaselineUS + 1.5 // 3% of 50 µs
			r.Tracing.OverheadPct = 3
		}, "2% gate"},
		{"unknown schema", func(r *Report) { asV2(r); r.Schema = "koopmancrc/crcbench/v3" }, "schema"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			err := validateReport(writeMutated(t, tt.mutate), io.Discard)
			switch {
			case tt.wantErr == "" && err != nil:
				t.Fatalf("validateReport = %v, want valid", err)
			case tt.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tt.wantErr)):
				t.Fatalf("validateReport = %v, want an error containing %q", err, tt.wantErr)
			}
		})
	}
}
