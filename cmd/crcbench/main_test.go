package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

func TestQuickReportValidates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "quick.json")
	if err := run([]string{"-quick", "-budget", "1ms", "-o", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := validateReport(path, io.Discard); err != nil {
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
	if rep.AutoKernel != "hardware" {
		t.Errorf("auto_kernel for CRC-32C/iSCSI = %q, want hardware", rep.AutoKernel)
	}
	if strings.Contains(string(raw), "auto_profile") {
		t.Error("fresh report still carries auto_profile")
	}
}
