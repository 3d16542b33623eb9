package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"koopmancrc/internal/dist"
)

func TestParseLengths(t *testing.T) {
	got, err := parseLengths(" 16, 64,128 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 16 || got[2] != 128 {
		t.Errorf("parseLengths = %v", got)
	}
	if _, err := parseLengths("16,x"); err == nil {
		t.Error("bad entry should error")
	}
	if _, err := parseLengths("0"); err == nil {
		t.Error("non-positive length should error")
	}
}

func TestRunLocalSmall(t *testing.T) {
	if err := run([]string{"-mode", "local", "-width", "8", "-hd", "4", "-lengths", "9,19"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownMode(t *testing.T) {
	if err := run([]string{"-mode", "bogus"}); err == nil {
		t.Error("unknown mode should error")
	}
}

func TestResumeRequiresCheckpoint(t *testing.T) {
	if err := run([]string{"-mode", "coord", "-resume"}); err == nil {
		t.Error("-resume without -checkpoint should error")
	}
}

func TestStatusRequiresCheckpoint(t *testing.T) {
	if err := run([]string{"-mode", "status"}); err == nil {
		t.Error("-mode status without -checkpoint should error")
	}
}

func TestStatusEmptyCheckpointErrors(t *testing.T) {
	// A directory with no journal has no sweep to report on; status
	// must fail loudly instead of printing an empty sweep.
	if err := run([]string{"-mode", "status", "-checkpoint", t.TempDir()}); err == nil {
		t.Error("-mode status on an empty checkpoint should error")
	}
}

func TestResumeEmptyCheckpointErrors(t *testing.T) {
	// An empty journal directory has no sweep to continue; the
	// coordinator must refuse before binding the listener.
	err := run([]string{
		"-mode", "coord", "-listen", "127.0.0.1:0",
		"-width", "8", "-hd", "4", "-lengths", "9,19",
		"-checkpoint", t.TempDir(), "-resume",
	})
	if err == nil {
		t.Error("resuming an empty checkpoint should error")
	}
}

// finishedCheckpoint runs a width-8 sweep in 32-index jobs to
// completion with a checkpoint and returns its directory.
func finishedCheckpoint(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	coord, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec:          dist.SearchSpec{Width: 8, MinHD: 4, Lengths: []int{9, 19}},
		JobSize:       32,
		CheckpointDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := dist.NewWorker(coord.Addr(), dist.WorkerConfig{ID: "solo"})
	done := make(chan error, 1)
	go func() { _, err := w.Run(context.Background()); done <- err }()
	if _, err := coord.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	coord.Close()
	return dir
}

// captureStdout returns what f prints to standard output.
func captureStdout(t *testing.T, f func() error) ([]byte, error) {
	t.Helper()
	old := os.Stdout
	r, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = pw
	out := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(r) // a pipe read fails only once pw closes
		out <- b
	}()
	ferr := f()
	pw.Close()
	os.Stdout = old
	return <-out, ferr
}

func TestStatusJSON(t *testing.T) {
	// Render a finished sweep's status as JSON and decode it back into
	// the dist.Status shape.
	dir := finishedCheckpoint(t)
	out, err := captureStdout(t, func() error { return runStatus(dir, true) })
	if err != nil {
		t.Fatal(err)
	}

	var st dist.Status
	if err := json.Unmarshal(out, &st); err != nil {
		t.Fatalf("status -json is not valid JSON: %v\n%s", err, out)
	}
	if !st.Complete || st.TotalIndices != 128 || st.DoneIndices != 128 || st.TotalJobs != 4 || st.DoneJobs != 4 {
		t.Errorf("decoded status %+v", st)
	}
	if len(st.Workers) != 1 || st.Workers[0].ID != "solo" || st.Workers[0].JobsDone == 0 {
		t.Errorf("decoded workers %+v", st.Workers)
	}
	// The wire field names are snake_case, not Go identifiers.
	for _, key := range []string{`"total_indices"`, `"total_jobs"`, `"done_jobs"`, `"jobs_done"`, `"complete"`} {
		if !bytes.Contains(out, []byte(key)) {
			t.Errorf("JSON missing key %s:\n%s", key, out)
		}
	}
}

// TestResumeJobSize: -resume keeps the checkpoint's job size when
// -jobsize is left at its default, and refuses a different one, naming
// both sizes. The resumed finished sweep prints what -mode local does.
func TestResumeJobSize(t *testing.T) {
	dir := finishedCheckpoint(t)
	args := []string{"-listen", "127.0.0.1:0", "-width", "8", "-hd", "4", "-lengths", "9,19"}
	coord := append([]string{"-mode", "coord", "-checkpoint", dir, "-resume"}, args...)
	err := run(append(coord, "-jobsize", "64"))
	if err == nil || !strings.Contains(err.Error(), "job size 32") || !strings.Contains(err.Error(), "job size 64") {
		t.Errorf("resume with -jobsize 64: error %v, want one naming sizes 32 and 64", err)
	}
	resumed, err := captureStdout(t, func() error { return run(coord) })
	if err != nil {
		t.Fatalf("resume with the default -jobsize: %v", err)
	}
	local, err := captureStdout(t, func() error { return run(append([]string{"-mode", "local"}, args...)) })
	if err != nil {
		t.Fatal(err)
	}
	// Only the polys/s rate on the first line may differ.
	rate := regexp.MustCompile(` \(\d+ polys/s\)`)
	if got, want := rate.ReplaceAll(resumed, nil), rate.ReplaceAll(local, nil); !bytes.Equal(got, want) {
		t.Errorf("resumed coordinator printed\n%s\nlocal mode printed\n%s", resumed, local)
	}
}
