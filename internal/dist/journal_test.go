package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"koopmancrc/internal/core"
	"koopmancrc/internal/journal"
)

// retiredStages is a "stages" value as coordinators journaled it while
// the pipeline still reported per-stage filter statistics.
const retiredStages = `[{"name":"hd>=4@[9 19]","in":9,"out":2,"elapsed_ns":5}]`

// olderDoneRec and olderLedgerSnap are the done record and snapshot of
// such a journal: today's records plus the retired field.
type olderDoneRec struct {
	doneRec
	Stages json.RawMessage `json:"stages"`
}

type olderLedgerSnap struct {
	ledgerSnap
	Stages json.RawMessage `json:"stages"`
}

// writeCheckpoint journals a width-8 sweep cut into four 32-index jobs:
// a snapshot holding jobs 0 and 1 done, then a grant and a done record
// for job 2 in the WAL; job 3 is not carved yet. With older set, the
// snapshot and the done record carry the retired "stages" field.
func writeCheckpoint(t *testing.T, dir string, spec SearchSpec, older bool) {
	t.Helper()
	space, err := core.NewSpace(spec.Width)
	if err != nil {
		t.Fatal(err)
	}
	pl := &core.Pipeline{Space: space, Lengths: spec.Lengths, MinHD: spec.MinHD, Workers: 1}
	done := func(id uint64) doneRec {
		res, err := pl.RunShard(context.Background(), id*32, id*32+32)
		if err != nil {
			t.Fatal(err)
		}
		d := doneRec{JobID: id, Worker: "old", Canonical: res.Canonical, ElapsedNS: 1000, TS: int64(10 + id)}
		for _, p := range res.Survivors {
			d.Survivors = append(d.Survivors, p.Koopman())
		}
		return d
	}
	d0, d1, d2 := done(0), done(1), done(2)
	snap := ledgerSnap{
		Begin:     beginRec{Version: journalVersion, Spec: spec, JobSize: 32, Total: space.TotalPolynomials(), TS: 1},
		NextStart: 64,
		Jobs: []snapJob{
			{ID: 0, Start: 0, End: 32, Done: true, Worker: "old"},
			{ID: 1, Start: 32, End: 64, Done: true, Worker: "old"},
		},
		Canonical: d0.Canonical + d1.Canonical,
		Survivors: append(append([]uint64(nil), d0.Survivors...), d1.Survivors...),
		Workers: []workerSnap{{ID: "old", Rate: 1000, JobsDone: 2,
			Canonical: d0.Canonical + d1.Canonical, ElapsedNS: 2000, LastSize: 32}},
		TS: 11,
	}
	j, _, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snapV, doneV any = snap, d2
	if older {
		snapV = olderLedgerSnap{snap, json.RawMessage(retiredStages)}
		doneV = olderDoneRec{d2, json.RawMessage(retiredStages)}
	}
	if err := j.Snapshot(snapV); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(recGrant, grantRec{JobID: 2, Worker: "old", Start: 64, End: 96, TS: 12}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(recDone, doneV); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestResumeJournalWithRetiredStages checks that a checkpoint whose
// snapshot and done records carry the retired "stages" field still
// reads and resumes, exactly like the same checkpoint without it: the
// journal version was not bumped when the field went, because replay
// ignores fields it does not know.
func TestResumeJournalWithRetiredStages(t *testing.T) {
	spec := SearchSpec{Width: 8, MinHD: 4, Lengths: []int{9, 19}}
	olderDir, currentDir := t.TempDir(), t.TempDir()
	writeCheckpoint(t, olderDir, spec, true)
	writeCheckpoint(t, currentDir, spec, false)
	for _, name := range []string{"snapshot.jlog", "wal.jlog"} {
		raw, err := os.ReadFile(filepath.Join(olderDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(raw, []byte(`"stages":[`)) {
			t.Fatalf("older %s carries no stages field:\n%s", name, raw)
		}
	}

	olderSt, err := ReadStatus(olderDir)
	if err != nil {
		t.Fatal(err)
	}
	currentSt, err := ReadStatus(currentDir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(olderSt, currentSt) {
		t.Errorf("status of the older journal %+v, of the current one %+v", olderSt, currentSt)
	}
	if olderSt.DoneJobs != 3 || olderSt.CarvedJobs != 3 || olderSt.UncarvedIndices != 32 {
		t.Errorf("status = %+v, want 3 of 3 carved jobs done and 32 indices uncarved", olderSt)
	}

	resume := func(dir string) *Summary {
		t.Helper()
		c, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{
			Spec: spec, JobSize: 32, LeaseTimeout: time.Minute,
			CheckpointDir: dir, Resume: true, Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := NewWorker(c.Addr(), WorkerConfig{ID: "new", Logf: t.Logf}).Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		sum, err := c.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		sum.Elapsed = 0
		return sum
	}
	older, current := resume(olderDir), resume(currentDir)
	if !reflect.DeepEqual(older, current) {
		t.Errorf("resumed older journal to %+v, current one to %+v", older, current)
	}
	space, _ := core.NewSpace(spec.Width)
	whole, err := (&core.Pipeline{Space: space, Lengths: spec.Lengths, MinHD: spec.MinHD}).
		RunShard(context.Background(), 0, space.TotalPolynomials())
	if err != nil {
		t.Fatal(err)
	}
	if older.Jobs != 4 || older.Resumed != 3 || older.Canonical != whole.Canonical ||
		!reflect.DeepEqual(older.Survivors, whole.Survivors) {
		t.Errorf("resumed summary %+v, want 4 jobs (3 resumed), %d candidates and survivors %v",
			older, whole.Canonical, whole.Survivors)
	}
}
