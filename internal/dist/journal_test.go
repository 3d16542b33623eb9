package dist

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"koopmancrc/internal/journal"
)

// Version-2 records, as coordinators journaled them while adaptive
// sizing carved the space at run time: a begin record, a grant carrying
// the carved range, a done record, and a snapshot holding the per-job
// carve table and per-worker sizing state.
const (
	v2Begin = `{"version":2,"spec":{"width":8,"min_hd":4,"lengths":[9,19]},"job_size":32,"total":128,"ts":1}`
	v2Grant = `{"job_id":0,"worker":"old","start":0,"end":32,"ts":2}`
	v2Done  = `{"job_id":0,"worker":"old","canonical":18,"elapsed_ns":1000,"ts":3}`
	v2Snap  = `{"begin":` + v2Begin + `,"next_start":64,` +
		`"jobs":[{"id":0,"start":0,"end":32,"done":true,"worker":"old"},{"id":1,"start":32,"end":64}],` +
		`"requeues":0,"canonical":18,` +
		`"workers":[{"id":"old","rate":1000,"jobs_done":1,"canonical":18,"elapsed_ns":1000,"last_size":32}],"ts":4}`
)

// TestV2CheckpointRefused checks that a version-2 checkpoint, whether
// compacted into a snapshot or still only in the WAL, is refused by both
// a resuming coordinator and ReadStatus, with an error naming both
// schema versions.
func TestV2CheckpointRefused(t *testing.T) {
	spec := SearchSpec{Width: 8, MinHD: 4, Lengths: []int{9, 19}}
	for _, tc := range []struct {
		name  string
		write func(j *journal.Journal) error
	}{
		{"snapshot", func(j *journal.Journal) error { return j.Snapshot(json.RawMessage(v2Snap)) }},
		{"wal", func(j *journal.Journal) error {
			for _, r := range []struct{ typ, data string }{
				{recBegin, v2Begin}, {"grant", v2Grant}, {recDone, v2Done},
			} {
				if err := j.Append(r.typ, json.RawMessage(r.data)); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j, _, err := journal.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.write(j); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			check := func(what string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), "version 2") || !strings.Contains(err.Error(), "version 3") {
					t.Errorf("%s of a v2 checkpoint: error %v, want one naming versions 2 and 3", what, err)
				}
			}
			_, err = ReadStatus(dir)
			check("ReadStatus", err)
			c, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{
				Spec: spec, LeaseTimeout: time.Minute, CheckpointDir: dir, Resume: true,
			})
			if err == nil {
				c.Close()
			}
			check("resume", err)
		})
	}
}
