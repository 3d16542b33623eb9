package dist

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"

	"koopmancrc/internal/obs"
)

// memConn is an in-memory net.Conn for the wire: reads drain r and
// writes append to w. wire uses no other method.
type memConn struct {
	net.Conn
	r io.Reader
	w bytes.Buffer
}

func (c *memConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *memConn) Write(p []byte) (int, error) { return c.w.Write(p) }

// FuzzWireRecv feeds arbitrary bytes to wire.recv, as an untrusted peer
// could send them, with the frame cap lowered to wireFuzzLimit. The
// same bytes go to a second wire whose cap exceeds the whole input, and
// the two receive in lockstep until either fails. recv must never
// panic. A frame the uncapped wire accepts (it reads the frame's length
// from the decoder's input offset) must be refused by the capped one
// once it runs past the cap, and accepted, as the same message, while it
// stays a byte short of it (the decoder may read one byte past a
// literal to end it). Every message accepted is sent again over a fresh
// wire and received back, and must come back with the same wire form
// (an empty list and an absent one travel alike).
func FuzzWireRecv(f *testing.F) {
	for _, m := range []*message{
		{Type: msgNext, Worker: "w1"},
		{Type: msgJob, Spec: &SearchSpec{Width: 8, MinHD: 4, Lengths: []int{16, 48}},
			JobID: 3, Start: 16, End: 32, LeaseNS: 1e9, TraceID: "t", ParentSpan: "p"},
		{Type: msgResult, Worker: "w1", JobID: 3, Canonical: 9, Survivors: []uint64{0x83, 0x9b},
			ElapsedNS: 77, Spans: []WireSpan{{ID: "a", Name: "dist.job", DurNS: 4, Attrs: []obs.Attr{{K: "k", V: "v"}}}}},
		{Type: msgHeartbeat, Worker: "w1", JobID: 3, Progress: 4},
	} {
		line, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append(line, '\n'))
	}
	f.Add([]byte(olderResultLine + "\n"))
	f.Add([]byte(olderJobLine + "\n" + olderHeartbeatLine + "\n"))
	f.Add([]byte(`{"type":"wait"} {"type":"shutdown"}` + "\n" + `{"type":"next"`))
	f.Add([]byte(`{"type":"next","worker":"big","pad":"` + strings.Repeat("a", 2*wireFuzzLimit) + `"}`))
	f.Add([]byte(strings.Repeat(" ", wireFuzzLimit-4) + "null null"))
	f.Add([]byte(`{"type":"job","spec":{"lengths":[]},"survivors":[],"job_id":-1}`))
	f.Add([]byte("\x00garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		defer SetFrameLimitForTest(wireFuzzLimit)()
		uncapped := newWire(&memConn{r: bytes.NewReader(data)})
		capped := newWire(&memConn{r: bytes.NewReader(data)})
		for {
			start := uncapped.dec.InputOffset()
			SetFrameLimitForTest(len(data) + 1)
			want, wantErr := uncapped.recv()
			frame := uncapped.dec.InputOffset() - start
			SetFrameLimitForTest(wireFuzzLimit)
			got, err := capped.recv()
			switch {
			case wantErr != nil:
				if err == nil {
					t.Fatalf("the capped wire accepted %+v where the uncapped one failed: %v", got, wantErr)
				}
				return
			case frame > wireFuzzLimit && err == nil:
				t.Fatalf("accepted a %d-byte frame past the %d-byte cap: %+v", frame, wireFuzzLimit, got)
			case frame < wireFuzzLimit && err != nil:
				t.Fatalf("refused a %d-byte frame within the %d-byte cap: %v", frame, wireFuzzLimit, err)
			case err != nil:
				return
			case !reflect.DeepEqual(got, want):
				t.Fatalf("the capped wire received %+v, the uncapped one %+v", got, want)
			}
			resent := &memConn{}
			if err := newWire(resent).send(got); err != nil {
				t.Fatal(err)
			}
			SetFrameLimitForTest(len(data) + resent.w.Len())
			again, err := newWire(&memConn{r: &resent.w}).recv()
			if err != nil {
				t.Fatalf("resent %+v was refused: %v", got, err)
			}
			if wire, want := wireForm(t, again), wireForm(t, got); !bytes.Equal(wire, want) {
				t.Fatalf("resent message came back as %s, want %s", wire, want)
			}
		}
	})
}

// olderResultLine is a result line as workers sent it while the
// pipeline still reported per-stage filter statistics: a "stages" field
// that no current message carries.
const olderResultLine = `{"type":"result","worker":"old","job_id":3,"start":0,"end":0,` +
	`"canonical":9,"survivors":[131,155],"elapsed_ns":77,` +
	`"stages":[{"name":"hd>=4@[9 19]","in":9,"out":2,"elapsed_ns":5}]}`

// olderResult is what olderResultLine must decode to.
var olderResult = &message{Type: msgResult, Worker: "old", JobID: 3, Canonical: 9,
	Survivors: []uint64{131, 155}, ElapsedNS: 77}

// olderJobLine and olderHeartbeatLine are a job and a heartbeat as
// peers sent them while workers could hold finished results for a
// batch: the job advertised "batch_ok" and the heartbeat renewed the
// held jobs' leases in "held". No current message carries either field.
const (
	olderJobLine = `{"type":"job","spec":{"width":8,"min_hd":4,"lengths":[9,19]},` +
		`"job_id":5,"start":16,"end":32,"canonical":0,"elapsed_ns":0,"lease_ns":1000000000,` +
		`"batch_ok":true,"trace_id":"t","parent_span":"p"}`
	olderHeartbeatLine = `{"type":"heartbeat","worker":"old","job_id":5,"start":0,"end":0,` +
		`"canonical":0,"elapsed_ns":0,"progress":4,"held":[1,2]}`
)

// TestRecvAcceptsOlderWorkerResult checks that messages still carrying
// retired fields (the result's "stages", the job's "batch_ok", the
// heartbeat's "held") are received, with every remaining field intact,
// and that the next frame on the stream decodes normally after them.
func TestRecvAcceptsOlderWorkerResult(t *testing.T) {
	w := newWire(&memConn{r: strings.NewReader(olderResultLine + "\n" + olderJobLine + "\n" +
		olderHeartbeatLine + "\n" + `{"type":"next","worker":"old"}` + "\n")})
	for _, want := range []*message{
		olderResult,
		{Type: msgJob, Spec: &SearchSpec{Width: 8, MinHD: 4, Lengths: []int{9, 19}},
			JobID: 5, Start: 16, End: 32, LeaseNS: 1e9, TraceID: "t", ParentSpan: "p"},
		{Type: msgHeartbeat, Worker: "old", JobID: 5, Progress: 4},
	} {
		got, err := w.recv()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("received %+v, want %+v", got, want)
		}
	}
	next, err := w.recv()
	if err != nil {
		t.Fatal(err)
	}
	if next.Type != msgNext || next.Worker != "old" {
		t.Errorf("frame after the older messages decoded as %+v", next)
	}
}

// wireFuzzLimit is the frame cap FuzzWireRecv tests against, small
// enough that short inputs cross it.
const wireFuzzLimit = 256

func wireForm(t *testing.T, m *message) []byte {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
