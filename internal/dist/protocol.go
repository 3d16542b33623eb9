package dist

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
)

// SearchSpec is the search every job belongs to, fixed for the lifetime
// of a Coordinator and echoed in each job message so workers need no
// out-of-band configuration.
type SearchSpec struct {
	// Width of the polynomials to search (2..32).
	Width int `json:"width"`
	// MinHD is the Hamming distance to demand.
	MinHD int `json:"min_hd"`
	// Lengths is the increasing-length filter schedule (bits); the last
	// entry is the target length.
	Lengths []int `json:"lengths"`
}

// equal reports whether two specs describe the same search.
func (s SearchSpec) equal(o SearchSpec) bool {
	if s.Width != o.Width || s.MinHD != o.MinHD || len(s.Lengths) != len(o.Lengths) {
		return false
	}
	for i, l := range s.Lengths {
		if l != o.Lengths[i] {
			return false
		}
	}
	return true
}

// Message types. The worker initiates every exchange and the coordinator
// answers each worker message with exactly one reply — except heartbeat,
// which is fire-and-forget so a worker can renew its lease from a side
// goroutine while the job computation (and the main request/reply loop)
// is still in flight:
//
//	worker → coord: next      (idle, requesting work; carries worker id)
//	worker → coord: result    (a completed job; also an implicit next)
//	worker → coord: heartbeat (mid-job lease renewal; no reply)
//	coord → worker: job       (an assignment: spec + [start, end) + lease)
//	coord → worker: wait      (no job available now — leases outstanding)
//	coord → worker: shutdown  (space fully covered; disconnect)
//
// Any other type, such as the result_batch of older workers, drops the
// connection that sent it.
const (
	msgNext      = "next"
	msgResult    = "result"
	msgHeartbeat = "heartbeat"
	msgJob       = "job"
	msgWait      = "wait"
	msgShutdown  = "shutdown"
)

// message is the single line-delimited JSON envelope for every exchange.
// Survivors travel as raw Koopman values; the coordinator rebuilds poly.P
// from the spec width.
type message struct {
	Type   string      `json:"type"`
	Worker string      `json:"worker,omitempty"`
	Spec   *SearchSpec `json:"spec,omitempty"`
	// Zero is meaningful for all numeric fields (job 0 starts at index
	// 0 and an empty shard has 0 candidates), so none are omitempty.
	JobID     uint64   `json:"job_id"`
	Start     uint64   `json:"start"`
	End       uint64   `json:"end"`
	Canonical uint64   `json:"canonical"`
	Survivors []uint64 `json:"survivors,omitempty"`
	ElapsedNS int64    `json:"elapsed_ns"`
	// LeaseNS, on a job message, is the coordinator's lease timeout:
	// workers derive their heartbeat cadence from it (0 = coordinator
	// predates heartbeats; don't send any).
	LeaseNS int64 `json:"lease_ns,omitempty"`
	// TraceID and ParentSpan, on a job message, propagate the
	// coordinator's per-grant trace context; the worker echoes TraceID on
	// the result and parents its spans under ParentSpan. Spans, on a
	// result, carries the worker's completed spans for coordinator-side
	// assembly. All three are ignored by peers that predate tracing, so
	// mixed fleets interoperate (see trace.go).
	TraceID    string     `json:"trace_id,omitempty"`
	ParentSpan string     `json:"parent_span,omitempty"`
	Spans      []WireSpan `json:"spans,omitempty"`
}

// maxFrameBytes caps one wire frame, one JSON message (512 MiB). The
// largest frame a worker legitimately sends is one job's result, about
// 11 bytes per survivor of a 32-bit search, so one job may return some
// 48 million survivors before its result is refused, while one peer can
// no longer make the coordinator buffer an unbounded value.
const maxFrameBytes = 512 << 20

// frameLimit is the cap recv enforces: maxFrameBytes, lowered only by
// tests (export_test.go) so an oversized frame stays cheap to send.
var frameLimit = maxFrameBytes

// wire frames line-delimited JSON messages over a connection. Decoding
// streams through json.Decoder, so a result carrying millions of
// survivors (a permissive filter on a large job) has no line-size cap
// that could wedge the job in a requeue loop; only the frame cap
// applies. Sends are serialized by a mutex because a worker's heartbeat
// goroutine writes concurrently with its request/reply loop.
type wire struct {
	conn net.Conn
	mu   sync.Mutex
	enc  *json.Encoder
	in   *frameReader
	dec  *json.Decoder
}

func newWire(conn net.Conn) *wire {
	in := &frameReader{r: conn}
	return &wire{conn: conn, enc: json.NewEncoder(conn), in: in, dec: json.NewDecoder(in)}
}

// frameReader fails once the decoder has read past max bytes of the
// connection, so one frame cannot grow the decoder's buffer unboundedly.
type frameReader struct {
	r      io.Reader
	n, max int64
}

func (f *frameReader) Read(p []byte) (int, error) {
	if f.n >= f.max {
		return 0, fmt.Errorf("dist: frame exceeds the %d-byte cap", frameLimit)
	}
	p = p[:min(int64(len(p)), f.max-f.n)]
	k, err := f.r.Read(p)
	f.n += int64(k)
	return k, err
}

// send writes one message as a single JSON line.
func (w *wire) send(m *message) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.enc.Encode(m)
}

// recv blocks for the next message. The next frame starts where the
// decoder's last value ended, and may run frameLimit bytes past it; the
// caller closes the connection on any error, since the stream cannot be
// resynchronised.
func (w *wire) recv() (*message, error) {
	w.in.max = w.dec.InputOffset() + int64(frameLimit)
	var m message
	if err := w.dec.Decode(&m); err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("dist: connection closed")
		}
		return nil, fmt.Errorf("dist: bad message: %w", err)
	}
	return &m, nil
}

func (w *wire) close() error { return w.conn.Close() }
