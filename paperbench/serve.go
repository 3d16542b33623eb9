package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"time"

	"koopmancrc/serve"
	"koopmancrc/serve/client"
)

// serveW drives crcserve's /v1/evaluate in process over loopback through
// the repository's serve/client, one client on one keep-alive
// connection. One operation is one request, of a single kind per
// workload:
//
//   - evaluate_cold: a fresh random 32-bit polynomial (pool miss: new
//     session, engine scans);
//   - evaluate_warm: a Table 1 polynomial that set-up already evaluated
//     (pool hit, answered from the session's memo).
//
// The server runs with its default configuration, request tracing
// included; the traced run retains every request trace and splits the
// request by the server's own span tree.
type serveW struct {
	rng     *rand.Rand
	warm    bool
	tracing bool

	srv  *serve.Server
	hs   *http.Server
	done chan struct{} // closed once hs.Serve has returned
	hc   *http.Client
	rt   *traceIDTransport
	c    *client.Client
}

const (
	coldMaxLen = 128
	coldMaxHD  = 4
	warmMaxLen = 128
	warmMaxHD  = 5
)

func newEvaluateCold(rng *rand.Rand, tracing bool) workload {
	return &serveW{rng: rng, tracing: tracing}
}

func newEvaluateWarm(rng *rand.Rand, tracing bool) workload {
	return &serveW{rng: rng, warm: true, tracing: tracing}
}

// traceIDTransport remembers the X-Trace-ID of the last response: the ID
// under which the server recorded that request's span tree. The client
// makes one request at a time, so no lock is needed.
type traceIDTransport struct {
	http.RoundTripper
	last string
}

func (t *traceIDTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.RoundTripper.RoundTrip(req)
	if err == nil {
		t.last = resp.Header.Get("X-Trace-ID")
	}
	return resp, err
}

// setup starts a server on a fresh listener and connects to it. For
// evaluate_warm it also evaluates the Table 1 polynomials the operations
// ask about, which fills the session pool.
func (w *serveW) setup() error {
	cfg := serve.Config{}
	if w.tracing {
		cfg.TraceSampleRate = 1
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	w.srv, w.done = srv, make(chan struct{})
	w.hs = &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(w.done)
		_ = w.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	w.rt = &traceIDTransport{RoundTripper: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	w.hc = &http.Client{Transport: w.rt}
	w.c = client.New("http://"+ln.Addr().String(), client.WithHTTPClient(w.hc))
	if err := w.c.Healthz(context.Background()); err != nil {
		return err
	}
	if !w.warm {
		return nil
	}
	for _, c := range table1 {
		resp, err := w.c.Evaluate(context.Background(), evaluateRequest(c.koopman, warmMaxLen, warmMaxHD))
		if err != nil {
			return err
		}
		if err := checkWarm(c, resp); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveW) close() {
	if w.hs == nil {
		return
	}
	_ = w.hs.Close() // the listener error is the only one, and Serve reports it
	<-w.done
	w.srv.Close()
	w.hc.CloseIdleConnections()
	w.hs = nil
}

func evaluateRequest(k uint32, maxLen, maxHD int) serve.EvaluateRequest {
	return serve.EvaluateRequest{
		PolyRef: serve.PolyRef{Poly: "0x" + strconv.FormatUint(uint64(k), 16), Width: 32},
		MaxLen:  maxLen,
		MaxHD:   maxHD,
	}
}

func (w *serveW) op(tr *trace) (func() error, error) {
	var (
		req  serve.EvaluateRequest
		col  column
		cold uint32
	)
	if w.warm {
		col = table1[w.rng.IntN(len(table1))]
		req = evaluateRequest(col.koopman, warmMaxLen, warmMaxHD)
	} else {
		cold = uint32(space) | w.rng.Uint32N(space)
		req = evaluateRequest(cold, coldMaxLen, coldMaxHD)
	}
	// The whole exchange is the "client" span; the server's own spans
	// nest inside it.
	start := time.Now()
	resp, err := w.c.Evaluate(context.Background(), req)
	tr.add("client", start)
	if err != nil {
		return nil, err
	}
	id := w.rt.last
	return func() error {
		if w.warm {
			err = checkWarm(col, resp)
		} else {
			err = checkProfile(cold, coldMaxLen, resp)
		}
		if err != nil || tr == nil {
			return err
		}
		return w.addServerTrace(tr, id)
	}, nil
}

// checkProfile verifies a profile's shape — bands contiguous over
// [1, maxLen] with HD falling as length grows — and the witness behind
// every boundary.
func checkProfile(k uint32, maxLen int, resp *serve.EvaluateResponse) error {
	next := 1
	for i, b := range resp.Bands {
		if b.From != next || b.To < b.From || (i > 0 && b.HD >= resp.Bands[i-1].HD) {
			return fmt.Errorf("poly %#x: malformed bands %+v", k, resp.Bands)
		}
		next = b.To + 1
	}
	if next != maxLen+1 {
		return fmt.Errorf("poly %#x: bands end at %d, want %d", k, next-1, maxLen)
	}
	for _, t := range resp.Transitions {
		if err := checkWitness(k, t.Weight, t.FirstLen, t.Witness); err != nil {
			return err
		}
	}
	return nil
}

// checkWarm compares a Table 1 polynomial's profile with the paper.
func checkWarm(c column, resp *serve.EvaluateResponse) error {
	if err := checkProfile(c.koopman, warmMaxLen, resp); err != nil {
		return err
	}
	for hd := 2; hd <= warmMaxHD; hd++ {
		want, ok := c.maxLenAtHD(hd, warmMaxLen)
		if !ok {
			continue
		}
		got := 0
		for _, b := range resp.Bands {
			if b.HD >= hd {
				got = max(got, b.To)
			}
		}
		if got != want {
			return fmt.Errorf("poly %#x: HD>=%d up to %d bits, Table 1 says %d", c.koopman, hd, got, want)
		}
	}
	return nil
}

// addServerTrace fetches one request's span tree from the server's
// flight recorder and adds its spans to the operation's trace. The
// server runs in this process, so its clock is the benchmark's.
func (w *serveW) addServerTrace(tr *trace, id string) error {
	if id == "" {
		return fmt.Errorf("response carries no X-Trace-ID")
	}
	td, err := w.c.Trace(context.Background(), id)
	if err != nil {
		return err
	}
	var walk func(s *serve.SpanData)
	walk = func(s *serve.SpanData) {
		if s == nil {
			return
		}
		sp := span{name: s.Name, start: s.Start.UnixNano(), end: s.Start.UnixNano() + s.DurationNS}
		for _, a := range s.Attrs {
			if a.K == "probes" {
				sp.probes, _ = strconv.ParseInt(a.V, 10, 64) // absent or malformed counts as no work
			}
		}
		tr.spans = append(tr.spans, sp)
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(td.Root)
	return nil
}

func (w *serveW) verify() error { return nil }
