// Command crcserve serves the koopmancrc evaluation and checksum API
// over HTTP: JSON endpoints backed by a bounded LRU pool of Analyzer
// sessions with singleflight coalescing of identical evaluations (see
// the serve package for the endpoint reference).
//
// Usage:
//
//	crcserve [-addr :8370] [-pool 64] [-maxlen 1048576] [-maxhd 13]
//	         [-timeout 0] [-maxprobes 0] [-token SECRET]
//	         [-maxbody 1048576] [-cert server.crt -key server.key]
//	         [-pprof 127.0.0.1:6060]
//	         [-corpus /var/lib/crc/corpus]
//	         [-traces 256] [-tracesample 0.1] [-accesslog]
//
// -token enables bearer-token auth (constant-time comparison) on every
// endpoint except /healthz; -cert/-key switch the listener to TLS. The
// server shuts down gracefully on SIGINT/SIGTERM, cancelling in-flight
// evaluations through the engines' cancellation hooks.
//
// -pprof starts net/http/pprof on its own listener, never on the
// public mux: profiles expose memory contents and the endpoint has no
// auth, so it must not share the API's address or its -token gate
// (which would put secrets and profiler on the same trust boundary).
// A bare port like ":6060" is rewritten to loopback; binding a
// non-loopback host requires spelling it out explicitly, and doing so
// is only sane behind a firewall.
//
// -corpus enables the persistent analysis corpus: evaluation sessions
// warm-start from memos baked offline with crcbake (a covered query
// answers with zero engine probes) and newly computed memos are
// persisted back write-behind. The directory is crash-safe — torn or
// corrupt journal tails are truncated at open, never served.
//
// -traces sizes the in-process flight recorder (0 disables tracing
// entirely). Every request builds a span tree — pool acquire,
// singleflight join, corpus warm-start, engine phases — and completed
// traces are tail-sampled into the recorder: errored requests and the
// slowest few per endpoint are always retained, the rest kept with
// probability -tracesample. Retained traces are served at
// GET /v1/traces and /v1/traces/{id} (behind -token like the rest of
// the API) and linked from latency buckets via OpenMetrics exemplars
// on the negotiated /metrics?format=openmetrics exposition (the
// classic 0.0.4 format stays exemplar-free, since its parser rejects
// trailers). -accesslog adds one structured log line per retained
// request.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"koopmancrc"
	"koopmancrc/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "crcserve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("crcserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8370", "listen address")
	cert := fs.String("cert", "", "TLS certificate file (requires -key)")
	key := fs.String("key", "", "TLS private key file (requires -cert)")
	token := fs.String("token", "", "bearer token required on every endpoint except /healthz")
	pool := fs.Int("pool", 64, "maximum live Analyzer sessions (LRU beyond it)")
	maxLen := fs.Int("maxlen", 1<<20, "clamp on per-request max_len/horizon (bits)")
	maxHD := fs.Int("maxhd", koopmancrc.DefaultMaxHD, "clamp on per-request max_hd")
	timeout := fs.Duration("timeout", 0, "per-request evaluation deadline (0 = none)")
	maxProbes := fs.Int64("maxprobes", 0, "ceiling on per-request probe budgets (0 = engine default)")
	maxBody := fs.Int64("maxbody", 1<<20, "cap on every JSON request body (bytes); a larger body gets 413")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this separate address (bare :port binds loopback; empty = off)")
	corpusDir := fs.String("corpus", "", "persistent analysis corpus directory: warm-start sessions from baked memos (see crcbake) and persist new ones write-behind (empty = off)")
	traces := fs.Int("traces", 256, "flight-recorder capacity in retained traces (0 = tracing off)")
	traceSample := fs.Float64("tracesample", 0.1, "tail-sampling keep probability for ordinary traces; errored and slowest-per-endpoint are always kept (0 = keep only those)")
	accessLog := fs.Bool("accesslog", false, "emit one structured access-log line per request whose trace the recorder retained")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*cert == "") != (*key == "") {
		return errors.New("-cert and -key must be given together")
	}
	if *traces < 0 {
		return errors.New("-traces must be >= 0")
	}
	if *traceSample < 0 || *traceSample > 1 {
		return errors.New("-tracesample must be in [0, 1]")
	}
	// The Config zero values mean "use the default", so "off" is spelled
	// negative when translating the flags.
	traceBuffer := *traces
	if traceBuffer == 0 {
		traceBuffer = -1
	}
	sampleRate := *traceSample
	if sampleRate == 0 {
		sampleRate = -1
	}

	srv, err := serve.New(serve.Config{
		PoolSize:        *pool,
		MaxLenCap:       *maxLen,
		MaxHDCap:        *maxHD,
		Timeout:         *timeout,
		Token:           *token,
		MaxBodyBytes:    *maxBody,
		Limits:          koopmancrc.Limits{MaxProbes: *maxProbes},
		CorpusDir:       *corpusDir,
		TraceBuffer:     traceBuffer,
		TraceSampleRate: sampleRate,
		AccessLog:       *accessLog,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	if *corpusDir != "" {
		fmt.Fprintf(out, "crcserve corpus at %s\n", *corpusDir)
	}

	if *pprofAddr != "" {
		pln, err := listenPprof(*pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		defer pln.Close()
		fmt.Fprintf(out, "crcserve pprof on http://%s/debug/pprof/ (unauthenticated; keep loopback or firewalled)\n", pln.Addr())
		go servePprof(pln)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	scheme := "http"
	if *cert != "" {
		scheme = "https"
	}
	fmt.Fprintf(out, "crcserve listening on %s://%s\n", scheme, ln.Addr())

	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		if *cert != "" {
			errCh <- hs.ServeTLS(ln, *cert, *key)
		} else {
			errCh <- hs.Serve(ln)
		}
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	// Cancel in-flight evaluations first — a long boundary scan would
	// otherwise hold Shutdown until its connection drained — then drain
	// the listener gracefully.
	srv.Close()
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return err
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(out, "crcserve stopped")
	return nil
}

// listenPprof opens the profiler's own listener. A bare ":port" (or an
// empty host) is rewritten to loopback so the unauthenticated debug
// surface never lands on all interfaces by accident; exposing it wider
// takes an explicit non-loopback host in the flag.
func listenPprof(addr string) (net.Listener, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, err
	}
	if host == "" {
		addr = net.JoinHostPort("127.0.0.1", port)
	}
	return net.Listen("tcp", addr)
}

// servePprof runs net/http/pprof on its own mux and server — the
// handlers are registered explicitly rather than through the package's
// DefaultServeMux side effect, so nothing can ever mount them on the
// public API mux.
func servePprof(ln net.Listener) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	_ = srv.Serve(ln) // closes with the listener on shutdown
}
