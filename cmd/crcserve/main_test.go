package main

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"errors"
	"io"
	"math/big"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"koopmancrc/serve/client"
)

// syncBuffer lets the test read run's output while run still writes it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var addrRe = regexp.MustCompile(`listening on (https?)://(\S+)`)

// startServe runs the command on an ephemeral port and returns its base
// URL and a shutdown func that asserts a clean exit.
func startServe(t *testing.T, args ...string) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() { done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), out) }()

	var url string
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			url = m[1] + "://" + m[2]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("crcserve exited early: %v (output %q)", err, out.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
	if url == "" {
		t.Fatalf("no listen line in output %q", out.String())
	}
	return url, func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("shutdown returned %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Error("crcserve did not shut down")
		}
	}
}

func TestServeAndGracefulShutdown(t *testing.T) {
	url, stop := startServe(t)
	defer stop()

	c := client.New(url)
	ctx := context.Background()
	if err := c.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	sum, err := c.Checksum(ctx, "CRC-32/IEEE-802.3", []byte("123456789"))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Hex != "0xcbf43926" {
		t.Fatalf("check value %+v", sum)
	}
}

// TestServeMaxBody wires -maxbody through the binary: a small checksum
// body answers as usual, and a body past the cap gets a 413 that carries
// the request ID.
func TestServeMaxBody(t *testing.T) {
	url, stop := startServe(t, "-maxbody", "256")
	defer stop()

	c := client.New(url)
	ctx := context.Background()
	sum, err := c.Checksum(ctx, "CRC-32/IEEE-802.3", []byte("123456789"))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Hex != "0xcbf43926" {
		t.Fatalf("check value %+v", sum)
	}

	_, err = c.Checksum(ctx, "CRC-32/IEEE-802.3", make([]byte, 512))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over -maxbody 256: error %v, want a 413 APIError", err)
	}
	if apiErr.RequestID == "" {
		t.Fatalf("413 without a request ID: %+v", apiErr)
	}
}

func TestServeToken(t *testing.T) {
	url, stop := startServe(t, "-token", "sesame")
	defer stop()

	ctx := context.Background()
	if err := client.New(url).Healthz(ctx); err != nil {
		t.Fatal(err) // healthz stays open
	}
	if _, err := client.New(url).Algorithms(ctx); err == nil {
		t.Fatal("request without token accepted")
	}
	if _, err := client.New(url, client.WithToken("sesame")).Algorithms(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestServeTLS(t *testing.T) {
	certFile, keyFile, pool := selfSigned(t)
	url, stop := startServe(t, "-cert", certFile, "-key", keyFile)
	defer stop()

	hc := &http.Client{Transport: &http.Transport{
		TLSClientConfig: &tls.Config{RootCAs: pool},
	}}
	c := client.New(url, client.WithHTTPClient(hc))
	if err := c.Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Plain HTTP clients must not get through a TLS listener.
	if err := client.New(url).Healthz(context.Background()); err == nil {
		t.Fatal("untrusting client connected to TLS listener")
	}
}

func TestFlagErrors(t *testing.T) {
	if err := run(context.Background(), []string{"-cert", "only.crt"}, io.Discard); err == nil {
		t.Error("-cert without -key should error")
	}
	if err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-bogus"}, io.Discard); err == nil {
		t.Error("unknown flag should error")
	}
}

// selfSigned writes a throwaway cert/key pair for 127.0.0.1 and returns
// the paths plus a pool trusting it.
func selfSigned(t *testing.T) (certFile, keyFile string, pool *x509.CertPool) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "crcserve-test"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IPAddresses:           []net.IP{net.ParseIP("127.0.0.1")},
		IsCA:                  true,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	keyDER, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	certFile = filepath.Join(dir, "server.crt")
	keyFile = filepath.Join(dir, "server.key")
	certPEM := pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der})
	if err := os.WriteFile(certFile, certPEM, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keyFile, pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER}), 0o600); err != nil {
		t.Fatal(err)
	}
	pool = x509.NewCertPool()
	pool.AppendCertsFromPEM(certPEM)
	return certFile, keyFile, pool
}

var pprofRe = regexp.MustCompile(`pprof on (http://\S+/debug/pprof/)`)

func TestServePprofSeparateListener(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-pprof", ":0"}, out)
	}()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("shutdown returned %v", err)
		}
	}()

	var apiURL, pprofURL string
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s := out.String()
		if m := addrRe.FindStringSubmatch(s); m != nil {
			apiURL = m[1] + "://" + m[2]
		}
		if m := pprofRe.FindStringSubmatch(s); m != nil {
			pprofURL = m[1]
		}
		if apiURL != "" && pprofURL != "" {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if apiURL == "" || pprofURL == "" {
		t.Fatalf("missing listen lines in output %q", out.String())
	}
	// The bare :0 must have been pinned to loopback.
	if !regexp.MustCompile(`http://127\.0\.0\.1:\d+/`).MatchString(pprofURL) {
		t.Fatalf("pprof bound to %q, want loopback", pprofURL)
	}

	resp, err := http.Get(pprofURL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("goroutine")) {
		t.Fatalf("pprof index: %d %q", resp.StatusCode, body[:min(len(body), 120)])
	}

	// The profiler must NOT be reachable through the public API mux.
	resp, err = http.Get(apiURL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof handlers leaked onto the public mux")
	}
}

// TestServeTracingFlags wires -traces/-tracesample through the binary:
// at sample rate 1 a request's X-Trace-ID resolves on /v1/traces/{id}
// and the list endpoint sees it; -traces 0 switches tracing off.
func TestServeTracingFlags(t *testing.T) {
	url, stop := startServe(t, "-tracesample", "1")
	defer stop()

	resp, err := http.Post(url+"/v1/checksum", "application/json",
		strings.NewReader(`{"algorithm":"CRC-32/IEEE-802.3","text":"123456789"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	traceID := resp.Header.Get("X-Trace-ID")
	if resp.StatusCode != http.StatusOK || traceID == "" {
		t.Fatalf("checksum: %d, X-Trace-ID %q", resp.StatusCode, traceID)
	}

	one, err := http.Get(url + "/v1/traces/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(one.Body)
	one.Body.Close()
	if one.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"/v1/checksum"`)) {
		t.Fatalf("trace lookup: %d %s", one.StatusCode, body)
	}
	list, err := http.Get(url + "/v1/traces?endpoint=/v1/checksum")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(list.Body)
	list.Body.Close()
	if list.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(traceID)) {
		t.Fatalf("trace list: %d %s", list.StatusCode, body)
	}
}

func TestServeTracingDisabled(t *testing.T) {
	url, stop := startServe(t, "-traces", "0")
	defer stop()

	resp, err := http.Get(url + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/traces with -traces 0: %d, want 404", resp.StatusCode)
	}
}

func TestServeTracingFlagValidation(t *testing.T) {
	if err := run(context.Background(), []string{"-traces", "-1"}, io.Discard); err == nil {
		t.Error("negative -traces should error")
	}
	if err := run(context.Background(), []string{"-tracesample", "1.5"}, io.Discard); err == nil {
		t.Error("-tracesample above 1 should error")
	}
}
