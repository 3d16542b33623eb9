// Package client is a small Go client for the crcserve HTTP API (see
// koopmancrc/serve): typed wrappers over the JSON endpoints, bearer-token
// auth, and SSE consumption of streaming evaluations.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"koopmancrc/serve"
)

// APIError is a non-2xx reply from the server, carrying the HTTP status,
// the server's error message and the request ID (from the error body or
// the X-Request-ID response header) that locates the failure in the
// server's logs.
type APIError struct {
	StatusCode int
	Message    string
	RequestID  string
}

func (e *APIError) Error() string {
	msg := fmt.Sprintf("crcserve: %d %s: %s", e.StatusCode, http.StatusText(e.StatusCode), e.Message)
	if e.RequestID != "" {
		msg += " (request " + e.RequestID + ")"
	}
	return msg
}

// Client talks to one crcserve instance. The zero value is not usable;
// construct with New.
type Client struct {
	base  string
	hc    *http.Client
	token string
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying http.Client (custom TLS
// roots, timeouts, proxies).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithToken attaches a bearer token to every request.
func WithToken(token string) Option { return func(c *Client) { c.token = token } }

// New returns a client for the server at baseURL (e.g.
// "http://127.0.0.1:8370").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: http.DefaultClient}
	for _, fn := range opts {
		fn(c)
	}
	return c
}

// roundTrip performs one JSON request; in is nil for GET.
func (c *Client) roundTrip(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	c.prepare(req, in != nil)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *Client) prepare(req *http.Request, hasBody bool) {
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
}

func decodeError(resp *http.Response) error {
	apiErr := &APIError{StatusCode: resp.StatusCode, RequestID: resp.Header.Get("X-Request-ID")}
	var er serve.ErrorResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&er); err == nil && er.Error != "" {
		apiErr.Message = er.Error
		if er.RequestID != "" {
			apiErr.RequestID = er.RequestID
		}
	} else {
		apiErr.Message = "(no error body)"
	}
	return apiErr
}

// Evaluate computes the HD-vs-length profile of one polynomial.
func (c *Client) Evaluate(ctx context.Context, req serve.EvaluateRequest) (*serve.EvaluateResponse, error) {
	var out serve.EvaluateResponse
	if err := c.roundTrip(ctx, http.MethodPost, "/v1/evaluate", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// EvaluateStream is Evaluate over SSE: onProgress (optional) receives
// live search ticks, and the final result event is returned when the
// evaluation completes.
func (c *Client) EvaluateStream(ctx context.Context, req serve.EvaluateRequest, onProgress func(serve.ProgressEvent)) (*serve.EvaluateResponse, error) {
	data, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/evaluate?stream=1", bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	c.prepare(hreq, true)
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}

	var event string
	var payload bytes.Buffer
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			// Successive data: lines of one event join with a newline
			// (the SSE spec's concatenation rule).
			if payload.Len() > 0 {
				payload.WriteByte('\n')
			}
			payload.WriteString(strings.TrimSpace(strings.TrimPrefix(line, "data:")))
		case line == "":
			switch event {
			case "progress":
				if onProgress != nil {
					var p serve.ProgressEvent
					if err := json.Unmarshal(payload.Bytes(), &p); err == nil {
						onProgress(p)
					}
				}
			case "result":
				var out serve.EvaluateResponse
				if err := json.Unmarshal(payload.Bytes(), &out); err != nil {
					return nil, fmt.Errorf("crcserve: bad result event: %w", err)
				}
				return &out, nil
			case "error":
				var er serve.ErrorResponse
				if err := json.Unmarshal(payload.Bytes(), &er); err != nil {
					return nil, fmt.Errorf("crcserve: bad error event: %w", err)
				}
				rid := er.RequestID
				if rid == "" {
					rid = resp.Header.Get("X-Request-ID")
				}
				return nil, &APIError{StatusCode: http.StatusOK, Message: er.Error, RequestID: rid}
			}
			event = ""
			payload.Reset()
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.ErrUnexpectedEOF
}

// HD returns the exact Hamming distance at one data-word length.
func (c *Client) HD(ctx context.Context, req serve.HDRequest) (*serve.HDResponse, error) {
	var out serve.HDResponse
	if err := c.roundTrip(ctx, http.MethodPost, "/v1/hd", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// MaxLenAtHD returns the largest length keeping a target HD.
func (c *Client) MaxLenAtHD(ctx context.Context, req serve.MaxLenRequest) (*serve.MaxLenResponse, error) {
	var out serve.MaxLenResponse
	if err := c.roundTrip(ctx, http.MethodPost, "/v1/maxlen", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Select ranks candidate polynomials for a message length, best first.
func (c *Client) Select(ctx context.Context, req serve.SelectRequest) (*serve.SelectResponse, error) {
	var out serve.SelectResponse
	if err := c.roundTrip(ctx, http.MethodPost, "/v1/select", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Checksum computes the CRC of data under a catalogued algorithm name.
func (c *Client) Checksum(ctx context.Context, algorithm string, data []byte) (*serve.ChecksumResponse, error) {
	var out serve.ChecksumResponse
	req := serve.ChecksumRequest{Algorithm: algorithm, Data: data}
	if err := c.roundTrip(ctx, http.MethodPost, "/v1/checksum", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// TracesOptions filters a Traces listing. Zero values mean "no filter"
// (and the server's default limit of 100).
type TracesOptions struct {
	// Endpoint restricts results to traces rooted at one endpoint label,
	// e.g. "/v1/evaluate".
	Endpoint string
	// MinDuration drops traces faster than this.
	MinDuration time.Duration
	// ErrorsOnly keeps only errored traces.
	ErrorsOnly bool
	// Limit caps the number of summaries returned (server default 100).
	Limit int
}

// Traces lists the server's retained trace summaries, newest first.
// Requires tracing enabled server-side (404 otherwise).
func (c *Client) Traces(ctx context.Context, opts TracesOptions) (*serve.TracesResponse, error) {
	q := url.Values{}
	if opts.Endpoint != "" {
		q.Set("endpoint", opts.Endpoint)
	}
	if opts.MinDuration > 0 {
		q.Set("min_duration", opts.MinDuration.String())
	}
	if opts.ErrorsOnly {
		q.Set("error", "true")
	}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	path := "/v1/traces"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out serve.TracesResponse
	if err := c.roundTrip(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Trace fetches one retained trace's full span tree by ID (as returned
// in X-Trace-ID response headers, exposition exemplars or Traces
// summaries). A 404 means the trace was never retained or has been
// evicted from the flight recorder.
func (c *Client) Trace(ctx context.Context, id string) (*serve.TraceData, error) {
	var out serve.TraceData
	if err := c.roundTrip(ctx, http.MethodGet, "/v1/traces/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Algorithms lists the server's catalogued algorithm names.
func (c *Client) Algorithms(ctx context.Context) ([]string, error) {
	var out serve.AlgorithmsResponse
	if err := c.roundTrip(ctx, http.MethodGet, "/v1/algorithms", nil, &out); err != nil {
		return nil, err
	}
	return out.Algorithms, nil
}

// Healthz checks server liveness.
func (c *Client) Healthz(ctx context.Context) error {
	return c.roundTrip(ctx, http.MethodGet, "/healthz", nil, nil)
}
