package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"koopmancrc/crchash"
	"koopmancrc/internal/obs"
)

// This file is the high-throughput ingestion tier: /v1/checksum/batch
// amortizes per-request HTTP/JSON overhead over many small payloads, and
// /v1/checksum/stream digests arbitrarily large bodies chunk-by-chunk
// through a hash.Hash32 without ever buffering them.

// StreamAlgorithmHeader names the algorithm for /v1/checksum/stream when
// the ?algorithm= query parameter is absent.
const StreamAlgorithmHeader = "X-Checksum-Algorithm"

// batchEngine is one resolved algorithm, looked up once per distinct
// name per batch no matter how many items use it.
type batchEngine struct {
	engine   crchash.Engine
	kernel   string
	hexWidth int
	err      error
}

func resolveBatchEngine(algorithm string) batchEngine {
	if algorithm == "" {
		return batchEngine{err: errors.New("missing algorithm")}
	}
	params, err := crchash.Lookup(algorithm)
	if err != nil {
		return batchEngine{err: err}
	}
	engine, err := crchash.ForAlgorithm(algorithm)
	if err != nil {
		return batchEngine{err: err}
	}
	return batchEngine{
		engine:   engine,
		kernel:   crchash.KindOf(engine).String(),
		hexWidth: (params.Poly.Width() + 3) / 4,
	}
}

func (s *Server) handleChecksumBatch(w http.ResponseWriter, r *http.Request) {
	var req ChecksumBatchRequest
	// The batch body bound is derived from MaxBatchBytes, not
	// MaxBodyBytes: base64 inflates payloads by 4/3 and the JSON framing
	// adds more, so twice the decoded-bytes cap covers any legitimate
	// batch while still bounding hostile ones.
	if err := s.decodeBounded(w, r, &req, 2*s.cfg.MaxBatchBytes); err != nil {
		writeError(w, r, decodeStatus(err), err)
		return
	}
	if len(req.Items) == 0 {
		writeError(w, r, http.StatusBadRequest, errors.New("empty batch"))
		return
	}
	if len(req.Items) > s.cfg.MaxBatchItems {
		writeError(w, r, http.StatusUnprocessableEntity,
			fmt.Errorf("%d items exceed the batch cap of %d", len(req.Items), s.cfg.MaxBatchItems))
		return
	}
	var total int64
	for _, item := range req.Items {
		n := int64(len(item.Data))
		if n == 0 {
			n = int64(len(item.Text))
		}
		total += n
	}
	if total > s.cfg.MaxBatchBytes {
		writeError(w, r, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch payloads total %d bytes, exceeding the cap of %d", total, s.cfg.MaxBatchBytes))
		return
	}

	// One engine resolution per distinct algorithm: a 1000-item batch of
	// one algorithm pays one catalogue lookup, not 1000.
	engines := make(map[string]batchEngine)
	resp := &ChecksumBatchResponse{Count: len(req.Items), Items: make([]ChecksumBatchItem, len(req.Items))}
	for i, item := range req.Items {
		out := &resp.Items[i]
		out.Algorithm = item.Algorithm
		be, ok := engines[item.Algorithm]
		if !ok {
			be = resolveBatchEngine(item.Algorithm)
			engines[item.Algorithm] = be
		}
		if be.err != nil {
			out.Error = be.err.Error()
			out.RequestID = obs.RequestID(r.Context())
			resp.Failed++
			continue
		}
		data := item.Data
		if len(data) == 0 && item.Text != "" {
			data = []byte(item.Text)
		}
		if int64(len(data)) > s.cfg.MaxBodyBytes {
			// The per-item ceiling matches the single-checksum endpoint:
			// an item too big for /v1/checksum fails alone, not the batch.
			out.Error = fmt.Sprintf("payload %d bytes exceeds the per-item cap of %d", len(data), s.cfg.MaxBodyBytes)
			out.RequestID = obs.RequestID(r.Context())
			resp.Failed++
			continue
		}
		sum := be.engine.Checksum(data)
		out.Length = len(data)
		out.Checksum = sum
		out.Hex = fmt.Sprintf("0x%0*x", be.hexWidth, sum)
		out.Kernel = be.kernel
		s.obs.checksums.With(be.kernel).Inc()
	}
	s.obs.batchItems.Observe(float64(resp.Count))
	s.obs.batchBytes.Observe(float64(total))
	obs.WriteJSON(w, http.StatusOK, resp)
}

// streamBufs pools the fixed-size copy buffers of the stream handler so
// its per-request buffering cost is O(1) in the body size and near-zero
// in steady state.
var streamBufs = sync.Pool{
	New: func() any {
		b := make([]byte, 64<<10)
		return &b
	},
}

func (s *Server) handleChecksumStream(w http.ResponseWriter, r *http.Request) {
	algorithm := r.URL.Query().Get("algorithm")
	if algorithm == "" {
		algorithm = r.Header.Get(StreamAlgorithmHeader)
	}
	if algorithm == "" {
		writeError(w, r, http.StatusBadRequest,
			fmt.Errorf("missing algorithm (use ?algorithm= or the %s header)", StreamAlgorithmHeader))
		return
	}
	params, err := crchash.Lookup(algorithm)
	if err != nil {
		writeError(w, r, http.StatusNotFound, err)
		return
	}
	engine, err := crchash.ForAlgorithm(algorithm)
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	kernel := crchash.KindOf(engine).String()
	digest := crchash.NewDigest(engine)

	ctx, cancel := s.requestCtx(r)
	defer cancel()
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxStreamBytes)
	bufp := streamBufs.Get().(*[]byte)
	defer streamBufs.Put(bufp)
	buf := *bufp

	var hashed int64
	for {
		// Poll cancellation between chunks: a gone client or an expired
		// server deadline stops the read loop promptly and abandons the
		// digest — the server never drains a body nobody is waiting on.
		if err := ctx.Err(); err != nil {
			writeError(w, r, statusForStream(r, err), fmt.Errorf("stream abandoned after %d bytes: %w", hashed, err))
			return
		}
		n, err := body.Read(buf)
		if n > 0 {
			digest.Write(buf[:n])
			hashed += int64(n)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			writeError(w, r, statusForStream(r, err), fmt.Errorf("reading stream body after %d bytes: %w", hashed, err))
			return
		}
	}

	sum := digest.Sum32()
	s.obs.streamBytes.Observe(float64(hashed))
	s.obs.checksums.With(kernel).Inc()
	obs.WriteJSON(w, http.StatusOK, &ChecksumResponse{
		Algorithm: algorithm,
		Length:    int(hashed),
		Checksum:  sum,
		Hex:       fmt.Sprintf("0x%0*x", (params.Poly.Width()+3)/4, sum),
		Kernel:    kernel,
	})
}

// statusForStream maps a mid-body failure to a status: 413 when the
// MaxStreamBytes bound tripped, 499 (the de-facto "client closed
// request" code) when the client went away, 504 on the server deadline,
// 400 for a broken body otherwise. For disconnects the status only
// feeds the error counters — nobody is listening for the response.
func statusForStream(r *http.Request, err error) int {
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case r.Context().Err() != nil:
		return 499
	default:
		return http.StatusBadRequest
	}
}
