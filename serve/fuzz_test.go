package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"koopmancrc"
)

// FuzzDecodeEvaluateRequest runs arbitrary /v1/evaluate bodies through
// what the handler does before it touches a session: the strict bounded
// decoder, polynomial parsing, and the max_hd and limits clamps. It
// never runs the engine. Nothing may panic, a body the decoder refuses
// must map to 400 or 413, and an accepted request must come out with
// max_hd and max_probes inside the configured ceilings.
func FuzzDecodeEvaluateRequest(f *testing.F) {
	cfg := Config{MaxBodyBytes: 512, MaxHDCap: 8, Limits: koopmancrc.Limits{MaxProbes: 1 << 20}}
	s, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	decode := func(body []byte) (EvaluateRequest, error) {
		var req EvaluateRequest
		r := httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewReader(body))
		return req, s.decode(httptest.NewRecorder(), r, &req)
	}

	seeds := []struct {
		body string
		want int // decode status; 0 = accepted
	}{
		{`{"poly":"0x83","width":8,"max_len":64,"max_hd":6,"limits":{"max_probes":4096},"weights":[16]}`, 0},
		{`{"poly":"0x83","max_len":64,"pad":"` + strings.Repeat("x", 600) + `"}`, http.StatusRequestEntityTooLarge},
		{`{"poly":"0x83","width":8,"max_len":64,"limits":{"max_store_entries":4096}}`, http.StatusBadRequest},
	}
	for _, sd := range seeds {
		got := 0
		if _, err := decode([]byte(sd.body)); err != nil {
			got = decodeStatus(err)
		}
		if got != sd.want {
			f.Fatalf("seed %.60s: decode status %d, want %d (0 = accepted)", sd.body, got, sd.want)
		}
		f.Add([]byte(sd.body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decode(body)
		if err != nil {
			if code := decodeStatus(err); code != http.StatusBadRequest && code != http.StatusRequestEntityTooLarge {
				t.Fatalf("decode error %v maps to %d", err, code)
			}
			return
		}
		if _, err := req.Polynomial(); err != nil {
			return // the handler answers 400
		}
		maxHD, err := s.clampMaxHD(req.MaxHD)
		if err != nil {
			return // the handler answers 400
		}
		if maxHD < 2 || maxHD > cfg.MaxHDCap {
			t.Fatalf("max_hd %d clamped to %d, outside [2, %d]", req.MaxHD, maxHD, cfg.MaxHDCap)
		}
		if l := s.clampLimits(req.Limits); l.MaxProbes < 1 || l.MaxProbes > cfg.Limits.MaxProbes {
			t.Fatalf("limits %+v clamped to %+v, outside the ceiling %d", req.Limits, l, cfg.Limits.MaxProbes)
		}
	})
}
