package obs_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"koopmancrc/internal/dist"
	"koopmancrc/internal/obs"
	"koopmancrc/serve"
)

// FuzzCheckExposition feeds the validator arbitrary documents, which must
// never panic it, and fills a registry with fuzzed label values and help
// text, whose 0.0.4 and OpenMetrics renderings the validator must both
// accept. The seeds are the live crcserve and dist coordinator
// expositions in both formats.
func FuzzCheckExposition(f *testing.F) {
	for _, doc := range seedExpositions(f) {
		f.Add(doc, `endpoint "/v1/x"\`, "Help with \\ and\nnewline.")
	}
	f.Add([]byte("# TYPE x histogram\nx_bucket{le=\"+Inf\"} 1 # {trace_id=\"a\"} 1\n# EOF\n"), "", "")
	f.Fuzz(func(t *testing.T, doc []byte, label, help string) {
		_ = obs.CheckExposition(bytes.NewReader(doc))

		r := obs.NewRegistry()
		r.NewCounterVec("fuzz_requests_total", help, "endpoint", "code").With(label, "200").Inc()
		h := r.NewHistogramVec("fuzz_duration_seconds", help, obs.ExpBuckets(1e-3, 10, 3), "endpoint")
		h.With(label).ObserveExemplar(0.05, "0123456789abcdef")
		h.With(label + "x").Observe(5)
		r.NewGaugeCollector("fuzz_worker_rate", help, []string{"worker"}, func(emit func([]string, float64)) {
			emit([]string{label}, 1.5)
		})
		var prom, om bytes.Buffer
		if err := r.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteOpenMetrics(&om); err != nil {
			t.Fatal(err)
		}
		if err := obs.CheckExposition(&prom); err != nil {
			t.Fatalf("0.0.4 rejected: %v\n%s", err, prom.String())
		}
		if err := obs.CheckExposition(&om); err != nil {
			t.Fatalf("OpenMetrics rejected: %v\n%s", err, om.String())
		}
	})
}

// seedExpositions scrapes a crcserve that has served a traced request
// and an idle dist coordinator's debug listener, each in both formats.
func seedExpositions(f *testing.F) [][]byte {
	f.Helper()
	srv, err := serve.New(serve.Config{TraceSampleRate: 1})
	if err != nil {
		f.Fatal(err)
	}
	defer srv.Close()
	post := httptest.NewRequest("POST", "/v1/checksum", strings.NewReader(`{"algorithm":"CRC-32C/iSCSI","text":"123456789"}`))
	srv.ServeHTTP(httptest.NewRecorder(), post)
	var docs [][]byte
	for _, q := range []string{"", "?format=openmetrics"} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics"+q, nil))
		docs = append(docs, rec.Body.Bytes())
	}

	coord, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Spec:      dist.SearchSpec{Width: 8, MinHD: 4, Lengths: []int{9, 19}},
		DebugAddr: "127.0.0.1:0",
		Logf:      func(string, ...any) {},
	})
	if err != nil {
		f.Fatal(err)
	}
	defer coord.Close()
	for _, q := range []string{"", "?format=openmetrics"} {
		resp, err := http.Get("http://" + coord.DebugAddr() + "/metrics" + q)
		if err != nil {
			f.Fatal(err)
		}
		var b bytes.Buffer
		_, err = b.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			f.Fatal(err)
		}
		docs = append(docs, b.Bytes())
	}
	for i, doc := range docs {
		if err := obs.CheckExposition(bytes.NewReader(doc)); err != nil {
			f.Fatalf("seed %d is not a valid exposition: %v\n%s", i, err, doc)
		}
	}
	return docs
}
