package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"koopmancrc"
	"koopmancrc/internal/corpus"
	"koopmancrc/internal/dist"
)

// bakeTestCorpus bakes the two small 8-bit polynomials the serve tests
// use into a fresh corpus at dir, exactly covering smallEval's window.
func bakeTestCorpus(t *testing.T, dir string) {
	t.Helper()
	store, err := corpus.Open(dir, corpus.Config{})
	if err != nil {
		t.Fatalf("corpus.Open: %v", err)
	}
	sum, err := dist.Bake(context.Background(), dist.BakeSpec{
		Width:  8,
		Polys:  []uint64{0x83, 0x9c},
		MaxLen: smallEval.MaxLen,
		MaxHD:  smallEval.MaxHD,
	}, store, dist.BakeConfig{})
	if err != nil {
		t.Fatalf("Bake: %v", err)
	}
	if len(sum.Failed) != 0 || sum.Baked != 2 {
		t.Fatalf("bake summary: %+v", sum)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("corpus.Close: %v", err)
	}
}

// TestWarmStartServesBakedCorpus is the end-to-end satellite: bake two
// polynomials offline, start a server pointed at the corpus, and assert
// a covered /v1/evaluate answers byte-identically to a cold server while
// the session performs zero live engine probes.
func TestWarmStartServesBakedCorpus(t *testing.T) {
	dir := t.TempDir()
	bakeTestCorpus(t, dir)

	// Cold reference answer from a corpus-less server.
	_, cold := startServer(t, Config{})
	coldCode, coldBody := postJSON(t, cold.URL+"/v1/evaluate", smallEval, nil)
	if coldCode != http.StatusOK {
		t.Fatalf("cold evaluate: %d %s", coldCode, coldBody)
	}

	_, warm := startServer(t, Config{CorpusDir: dir})
	warmCode, warmBody := postJSON(t, warm.URL+"/v1/evaluate", smallEval, nil)
	if warmCode != http.StatusOK {
		t.Fatalf("warm evaluate: %d %s", warmCode, warmBody)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Fatalf("warm answer differs from cold:\ncold: %s\nwarm: %s", coldBody, warmBody)
	}

	// The second baked polynomial serves /v1/hd from the corpus too.
	var hd struct {
		HD int `json:"hd"`
	}
	hdReq := HDRequest{PolyRef: PolyRef{Poly: "0x9c", Width: 8}, DataLen: 56, MaxHD: smallEval.MaxHD}
	if code, body := postJSON(t, warm.URL+"/v1/hd", hdReq, &hd); code != http.StatusOK {
		t.Fatalf("warm hd: %d %s", code, body)
	}

	m := getMetrics(t, warm)
	if entries, ok := m["crcserve_corpus_entries"]; !ok || entries != 2 {
		t.Fatalf("crcserve_corpus_entries = %v (present %v), want 2", entries, ok)
	}
	if m["crcserve_corpus_hits_total"] < 1 {
		t.Fatalf("expected at least one corpus hit: %v", m["crcserve_corpus_hits_total"])
	}
	if m.sum("crcserve_pool_session_probes") != 0 {
		t.Fatalf("warm sessions probed the engine: %v", m.series("crcserve_pool_session_probes"))
	}
	for _, k := range m.series("crcserve_pool_session_restored") {
		if m[k] != 1 {
			t.Fatalf("session %s not marked restored", k)
		}
	}
	for _, k := range m.series("crcserve_pool_session_probes") {
		if m[k] != 0 {
			t.Fatalf("session %s did %v live probes", k, m[k])
		}
	}
}

// TestCorpusWriteBehindPersists exercises the write-behind path: a
// server over an empty corpus learns a polynomial from a live request
// and persists it without blocking the request, so a fresh store opened
// after shutdown holds the memo.
func TestCorpusWriteBehindPersists(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{CorpusDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv)
	closed := false
	closeAll := func() {
		if !closed {
			closed = true
			ts.Close()
			srv.Close()
		}
	}
	defer closeAll()

	if code, body := postJSON(t, ts.URL+"/v1/evaluate", smallEval, nil); code != http.StatusOK {
		t.Fatalf("evaluate: %d %s", code, body)
	}
	waitFor(t, 5*time.Second, "write-behind persist", func() bool {
		return getMetrics(t, ts)["crcserve_corpus_writes_total"] >= 1
	})
	m := getMetrics(t, ts)
	if m["crcserve_corpus_misses_total"] < 1 || m["crcserve_corpus_entries"] != 1 {
		t.Fatalf("corpus metrics after persist: %v misses, %v entries",
			m["crcserve_corpus_misses_total"], m["crcserve_corpus_entries"])
	}
	closeAll() // release the journal before reopening the store

	store, err := corpus.Open(dir, corpus.Config{})
	if err != nil {
		t.Fatalf("reopen corpus: %v", err)
	}
	defer store.Close()
	p := koopmancrc.MustPolynomial(8, koopmancrc.Koopman, "0x83")
	snap, ok := store.Get(p.Width(), p.Koopman())
	if !ok {
		t.Fatal("persisted memo missing after reopen")
	}
	if snap.Probes == 0 || len(snap.Bounds) == 0 {
		t.Fatalf("persisted memo is empty: %+v", snap)
	}
}

// TestPoolEvictsCheapestSession is the cost-aware eviction regression:
// under capacity pressure the pool sacrifices the session cheapest to
// rebuild, so an expensive evaluated session outlives a cheap untouched
// one even when the cheap one is more recently used.
func TestPoolEvictsCheapestSession(t *testing.T) {
	expensive := koopmancrc.MustPolynomial(8, koopmancrc.Koopman, "0x83")
	cheap := koopmancrc.MustPolynomial(8, koopmancrc.Koopman, "0x9c")
	third := koopmancrc.MustPolynomial(8, koopmancrc.Koopman, "0xe7")

	p := newPool(2)
	var evicted []*session
	p.evicted = func(s *session) { evicted = append(evicted, s) }

	a, _ := p.get(context.Background(), expensive, 6, koopmancrc.Limits{})
	if _, err := a.an.Evaluate(context.Background(), smallEval.MaxLen); err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if a.an.MemoStats().Probes == 0 {
		t.Fatal("evaluation did no probes; test premise broken")
	}
	p.get(context.Background(), cheap, 6, koopmancrc.Limits{}) // more recent than a, but zero probes

	p.get(context.Background(), third, 6, koopmancrc.Limits{}) // capacity pressure

	if len(evicted) != 1 || evicted[0].poly.Koopman() != cheap.Koopman() {
		t.Fatalf("evicted %d sessions, want exactly the cheap one: %+v", len(evicted), evicted)
	}
	for _, si := range p.sessions() {
		if si.Poly == "0x9c" {
			t.Fatalf("cheap session survived eviction: %+v", p.sessions())
		}
	}
}

// TestRestoredSessionIsCheapToEvict pins the restoredProbes accounting:
// a corpus-restored session reports zero live probes, so under pressure
// it is evicted before a session that paid for its knowledge live —
// restoring from the corpus again is nearly free.
func TestRestoredSessionIsCheapToEvict(t *testing.T) {
	dir := t.TempDir()
	bakeTestCorpus(t, dir)
	store, err := corpus.Open(dir, corpus.Config{})
	if err != nil {
		t.Fatalf("corpus.Open: %v", err)
	}
	defer store.Close()

	live := koopmancrc.MustPolynomial(8, koopmancrc.Koopman, "0xe7")
	restored := koopmancrc.MustPolynomial(8, koopmancrc.Koopman, "0x83")
	third := koopmancrc.MustPolynomial(8, koopmancrc.Koopman, "0xcd")

	p := newPool(2)
	p.warm = func(_ context.Context, sess *session) {
		if snap, ok := store.Get(sess.poly.Width(), sess.poly.Koopman()); ok {
			if err := sess.an.RestoreMemos(context.Background(), snap); err != nil {
				t.Errorf("RestoreMemos: %v", err)
			}
		}
	}
	var evicted []*session
	p.evicted = func(s *session) { evicted = append(evicted, s) }

	a, _ := p.get(context.Background(), live, 6, koopmancrc.Limits{})
	if _, err := a.an.Evaluate(context.Background(), smallEval.MaxLen); err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	p.get(context.Background(), restored, 6, koopmancrc.Limits{})
	p.get(context.Background(), third, 6, koopmancrc.Limits{})

	if len(evicted) != 1 || evicted[0].poly.Koopman() != restored.Koopman() {
		t.Fatalf("want the restored session evicted, got: %+v", evicted)
	}
}
