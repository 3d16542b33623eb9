package serve

import (
	"context"
	"log/slog"
	"strconv"
	"time"

	"koopmancrc"
	"koopmancrc/internal/corpus"
	"koopmancrc/internal/obs"
)

// persistQueueLen bounds the write-behind queue. A full queue never
// blocks a request: the enqueue is dropped and the session is re-noted
// by its next evaluation (or by eviction), so knowledge reaches the
// corpus eventually without ever gating the request path.
const persistQueueLen = 128

// setupCorpus opens the store and wires the pool's warm-start and
// eviction hooks plus the background persister.
func (s *Server) setupCorpus(dir string) error {
	store, err := corpus.Open(dir, corpus.Config{})
	if err != nil {
		return err
	}
	s.corpus = store
	if st := store.Stats(); st.TruncatedAtOpen > 0 || st.SkippedAtOpen > 0 {
		s.logger.Warn("corpus recovery",
			slog.String("dir", dir),
			slog.Int64("truncated_bytes", st.TruncatedAtOpen),
			slog.Int("skipped_records", st.SkippedAtOpen))
	}
	s.pool.warm = s.warmStart
	s.pool.evicted = s.notePersist
	s.persistCh = make(chan *session, persistQueueLen)
	s.persistDone = make(chan struct{})
	go s.persister()
	return nil
}

// warmStart hydrates a freshly created session from the corpus. Called
// under the pool lock, before the session serves anything, so the
// restore never contends with an evaluation. A corpus error is a miss,
// never a failure: the session simply starts cold. The warm-start shows
// up as a child span of the creating request's trace.
func (s *Server) warmStart(ctx context.Context, sess *session) {
	sp := obs.SpanFromContext(ctx).StartChild("corpus.warmstart")
	sp.SetAttr("poly", hexStr(sess.poly.In(koopmancrc.Koopman)))
	start := time.Now()
	snap, ok := s.corpus.Get(sess.poly.Width(), sess.poly.Koopman())
	if ok {
		if err := sess.an.RestoreMemos(context.Background(), snap); err != nil {
			s.logger.Warn("corpus restore failed; session starts cold",
				slog.String("poly", hexStr(sess.poly.In(koopmancrc.Koopman))),
				slog.String("error", err.Error()))
			sp.SetError(err.Error())
			ok = false
		}
	}
	if ok {
		sess.restored = true
		sess.persisted = sess.an.MemoStats()
		s.obs.corpusHits.Inc()
	} else {
		s.obs.corpusMisses.Inc()
	}
	sp.SetAttr("hit", strconv.FormatBool(ok))
	sp.End()
	s.obs.corpusLoad.Observe(time.Since(start).Seconds())
}

// notePersist queues a session for write-behind persistence. Safe (and
// a no-op) without a corpus; never blocks — see persistQueueLen.
func (s *Server) notePersist(sess *session) {
	if s.corpus == nil || sess == nil {
		return
	}
	if !sess.enqueued.CompareAndSwap(false, true) {
		return // already queued; the persister will see the latest memo
	}
	select {
	case s.persistCh <- sess:
	default:
		sess.enqueued.Store(false)
	}
}

// persister is the single write-behind goroutine: it exports each queued
// session's memo (waiting behind in-flight evaluations is fine off the
// request path) and appends it to the corpus, skipping sessions whose
// memo has not grown since their last write. It drains the queue on
// shutdown so acknowledged knowledge is not lost to a clean stop.
func (s *Server) persister() {
	defer close(s.persistDone)
	for {
		select {
		case sess := <-s.persistCh:
			s.persistSession(sess)
		case <-s.base.Done():
			for {
				select {
				case sess := <-s.persistCh:
					s.persistSession(sess)
				default:
					return
				}
			}
		}
	}
}

func (s *Server) persistSession(sess *session) {
	sess.enqueued.Store(false)
	if sess.an.MemoStats() == sess.persisted {
		return // nothing learned since the last write
	}
	// Background persists have no originating request, so they get their
	// own trace; a failed write is then an errored trace the recorder
	// pins, making corpus trouble visible at /v1/traces without logs.
	tr := obs.NewTrace("corpus.persist")
	root := tr.Root()
	root.SetAttr("poly", hexStr(sess.poly.In(koopmancrc.Koopman)))
	defer func() {
		root.End()
		if s.recorder != nil {
			s.recorder.RecordTrace(tr)
		}
	}()
	// Export under the session's own serialization; bounded so a stuck
	// evaluation cannot wedge the persister forever.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	sp := root.StartChild("memo.snapshot")
	snap, err := sess.an.MemoSnapshot(ctx)
	cancel()
	if err != nil {
		sp.SetError(err.Error())
		sp.End()
		s.obs.corpusWriteErrs.Inc()
		s.logger.Warn("corpus export failed",
			slog.String("poly", hexStr(sess.poly.In(koopmancrc.Koopman))),
			slog.String("error", err.Error()))
		return
	}
	sp.End()
	sp = root.StartChild("corpus.put")
	if err := s.corpus.Put(snap); err != nil {
		sp.SetError(err.Error())
		sp.End()
		s.obs.corpusWriteErrs.Inc()
		s.logger.Warn("corpus write failed",
			slog.String("poly", hexStr(sess.poly.In(koopmancrc.Koopman))),
			slog.String("error", err.Error()))
		return
	}
	sp.End()
	root.SetAttr("facts", strconv.Itoa(snap.Entries()))
	sess.persisted = sess.an.MemoStats()
	s.obs.corpusWrites.Inc()
	s.logger.Debug("corpus write",
		slog.String("poly", hexStr(sess.poly.In(koopmancrc.Koopman))),
		slog.Int("facts", snap.Entries()),
		slog.Int64("probes", snap.Probes))
}
