package serve

import (
	"context"
	"errors"
	"sync"
	"testing"

	"koopmancrc"
)

func TestPoolKeysAndLRU(t *testing.T) {
	p := newPool(2)
	atm := koopmancrc.MustPolynomial(8, koopmancrc.Koopman, "0x83")
	darc := koopmancrc.MustPolynomial(8, koopmancrc.Koopman, "0x9c")

	s1, hit := p.get(context.Background(), atm, 6, koopmancrc.Limits{})
	if hit {
		t.Fatal("first get reported a hit")
	}
	if s2, hit := p.get(context.Background(), atm, 6, koopmancrc.Limits{}); !hit || s2 != s1 {
		t.Fatal("same key did not return the same session")
	}
	if s3, hit := p.get(context.Background(), atm, 8, koopmancrc.Limits{}); hit || s3 == s1 {
		t.Fatal("different max_hd shared a session")
	}
	if _, hit := p.get(context.Background(), atm, 6, koopmancrc.Limits{MaxProbes: 10}); hit {
		t.Fatal("different limits shared a session")
	}
	// Capacity 2: the MaxProbes get above evicted one entry; atm/6 was
	// least recently used at that point, so it must rebuild now.
	if n, _, _, ev := p.counts(); n != 2 || ev != 1 {
		t.Fatalf("pool state: %d sessions, %d evictions", n, ev)
	}
	if _, hit := p.get(context.Background(), darc, 6, koopmancrc.Limits{}); hit {
		t.Fatal("new polynomial hit")
	}
	if _, _, _, ev := p.counts(); ev != 2 {
		t.Fatalf("eviction count: %d", ev)
	}
}

func TestSessionFanout(t *testing.T) {
	sess := newSession(koopmancrc.MustPolynomial(8, koopmancrc.Koopman, "0x83"), 6, koopmancrc.Limits{}, nil)
	id1, ch1 := sess.subscribe(8)
	_, ch2 := sess.subscribe(8)
	if _, err := sess.an.Evaluate(context.Background(), 64); err != nil {
		t.Fatal(err)
	}
	if len(ch1) == 0 || len(ch2) == 0 {
		t.Fatalf("subscribers got %d/%d ticks", len(ch1), len(ch2))
	}
	sess.unsubscribe(id1)
	drain := len(ch2)
	if _, err := sess.an.Evaluate(context.Background(), 64); err != nil { // warm: no ticks
		t.Fatal(err)
	}
	if len(ch2) != drain {
		t.Fatal("warm evaluation emitted progress")
	}
}

func TestFlightCoalesceAndRefcountCancel(t *testing.T) {
	var g flightGroup
	base := context.Background()
	release := make(chan struct{})
	var runs, joins int
	var mu sync.Mutex

	started := make(chan struct{}, 2)
	fn := func(fctx context.Context) (any, error) {
		mu.Lock()
		runs++
		mu.Unlock()
		started <- struct{}{}
		select {
		case <-release:
			return "done", nil
		case <-fctx.Done():
			return nil, fctx.Err()
		}
	}
	onJoin := func() { mu.Lock(); joins++; mu.Unlock() }

	var wg sync.WaitGroup
	results := make([]any, 2)
	errs := make([]error, 2)
	ctxB, cancelB := context.WithCancel(base)
	defer cancelB()
	wg.Add(2)
	go func() { defer wg.Done(); results[0], errs[0] = g.do(base, base, "k", onJoin, fn) }()
	<-started // A's fn is running before B arrives
	go func() { defer wg.Done(); results[1], errs[1] = g.do(ctxB, base, "k", onJoin, fn) }()

	// Wait until B has joined, then release the flight.
	waitFor(t, 5e9, "join", func() bool { mu.Lock(); defer mu.Unlock(); return joins == 1 })
	close(release)
	wg.Wait()
	if runs != 1 {
		t.Fatalf("fn ran %d times", runs)
	}
	for i := range results {
		if errs[i] != nil || results[i] != "done" {
			t.Fatalf("caller %d: %v, %v", i, results[i], errs[i])
		}
	}

	// Refcounted cancellation: the flight context dies only when the
	// last waiter leaves.
	ctx1, cancel1 := context.WithCancel(base)
	ctx2, cancel2 := context.WithCancel(base)
	fnCtx := make(chan context.Context, 1)
	blocked := func(fctx context.Context) (any, error) {
		fnCtx <- fctx
		<-fctx.Done()
		return nil, fctx.Err()
	}
	done1 := make(chan error, 1)
	done2 := make(chan error, 1)
	go func() { _, err := g.do(ctx1, base, "k2", nil, blocked); done1 <- err }()
	fc := <-fnCtx
	waitFor(t, 5e9, "second waiter attach", func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		f := g.m["k2"]
		return f != nil && f.waiters >= 1
	})
	go func() { _, err := g.do(ctx2, base, "k2", nil, blocked); done2 <- err }()
	waitFor(t, 5e9, "two waiters", func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		f := g.m["k2"]
		return f != nil && f.waiters == 2
	})

	cancel1()
	if err := <-done1; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter 1: %v", err)
	}
	if fc.Err() != nil {
		t.Fatal("flight cancelled while a waiter remained")
	}
	cancel2()
	if err := <-done2; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter 2: %v", err)
	}
	waitFor(t, 5e9, "flight cancellation", func() bool { return fc.Err() != nil })
}
