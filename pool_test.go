package hypo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"hypodatalog/internal/metrics"
	"hypodatalog/internal/workload"
)

func TestPoolBasics(t *testing.T) {
	p := mustParse(t, uniSrc)
	pool, err := NewPool(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ask(context.Background(), pool, "grad(tony)")
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("grad(tony) false via pool")
	}
	bs, err := query(context.Background(), pool, "grad(S)[add: take(S, C)]")
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) == 0 {
		t.Error("no bindings via pool")
	}
	if _, err := ask(context.Background(), pool, "grad(S)"); err == nil {
		t.Error("non-ground Ask accepted")
	}
}

func TestPoolRejectsBadConfig(t *testing.T) {
	p := mustParse(t, "a :- b, a[add: c1], a[add: c2].\n")
	if _, err := NewPool(p, Options{Mode: ModeCascade}); err == nil {
		t.Error("cascade pool over non-linear program should fail")
	}
}

// TestPoolConcurrent hammers a pool from many goroutines, with queries
// that intern fresh constants, so `go test -race` exercises the shared
// symbol table. Answers must match the single-threaded engine.
func TestPoolConcurrent(t *testing.T) {
	src := workload.ParityProgram(6) + workload.ChainProgram(4)
	p := mustParse(t, src)
	pool, err := NewPool(p, Options{
		Mode:        ModeUniform,
		ExtraDomain: []string{"freshconstant", "anotherfresh"},
	})
	if err != nil {
		t.Fatal(err)
	}
	queries := []struct {
		q    string
		want bool
	}{
		{"even", true},
		{"a1", true},
		{"a2", false},
		{"even[add: item(freshconstant)]", false}, // |A| becomes 7: odd
		{"odd[add: item(anotherfresh)]", true},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 256)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				qc := queries[(g+i)%len(queries)]
				got, err := ask(context.Background(), pool, qc.q)
				if err != nil {
					errs <- err
					return
				}
				if got != qc.want {
					errs <- fmt.Errorf("goroutine %d: %s = %v, want %v", g, qc.q, got, qc.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPoolBounded checks the pool never creates more engines than its
// configured size, however many callers hammer it.
func TestPoolBounded(t *testing.T) {
	p := mustParse(t, uniSrc)
	newsBefore := metrics.Default.PoolNews.Value()
	pool, err := NewPool(p, Options{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if pool.Size() != 2 {
		t.Fatalf("Size = %d, want 2", pool.Size())
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := ask(context.Background(), pool, "grad(tony)"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if news := metrics.Default.PoolNews.Value() - newsBefore; news > 2 {
		t.Errorf("pool created %d engines, want at most 2", news)
	}
}

// TestPoolMixedCancel drives mixed Ask/Query/AskUnder traffic — cheap
// queries plus intractable ones under short deadlines — through one pool
// from many goroutines. Run under -race this exercises the shared symbol
// table, the bounded free list, and mid-flight cancellation; aborted
// engines must return to the pool still able to answer correctly.
func TestPoolMixedCancel(t *testing.T) {
	src := workload.HamiltonianProgram(hardHamiltonian(t))
	pool, err := NewPool(mustParse(t, src), Options{Mode: ModeUniform, PoolSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				switch (g + i) % 4 {
				case 0: // cheap ground ask
					if ok, err := ask(context.Background(), pool, "node(v0)"); err != nil || !ok {
						t.Errorf("Ask(node(v0)) = %v, %v", ok, err)
					}
				case 1: // binding query
					if bs, err := query(context.Background(), pool, "edge(v0, X)"); err != nil || len(bs) == 0 {
						t.Errorf("Query(edge(v0, X)) = %d rows, %v", len(bs), err)
					}
				case 2: // hypothetical extension
					if ok, err := askUnder(context.Background(), pool, "edge(v11, v0)", "edge(v11, v0)"); err != nil || !ok {
						t.Errorf("AskUnder = %v, %v", ok, err)
					}
				case 3: // intractable, canceled mid-flight
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
					_, err := ask(ctx, pool, "yes")
					cancel()
					if err != nil && !errors.Is(err, ErrDeadline) && !errors.Is(err, ErrCanceled) {
						t.Errorf("deadline ask = %v, want ErrDeadline", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPoolMetricsConsistent checks the invariant the expvar snapshot
// promises: every started query is counted exactly once as succeeded,
// failed, or canceled.
func TestPoolMetricsConsistent(t *testing.T) {
	src := workload.HamiltonianProgram(hardHamiltonian(t))
	pool, err := NewPool(mustParse(t, src), Options{Mode: ModeUniform, PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	started := metrics.Default.QueriesStarted.Value()
	done := metrics.Default.QueriesSucceeded.Value() + metrics.Default.QueriesFailed.Value() + metrics.Default.QueriesCanceled.Value()
	gets := metrics.Default.PoolGets.Value()
	puts := metrics.Default.PoolPuts.Value()

	ask(context.Background(), pool, "node(v0)") // succeeds
	ask(context.Background(), pool, "node(")    // parse error: fails without consuming an engine
	query(context.Background(), pool, "edge(v0, X)")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	ask(ctx, pool, "yes") // canceled
	cancel()

	if ds, dd := metrics.Default.QueriesStarted.Value()-started,
		metrics.Default.QueriesSucceeded.Value()+metrics.Default.QueriesFailed.Value()+metrics.Default.QueriesCanceled.Value()-done; ds != 4 || dd != 4 {
		t.Errorf("started delta = %d, outcome delta = %d; want 4 and 4", ds, dd)
	}
	// Three queries reached an engine (the parse error did not); every
	// lease was returned.
	if dg, dp := metrics.Default.PoolGets.Value()-gets, metrics.Default.PoolPuts.Value()-puts; dp != 3 || dg > dp {
		t.Errorf("pool gets delta = %d, puts delta = %d; want puts = 3, gets <= puts", dg, dp)
	}
}

// TestPoolBlockedGetHonorsContext checks a caller waiting for an engine
// gives up when its context expires, without wedging the pool.
func TestPoolBlockedGetHonorsContext(t *testing.T) {
	src := workload.HamiltonianProgram(hardHamiltonian(t))
	pool, err := NewPool(mustParse(t, src), Options{Mode: ModeUniform, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the single engine with an intractable query.
	busy, stopBusy := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ask(busy, pool, "yes")
	}()
	// Give the busy query a moment to take the engine, then try to lease.
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := ask(ctx, pool, "node(v0)"); !errors.Is(err, ErrDeadline) {
		t.Errorf("blocked ask = %v, want ErrDeadline", err)
	}
	stopBusy()
	wg.Wait()
	// The pool must still work.
	if ok, err := ask(context.Background(), pool, "node(v0)"); err != nil || !ok {
		t.Fatalf("Ask after contention = %v, %v", ok, err)
	}
}

// TestPoolClose covers the Close contract: fail-fast leases, waking
// blocked getters, dropping engines returned after Close, and
// idempotence.
func TestPoolClose(t *testing.T) {
	pool, err := NewPool(mustParse(t, uniSrc), Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the single engine so the pool is empty, then block a second
	// caller waiting for it.
	hold := make(chan struct{})
	released := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		released <- pool.Do(context.Background(), func(*Engine) error {
			<-hold
			return nil
		})
	}()
	time.Sleep(20 * time.Millisecond) // let Do take the engine
	blocked := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, err := ask(context.Background(), pool, "grad(tony)")
		blocked <- err
	}()
	time.Sleep(20 * time.Millisecond) // let Ask block on the free list

	if err := pool.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
	if err := <-blocked; !errors.Is(err, ErrPoolClosed) {
		t.Errorf("blocked getter after Close = %v, want ErrPoolClosed", err)
	}
	// The in-flight lease finishes normally; its engine is then dropped.
	close(hold)
	if err := <-released; err != nil {
		t.Errorf("in-flight Do across Close = %v", err)
	}
	wg.Wait()
	pool.mu.Lock()
	created, free := pool.created, len(pool.free)
	pool.mu.Unlock()
	if created != 0 || free != 0 {
		t.Errorf("after Close: created=%d free=%d, want 0 and 0", created, free)
	}
	// Every query surface fails fast now, and Close stays idempotent.
	if _, err := ask(context.Background(), pool, "grad(tony)"); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Ask after Close = %v, want ErrPoolClosed", err)
	}
	if _, err := query(context.Background(), pool, "grad(S)"); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Query after Close = %v, want ErrPoolClosed", err)
	}
	if _, err := pool.Read(context.Background(), Request{Kind: ReadQuery, Query: "grad(S)"}, func(Binding) error { return nil }); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("streaming Read after Close = %v, want ErrPoolClosed", err)
	}
	if err := pool.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
}

// TestPoolDoPanicReturnsEngine checks the Do contract a panicking
// handler relies on: the engine is back on the free list before the
// panic propagates.
func TestPoolDoPanicReturnsEngine(t *testing.T) {
	pool, err := NewPool(mustParse(t, uniSrc), Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate out of Do")
			}
		}()
		pool.Do(context.Background(), func(*Engine) error { panic("boom") })
	}()
	// With PoolSize 1, this deadlocks unless the engine was returned.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if ok, err := ask(ctx, pool, "grad(tony)"); err != nil || !ok {
		t.Fatalf("Ask after panic = %v, %v; engine was not returned", ok, err)
	}
}

// TestPoolQueryEach checks the streaming enumerator yields exactly the
// Query answer set and that a yield error stops the walk and surfaces
// verbatim.
func TestPoolQueryEach(t *testing.T) {
	pool, err := NewPool(mustParse(t, uniSrc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := query(context.Background(), pool, "take(S, C)")
	if err != nil {
		t.Fatal(err)
	}
	var got []Binding
	if _, err := pool.Read(context.Background(), Request{Kind: ReadQuery, Query: "take(S, C)"}, func(b Binding) error {
		got = append(got, b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d bindings, Query returned %d", len(got), len(want))
	}
	key := func(b Binding) string { return fmt.Sprintf("%s|%s", b["S"], b["C"]) }
	seen := map[string]bool{}
	for _, b := range got {
		seen[key(b)] = true
	}
	for _, b := range want {
		if !seen[key(b)] {
			t.Errorf("Query binding %v missing from stream", b)
		}
	}
	// A ground provable query yields exactly one empty binding.
	n := 0
	if _, err := pool.Read(context.Background(), Request{Kind: ReadQuery, Query: "grad(tony)"}, func(b Binding) error {
		n++
		if len(b) != 0 {
			t.Errorf("ground query yielded non-empty binding %v", b)
		}
		return nil
	}); err != nil || n != 1 {
		t.Errorf("ground stream: n=%d err=%v, want 1 and nil", n, err)
	}
	// A yield error aborts the enumeration and comes back verbatim.
	sentinel := errors.New("stop here")
	calls := 0
	if _, err := pool.Read(context.Background(), Request{Kind: ReadQuery, Query: "take(S, C)"}, func(Binding) error {
		calls++
		return sentinel
	}); !errors.Is(err, sentinel) {
		t.Errorf("yield error = %v, want sentinel", err)
	}
	if calls != 1 {
		t.Errorf("yield called %d times after error, want 1", calls)
	}
}
