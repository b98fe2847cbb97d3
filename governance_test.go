package hypo

// Resource-governance tests: per-query memory budgets (ErrMemory), the
// pool's footprint accounting and idle-engine trimming, and the live
// store's background write-path recovery after transient disk pressure.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"hypodatalog/internal/live"
	"hypodatalog/internal/metrics"
	"hypodatalog/internal/vfs"
)

// chainSrc builds a linear edge chain n0 -> n1 -> ... -> nn with
// transitive reachability: reach/2 has O(n²) answers and the memo
// tables to match, so a byte budget has something to trip on.
func chainSrc(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "edge(n%d, n%d).\n", i, i+1)
	}
	b.WriteString("reach(X, Y) :- edge(X, Y).\n")
	b.WriteString("reach(X, Y) :- edge(X, Z), reach(Z, Y).\n")
	return b.String()
}

// TestMemoryBudgetAbortsQuery: a query that grows the engine's tracked
// footprint past Options.MaxMemoryBytes aborts with ErrMemory inside an
// *AbortError carrying the partial-work stats — and leaves the engine
// unpoisoned: later (cheaper) queries answer correctly.
func TestMemoryBudgetAbortsQuery(t *testing.T) {
	e := mustEngine(t, chainSrc(80), Options{MaxMemoryBytes: 8 << 10})
	_, err := e.Query("reach(X, Y)")
	if !errors.Is(err, ErrMemory) {
		t.Fatalf("Query under an 8KiB budget = %v, want ErrMemory", err)
	}
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("memory abort is not an *AbortError: %v", err)
	}
	if ae.Stats.MemBytes <= 8<<10 {
		t.Fatalf("abort stats claim %d bytes grown, want > budget", ae.Stats.MemBytes)
	}
	// The engine survives the abort: queries that fit the budget still
	// evaluate correctly. (Recursive asks are NOT cheap here — tabling
	// computes the whole strongly-connected region on first touch, which
	// is exactly what an 8KiB budget exists to refuse.)
	if ok, err := e.Ask("edge(n0, n1)"); err != nil || !ok {
		t.Fatalf("Ask after memory abort = %v, %v; want true", ok, err)
	}
	if ok, err := e.Ask("edge(n1, n0)"); err != nil || ok {
		t.Fatalf("Ask(edge(n1, n0)) after abort = %v, %v; want false", ok, err)
	}
	// And the budgeted query keeps refusing deterministically.
	if _, err := e.Query("reach(X, Y)"); !errors.Is(err, ErrMemory) {
		t.Fatalf("repeat over-budget query = %v, want ErrMemory again", err)
	}
}

// TestMemoryBudgetPerQueryBaseline: the budget bounds growth SINCE the
// query began, not the engine's absolute footprint — a warm engine
// carrying memo state from earlier queries is not penalised for it.
func TestMemoryBudgetPerQueryBaseline(t *testing.T) {
	e := mustEngine(t, chainSrc(40), Options{MaxMemoryBytes: 256 << 10})
	// Warm the engine well past what a 256KiB budget could absorb as a
	// cold start... then ask again: the repeat is nearly free.
	if _, err := e.Query("reach(X, Y)"); err != nil {
		t.Fatalf("warming query: %v", err)
	}
	if ok, err := e.Ask("reach(n0, n40)"); err != nil || !ok {
		t.Fatalf("warm repeat = %v, %v; want true under the same budget", ok, err)
	}
}

// TestPoolMemoryAbortMidStream (the answer-cache half of the memory
// story): a streaming enumeration that dies on the memory budget after
// yielding bindings must not poison the answer cache — the partial set
// is never stored, so the next identical request is a miss, not a hit
// serving truncated results. The query's hypothesis varies with the
// bound variable, so every instance opens a fresh hypothetical state
// with its own memo region: growth is incremental per answer, which is
// what makes a MID-stream abort (some yields, then ErrMemory) possible
// at all — a plain open call is tabled as one lump on first touch.
func TestPoolMemoryAbortMidStream(t *testing.T) {
	pl, err := NewPool(mustParse(t, chainSrc(30)), Options{
		PoolSize:       1,
		CacheBytes:     1 << 20,
		MaxMemoryBytes: 64 << 10,
	})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	defer pl.Close()

	const q = "reach(n0, Y)[add: edge(Y, n0)]"
	n := 0
	var info ReadInfo
	err = pl.QueryEachInfoCtx(context.Background(), q, &info, func(Binding) error {
		n++
		return nil
	})
	if !errors.Is(err, ErrMemory) {
		t.Fatalf("streaming under a 64KiB budget = %v, want ErrMemory", err)
	}
	if n == 0 {
		t.Fatal("abort hit before any binding streamed; the mid-stream case needs at least one")
	}
	if info.Cache != CacheMiss {
		t.Fatalf("aborted stream reported cache status %v, want miss", info.Cache)
	}

	// Identical request: were the partial bindings cached, this would be
	// a hit; it must be a fresh miss (and abort the same way — the warm
	// states are free now, but the remaining ones still exceed budget).
	var info2 ReadInfo
	err = pl.QueryEachInfoCtx(context.Background(), q, &info2, func(Binding) error { return nil })
	if !errors.Is(err, ErrMemory) {
		t.Fatalf("repeat streaming = %v, want ErrMemory again", err)
	}
	if info2.Cache != CacheMiss {
		t.Fatalf("repeat after aborted stream = cache %v; a partial enumeration was stored", info2.Cache)
	}

	// The engine went back to the pool unpoisoned, and the cache still
	// works for queries that fit the budget.
	for i := 0; i < 2; i++ {
		bs, inf, err := collect(context.Background(), pl, Request{Kind: ReadQuery, Query: "edge(X, Y)"})
		if err != nil {
			t.Fatalf("bounded query after aborts: %v", err)
		}
		if len(bs) != 30 {
			t.Fatalf("edge(X, Y) = %d answers, want 30", len(bs))
		}
		if i == 1 && inf.Cache != CacheHit {
			t.Fatalf("repeat bounded query = cache %v, want hit", inf.Cache)
		}
	}
}

// TestPoolMemBytesAndTrim: the pool reports the footprint of its idle
// engines and can shed them to reach a target, rebuilding on demand.
func TestPoolMemBytesAndTrim(t *testing.T) {
	pl, err := NewPool(mustParse(t, chainSrc(20)), Options{PoolSize: 2})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	defer pl.Close()
	if got := pl.MemBytes(); got <= 0 {
		t.Fatalf("MemBytes() = %d on a pool with an idle engine, want > 0", got)
	}
	if dropped := pl.TrimMemory(0); dropped == 0 {
		t.Fatal("TrimMemory(0) dropped no idle engines")
	}
	if got := pl.MemBytes(); got != 0 {
		t.Fatalf("MemBytes() = %d after trimming every idle engine, want 0", got)
	}
	// The pool rebuilds engines on demand after a trim.
	if ok, err := ask(context.Background(), pl, "reach(n0, n2)"); err != nil || !ok {
		t.Fatalf("Ask after trim = %v, %v; want true", ok, err)
	}
}

// TestLiveRecoveryProber: a transient (ENOSPC) degradation starts the
// background prober, which re-enables the write path in place once
// space returns — no restart, and the metrics tell the story.
func TestLiveRecoveryProber(t *testing.T) {
	mem := vfs.NewMem()
	en := vfs.NewENOSPC(4)
	ft := vfs.NewFault(mem, en)
	mets := metrics.NewSet("test_recovery_prober")
	l, err := OpenLive(mustParse(t, liveSrc), LiveConfig{
		WALPath:               "/db/wal.log",
		SnapshotPath:          "/db/db.snap",
		FS:                    ft,
		Logger:                quietLog,
		RecoveryProbeInterval: 2 * time.Millisecond,
	}, Options{PoolSize: 1, Metrics: mets})
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	defer l.Close()
	if _, err := l.Apply(mutations(t, []string{"edge(a, c)"}, nil)); err != nil {
		t.Fatalf("healthy apply: %v", err)
	}

	en.Fill()
	if _, err := l.Apply(mutations(t, []string{"edge(b, c)"}, nil)); !errors.Is(err, live.ErrReadOnly) {
		t.Fatalf("apply on full disk = %v, want ErrReadOnly", err)
	}
	if ro, _ := l.Degraded(); !ro {
		t.Fatal("store not degraded after ENOSPC")
	}
	if !l.Recovering() {
		t.Fatal("no recovery prober running after a transient degradation")
	}
	if got := mets.LiveReadOnly.Value(); got != 1 {
		t.Fatalf("live_readonly gauge = %d, want 1", got)
	}

	en.Release()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ro, _ := l.Degraded(); !ro {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("write path did not recover within 5s of space returning")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := l.Apply(mutations(t, []string{"edge(b, c)"}, nil)); err != nil {
		t.Fatalf("apply after in-place recovery: %v", err)
	}
	if got := mets.DiskRecoveries.Value(); got != 1 {
		t.Fatalf("disk_recoveries = %d, want 1", got)
	}
	if got := mets.DiskRecoveryProbes.Value(); got < 1 {
		t.Fatalf("disk_recovery_probes = %d, want >= 1", got)
	}
	if got := mets.LiveReadOnly.Value(); got != 0 {
		t.Fatalf("live_readonly gauge = %d after recovery, want 0", got)
	}
	// The prober is gone; healthz-style state is clean.
	waitFor(t, time.Second, func() bool { return !l.Recovering() })
}

// waitFor polls cond until it holds or the timeout expires.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
