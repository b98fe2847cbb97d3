package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"hypodatalog/internal/metrics"
)

// lookup reads k as a read that stores nothing on a miss: the cached
// value and whether it was a hit. A hit refreshes k's LRU position.
func lookup(c *Cache, k Key) (any, bool) {
	v, st, _ := c.Do(context.Background(), k, func() (Computed, error) {
		return Computed{}, nil
	})
	return v, st == Hit
}

func mustDo(t *testing.T, c *Cache, k Key, val any) {
	t.Helper()
	_, _, err := c.Do(context.Background(), k, func() (Computed, error) {
		return Computed{Val: val, Bytes: 8, Store: true}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDoMissThenHit(t *testing.T) {
	mets := metrics.NewSet("cache_test")
	c := New(1<<20, mets)
	k := Key{Version: 1, Query: "q"}
	calls := 0
	compute := func() (Computed, error) {
		calls++
		return Computed{Val: 42, Bytes: 8, Store: true}, nil
	}
	v, st, err := c.Do(context.Background(), k, compute)
	if err != nil || v.(int) != 42 || st != Miss {
		t.Fatalf("first Do: v=%v st=%v err=%v", v, st, err)
	}
	v, st, err = c.Do(context.Background(), k, compute)
	if err != nil || v.(int) != 42 || st != Hit {
		t.Fatalf("second Do: v=%v st=%v err=%v", v, st, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	if h, m, n := mets.CacheHits.Value(), mets.CacheMisses.Value(), c.Stats().Entries; h != 1 || m != 1 || n != 1 {
		t.Fatalf("hits %d, misses %d, entries %d; want 1 each", h, m, n)
	}
	if g := mets.CacheEntries.Value(); g != 1 {
		t.Fatalf("entries gauge %d, want 1", g)
	}
}

func TestVersionIsPartOfTheKey(t *testing.T) {
	c := New(1<<20, nil)
	mustDo(t, c, Key{Version: 1, Query: "q"}, "old")
	mustDo(t, c, Key{Version: 2, Query: "q"}, "new")
	if v, ok := lookup(c, Key{Version: 1, Query: "q"}); !ok || v.(string) != "old" {
		t.Fatalf("v1 entry: %v %v", v, ok)
	}
	if v, ok := lookup(c, Key{Version: 2, Query: "q"}); !ok || v.(string) != "new" {
		t.Fatalf("v2 entry: %v %v", v, ok)
	}
}

func TestLookupMiss(t *testing.T) {
	mets := metrics.NewSet("cache_test")
	c := New(1<<20, mets)
	if _, ok := lookup(c, Key{Version: 9, Query: "nope"}); ok {
		t.Fatal("a read of an empty cache reported a hit")
	}
	if h, m, n := mets.CacheHits.Value(), mets.CacheMisses.Value(), c.Stats().Entries; h != 0 || m != 1 || n != 0 {
		t.Fatalf("hits %d, misses %d, entries %d; want 0, 1, 0 (a Store=false miss stores nothing)", h, m, n)
	}
}

func TestStoreFalseReturnsWithoutCaching(t *testing.T) {
	c := New(1<<20, nil)
	k := Key{Version: 1, Query: "q"}
	calls := 0
	compute := func() (Computed, error) {
		calls++
		return Computed{Val: "x", Bytes: 8, Store: false}, nil
	}
	for i := 0; i < 2; i++ {
		v, st, err := c.Do(context.Background(), k, compute)
		if err != nil || v.(string) != "x" || st != Miss {
			t.Fatalf("Do %d: v=%v st=%v err=%v", i, v, st, err)
		}
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (Store=false must not cache)", calls)
	}
}

func TestComputeErrorNotCached(t *testing.T) {
	c := New(1<<20, nil)
	k := Key{Version: 1, Query: "q"}
	boom := errors.New("boom")
	_, _, err := c.Do(context.Background(), k, func() (Computed, error) {
		return Computed{}, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("leader error: %v", err)
	}
	v, st, err := c.Do(context.Background(), k, func() (Computed, error) {
		return Computed{Val: "ok", Bytes: 8, Store: true}, nil
	})
	if err != nil || v.(string) != "ok" || st != Miss {
		t.Fatalf("after failed compute: v=%v st=%v err=%v", v, st, err)
	}
}

func TestLRUEviction(t *testing.T) {
	// One shard gets budget/numShards; use keys that all land wherever
	// they land and just assert the global invariant: bytes within budget
	// and the most recent keys still present.
	mets := metrics.NewSet("cache_test")
	c := New(numShards*1024, mets) // minimum per-shard budget
	for i := 0; i < 200; i++ {
		mustDo(t, c, Key{Version: 1, Query: fmt.Sprintf("q%03d", i)}, i)
	}
	st := c.Stats()
	if mets.CacheEvictions.Value() == 0 {
		t.Fatal("no evictions despite 200 entries against a minimal budget")
	}
	if ev := mets.CacheEvictions.Value(); st.Entries+ev != 200 {
		t.Fatalf("%d entries + %d evictions, want 200", st.Entries, ev)
	}
	if g := mets.CacheBytes.Value(); g != st.Bytes {
		t.Fatalf("bytes gauge %d, held %d", g, st.Bytes)
	}
	if st.Bytes > numShards*1024 {
		t.Fatalf("bytes %d exceed total budget %d", st.Bytes, numShards*1024)
	}
	if st.Entries >= 200 {
		t.Fatalf("entries %d, want fewer than inserted", st.Entries)
	}
}

func TestLRUOrderRespected(t *testing.T) {
	c := New(numShards*1024, nil)
	// Three entries sized so a shard holds ~2: touch the first, insert a
	// third; the untouched second should go first when pressure comes.
	// Force same shard by hammering one shard's budget with many inserts
	// of the same key prefix is not deterministic across seeds, so assert
	// the weaker but stable property: a just-touched entry survives an
	// insert that evicts something.
	k1 := Key{Version: 1, Query: "keep"}
	mustDo(t, c, k1, 1)
	for i := 0; i < 100; i++ {
		if _, ok := lookup(c, k1); !ok {
			t.Fatalf("touched entry evicted at i=%d", i)
		}
		mustDo(t, c, Key{Version: 1, Query: fmt.Sprintf("filler%03d", i)}, i)
	}
	// k1 was re-touched before every insert, so unless it shares a shard
	// with every filler (impossible across 16 shards), it survives.
	if _, ok := lookup(c, k1); !ok {
		t.Fatal("most-recently-used entry was evicted")
	}
}

func TestOversizedEntryIsKeptNotThrashed(t *testing.T) {
	c := New(1, nil) // clamps to 1024 per shard
	k := Key{Version: 1, Query: "big"}
	_, _, err := c.Do(context.Background(), k, func() (Computed, error) {
		return Computed{Val: "huge", Bytes: 1 << 20, Store: true}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := lookup(c, k); !ok {
		t.Fatal("oversized entry evicted itself; cache would thrash on every oversized query")
	}
}

func TestReplaceExistingKeyAccounting(t *testing.T) {
	c := New(1<<20, nil)
	k := Key{Version: 1, Query: "q"}
	_, _, _ = c.Do(context.Background(), k, func() (Computed, error) {
		return Computed{Val: "a", Bytes: 100, Store: true}, nil
	})
	before := c.Stats()
	// Insert the same key again, larger, through its shard.
	sh := c.shardFor(k)
	sh.mu.Lock()
	sh.insert(k, "bb", 200)
	sh.mu.Unlock()
	after := c.Stats()
	if after.Entries != 1 {
		t.Fatalf("entries %d, want 1", after.Entries)
	}
	if after.Bytes <= 0 || after.Bytes == before.Bytes {
		t.Fatalf("bytes not re-accounted: before %d after %d", before.Bytes, after.Bytes)
	}
}

func TestCoalescingSharesOneComputation(t *testing.T) {
	mets := metrics.NewSet("cache_test")
	c := New(1<<20, mets)
	k := Key{Version: 1, Query: "q"}
	started := make(chan struct{})
	release := make(chan struct{})
	var computes atomic.Int64

	var wg sync.WaitGroup
	results := make([]Status, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, st, err := c.Do(context.Background(), k, func() (Computed, error) {
			computes.Add(1)
			close(started)
			<-release
			return Computed{Val: "answer", Bytes: 8, Store: true}, nil
		})
		if err != nil || v.(string) != "answer" {
			t.Errorf("leader: v=%v err=%v", v, err)
		}
		results[0] = st
	}()
	<-started
	for i := 1; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, st, err := c.Do(context.Background(), k, func() (Computed, error) {
				computes.Add(1)
				return Computed{Val: "answer", Bytes: 8, Store: true}, nil
			})
			if err != nil || v.(string) != "answer" {
				t.Errorf("waiter %d: v=%v err=%v", i, v, err)
			}
			results[i] = st
		}(i)
	}
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("%d computations, want 1", n)
	}
	if results[0] != Miss {
		t.Fatalf("leader status %v, want Miss", results[0])
	}
	var coalesced, hits int64
	for i := 1; i < 8; i++ {
		switch results[i] {
		case Coalesced:
			coalesced++
		case Hit:
			hits++
		default:
			t.Fatalf("waiter %d status %v, want Coalesced or Hit", i, results[i])
		}
	}
	if c, h, m := mets.CacheCoalesced.Value(), mets.CacheHits.Value(), mets.CacheMisses.Value(); c != coalesced || h != hits || m != 1 {
		t.Fatalf("coalesced %d, hits %d, misses %d; want %d, %d, 1", c, h, m, coalesced, hits)
	}
}

func TestLeaderFailureDoesNotPoisonWaiters(t *testing.T) {
	c := New(1<<20, nil)
	k := Key{Version: 1, Query: "q"}
	started := make(chan struct{})
	release := make(chan struct{})
	boom := errors.New("boom")

	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), k, func() (Computed, error) {
			close(started)
			<-release
			return Computed{}, boom
		})
		leaderErr <- err
	}()
	<-started

	waiterDone := make(chan error, 1)
	go func() {
		v, _, err := c.Do(context.Background(), k, func() (Computed, error) {
			// The waiter re-loops after the leader's failure and becomes
			// the next leader; its own computation succeeds.
			return Computed{Val: "recovered", Bytes: 8, Store: true}, nil
		})
		if err == nil && v.(string) != "recovered" {
			err = fmt.Errorf("waiter got %v", v)
		}
		waiterDone <- err
	}()
	close(release)
	if err := <-leaderErr; !errors.Is(err, boom) {
		t.Fatalf("leader error %v, want boom", err)
	}
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter: %v", err)
	}
}

func TestWaiterContextCancellation(t *testing.T) {
	c := New(1<<20, nil)
	k := Key{Version: 1, Query: "q"}
	started := make(chan struct{})
	release := make(chan struct{})

	go func() {
		_, _, _ = c.Do(context.Background(), k, func() (Computed, error) {
			close(started)
			<-release
			return Computed{Val: "late", Bytes: 8, Store: true}, nil
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, k, func() (Computed, error) {
			t.Error("canceled waiter must not compute")
			return Computed{}, nil
		})
		waiter <- err
	}()
	cancel()
	err := <-waiter
	var we *WaitError
	if !errors.As(err, &we) || !errors.Is(we.Err, context.Canceled) {
		t.Fatalf("waiter error %v, want WaitError{context.Canceled}", err)
	}
	if we.Error() == "" || errors.Unwrap(we) != context.Canceled {
		t.Fatalf("WaitError surface broken: %q unwrap=%v", we.Error(), errors.Unwrap(we))
	}

	// The flight is unaffected: release the leader, then the same key
	// serves the leader's value (a hit, or coalesced if the leader is
	// still mid-store).
	close(release)
	v, st, err := c.Do(context.Background(), k, func() (Computed, error) {
		return Computed{}, errors.New("must not run")
	})
	if err != nil || v.(string) != "late" || (st != Hit && st != Coalesced) {
		t.Fatalf("after cancellation: v=%v st=%v err=%v", v, st, err)
	}
}

func TestStatusString(t *testing.T) {
	for st, want := range map[Status]string{Miss: "miss", Hit: "hit", Coalesced: "coalesced"} {
		if got := st.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", st, got, want)
		}
	}
}

func TestConcurrentMixedKeys(t *testing.T) {
	mets := metrics.NewSet("cache_test")
	c := New(64<<10, mets)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := Key{Version: uint64(i % 3), Query: fmt.Sprintf("q%d", i%17)}
				v, _, err := c.Do(context.Background(), k, func() (Computed, error) {
					return Computed{Val: k, Bytes: 32, Store: true}, nil
				})
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if v.(Key) != k {
					t.Errorf("goroutine %d: wrong value %v for %v", g, v, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	h, m, co := mets.CacheHits.Value(), mets.CacheMisses.Value(), mets.CacheCoalesced.Value()
	if h == 0 || m == 0 {
		t.Fatalf("hits %d, misses %d: expected both", h, m)
	}
	if h+m+co != 8*500 {
		t.Fatalf("hits %d + misses %d + coalesced %d, want %d reads", h, m, co, 8*500)
	}
}

// TestRaiseDropsEntriesBelowTheFloor: Raise frees every entry keyed
// below the new floor, counts each as superseded rather than evicted,
// releases its bytes, and keeps the entries at the floor.
func TestRaiseDropsEntriesBelowTheFloor(t *testing.T) {
	mets := metrics.NewSet("cache_test")
	c := New(1<<20, mets)
	for v := uint64(1); v <= 3; v++ {
		for i := 0; i < 10; i++ {
			mustDo(t, c, Key{Version: v, Query: fmt.Sprintf("q%d", i)}, v)
		}
	}
	perVersion := c.Stats().Bytes / 3
	c.Raise(3)
	if st := c.Stats(); st.Entries != 10 || st.Bytes != perVersion {
		t.Fatalf("after Raise(3): %d entries, %d B; want 10, %d", st.Entries, st.Bytes, perVersion)
	}
	if got, ev := mets.CacheSuperseded.Value(), mets.CacheEvictions.Value(); got != 20 || ev != 0 {
		t.Fatalf("superseded %d, evicted %d; want 20, 0", got, ev)
	}
	if e, b := mets.CacheEntries.Value(), mets.CacheBytes.Value(); e != 10 || b != perVersion {
		t.Fatalf("gauges read %d entries, %d B; want 10, %d", e, b, perVersion)
	}
	if v, ok := lookup(c, Key{Version: 3, Query: "q4"}); !ok || v.(uint64) != 3 {
		t.Fatalf("entry at the floor: %v %v", v, ok)
	}
	// A lower floor is ignored, and the current one again sweeps nothing.
	c.Raise(2)
	c.Raise(3)
	if st := c.Stats(); st.Entries != 10 || mets.CacheSuperseded.Value() != 20 {
		t.Fatalf("a repeated Raise dropped entries: %d left, %d superseded", st.Entries, mets.CacheSuperseded.Value())
	}
	c.Raise(4)
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || mets.CacheBytes.Value() != 0 {
		t.Fatalf("after Raise(4): %+v, gauge %d B", st, mets.CacheBytes.Value())
	}
}

// TestInsertBelowTheFloorIsRefused: a computation keyed below the floor —
// one that began before a commit and finished after its sweep — returns
// its value to its caller but stores nothing and charges nothing.
func TestInsertBelowTheFloorIsRefused(t *testing.T) {
	mets := metrics.NewSet("cache_test")
	c := New(1<<20, mets)
	mustDo(t, c, Key{Version: 5, Query: "kept"}, "kept")
	before := c.Stats()
	c.Raise(5)
	for _, k := range []Key{{Version: 4, Query: "late"}, {Version: 0, Query: "kept"}} {
		v, st, err := c.Do(context.Background(), k, func() (Computed, error) {
			return Computed{Val: "late", Bytes: 1000, Store: true}, nil
		})
		if err != nil || v.(string) != "late" || st != Miss {
			t.Fatalf("Do %v: v=%v st=%v err=%v", k, v, st, err)
		}
		if _, ok := lookup(c, k); ok {
			t.Fatalf("%v below the floor was stored", k)
		}
	}
	if st := c.Stats(); st != before || mets.CacheBytes.Value() != before.Bytes || mets.CacheEntries.Value() != 1 {
		t.Fatalf("refused inserts moved the accounting: %+v → %+v, gauges %d B, %d entries",
			before, st, mets.CacheBytes.Value(), mets.CacheEntries.Value())
	}
}

// TestTrimEvictsLeastRecentFirst: Trim evicts down to its target, the
// least recently used entries first, counts them as evictions, and on a
// target below anything it can reach empties the cache and stops.
func TestTrimEvictsLeastRecentFirst(t *testing.T) {
	mets := metrics.NewSet("cache_test")
	c := New(1<<20, mets)
	const n = 64
	for i := 0; i < n; i++ {
		mustDo(t, c, Key{Version: 1, Query: fmt.Sprintf("q%02d", i)}, i)
	}
	per := c.Stats().Bytes / n // every entry is the same size
	if got := c.Trim(c.Stats().Bytes); got != 0 {
		t.Fatalf("a trim to the current size evicted %d", got)
	}
	if got := c.Trim(per * n / 2); got != n/2 {
		t.Fatalf("trim to half: evicted %d, want %d", got, n/2)
	}
	if st := c.Stats(); st.Bytes != per*n/2 || st.Entries != n/2 {
		t.Fatalf("after a trim to half: %+v", st)
	}
	// Within each shard, what is left is its most recent entries.
	kept := map[*shard]bool{} // a shard that kept an older entry
	for i := 0; i < n; i++ {
		k := Key{Version: 1, Query: fmt.Sprintf("q%02d", i)}
		s := c.shardFor(k)
		s.mu.Lock()
		_, ok := s.entries[k]
		s.mu.Unlock()
		if kept[s] && !ok {
			t.Errorf("%s was evicted while an older entry of its shard was kept", k.Query)
		}
		kept[s] = kept[s] || ok
	}
	if got := c.Trim(-1); got != n/2 || c.Stats().Entries != 0 {
		t.Fatalf("trim below zero: evicted %d, %d entries left", got, c.Stats().Entries)
	}
	if got := mets.CacheEvictions.Value(); got != n {
		t.Fatalf("cache_evictions = %d, want %d", got, n)
	}
	if got := c.Trim(-1); got != 0 {
		t.Fatalf("trimming an empty cache evicted %d", got)
	}
}
