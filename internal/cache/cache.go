// Package cache is a sharded, byte-budgeted LRU answer cache with
// singleflight request coalescing, used by the hypo layer to memoise
// query answers across engine leases.
//
// # Keying and version expiry
//
// Entries are keyed by (Version, Query): the data version of the base
// EDB the answer was computed at, and an opaque canonical query string
// (the hypo layer folds the operation kind and any sorted hypothetical
// adds into it). Because the version is part of the key, a hot engine
// swap invalidates by construction: readers at the new version compute
// new keys and never look up the old entries, so a stale-version answer
// can never be served to a reader keyed at a newer version.
//
// The cache also has a floor, the version below which nothing can be
// read again: readers key at the pool's data version, which only moves
// forward. Raise moves the floor up and drops every stored entry keyed
// below it, and an insert keyed below the floor is refused, so an entry
// whose computation began before a commit cannot be stored after the
// commit's sweep. The hypo layer raises the floor on every commit; with
// no older entry left to walk past, each entry is visited once, by the
// sweep of the commit that supersedes it.
//
// # Coalescing
//
// Do runs at most one computation per key at a time. Concurrent callers
// of the same key join the in-flight computation ("flight") and receive
// its value when it completes — N identical cache misses under load cost
// one evaluation. Errors are deliberately NOT shared: a leader that
// fails (its context was canceled, its yield callback aborted, the
// evaluation hit a budget) returns its error only to itself; waiters
// loop — re-checking the cache and possibly becoming the next leader —
// so one caller's abort never poisons the answer for the others. A
// waiter whose own context ends while waiting leaves the flight with its
// context's error and no side effects.
//
// # Budget
//
// The byte budget is split evenly across shards; each shard evicts its
// own least-recently-used entries when over its slice of the budget.
// Entry sizes are caller-reported (the cache stores opaque values) plus
// a fixed per-entry overhead and the key length.
package cache

import (
	"context"
	"hash/maphash"
	"sync"

	"hypodatalog/internal/metrics"
)

// Key identifies one cached answer: the data version it was computed at
// and the canonical query string (kind, query text, sorted adds).
type Key struct {
	Version uint64
	Query   string
}

// entryOverhead is the heap an entry's bookkeeping holds, charged on
// top of the caller-reported value size and the key length: the 64-byte
// entry (key, value, size, list links) and its cell in the shard's map,
// 32 bytes at a load of 7/8 or less that doubles when it fills.
const entryOverhead = 128

// Status reports how a Do call was served.
type Status int

const (
	// Miss: this caller ran the computation (and stored the result).
	Miss Status = iota
	// Hit: the answer was already in the cache.
	Hit
	// Coalesced: another caller was already computing this key; this
	// caller waited and shares the result without evaluating anything.
	Coalesced
)

func (s Status) String() string {
	switch s {
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	default:
		return "miss"
	}
}

// Computed is the result of one Do computation. Store=false returns the
// value to the caller (and any coalesced waiters) without caching it —
// the hypo layer uses it when the engine it leased turned out to be at a
// different data version than the key.
type Computed struct {
	Val   any
	Bytes int64
	Store bool
}

// WaitError reports that a Do caller's context ended while it was
// waiting on another caller's in-flight computation. Err is the context
// error (context.Canceled or context.DeadlineExceeded); the flight it
// was waiting on is unaffected.
type WaitError struct{ Err error }

func (e *WaitError) Error() string { return "cache: wait aborted: " + e.Err.Error() }
func (e *WaitError) Unwrap() error { return e.Err }

// Stats is a point-in-time snapshot of what one cache holds. Its hits,
// misses, coalesces, evictions and superseded entries are counted in its
// metric set.
type Stats struct {
	Bytes   int64
	Entries int64
}

// Cache is the sharded LRU. Safe for concurrent use.
type Cache struct {
	shards []shard
	seed   maphash.Seed
	mets   *metrics.Set // metric set the cache reports into (never nil)
}

type shard struct {
	mu      sync.Mutex
	mets    *metrics.Set // the owning cache's set
	budget  int64
	bytes   int64
	floor   uint64 // no entry keyed below it is stored; see Raise
	entries map[Key]*entry
	flights map[Key]*flight
	// Intrusive LRU list: head.next is most recent, head.prev least.
	head entry
}

type entry struct {
	key        Key
	val        any
	bytes      int64
	prev, next *entry
}

// flight is one in-progress computation; done is closed once val/err are
// set. ok distinguishes a shareable success from a leader failure.
type flight struct {
	done chan struct{}
	val  any
	ok   bool
}

// numShards balances lock contention against budget fragmentation.
const numShards = 16

// New builds a cache with the given total byte budget, reporting into
// the given metric set (nil means metrics.Default). Budgets are clamped
// so every shard can hold at least one small entry.
func New(budgetBytes int64, mets *metrics.Set) *Cache {
	if mets == nil {
		mets = metrics.Default
	}
	per := budgetBytes / numShards
	if per < 1024 {
		per = 1024
	}
	c := &Cache{shards: make([]shard, numShards), seed: maphash.MakeSeed(), mets: mets}
	for i := range c.shards {
		s := &c.shards[i]
		s.mets = mets
		s.budget = per
		s.entries = make(map[Key]*entry)
		s.flights = make(map[Key]*flight)
		s.head.next = &s.head
		s.head.prev = &s.head
	}
	return c
}

func (c *Cache) shardFor(k Key) *shard {
	var h maphash.Hash
	h.SetSeed(c.seed)
	var v [8]byte
	for i := 0; i < 8; i++ {
		v[i] = byte(k.Version >> (8 * i))
	}
	_, _ = h.Write(v[:])
	_, _ = h.WriteString(k.Query)
	return &c.shards[h.Sum64()%numShards]
}

// Do returns the cached value for k, or computes it. At most one compute
// runs per key at a time; concurrent callers coalesce onto it (see the
// package comment for the error-sharing policy). ctx bounds only the
// wait on another caller's flight — the compute callback is responsible
// for honouring its own context.
func (c *Cache) Do(ctx context.Context, k Key, compute func() (Computed, error)) (any, Status, error) {
	s := c.shardFor(k)
	for {
		s.mu.Lock()
		if e, ok := s.entries[k]; ok {
			s.touch(e)
			s.mu.Unlock()
			c.mets.CacheHits.Inc()
			return e.val, Hit, nil
		}
		if f, ok := s.flights[k]; ok {
			s.mu.Unlock()
			select {
			case <-f.done:
				if f.ok {
					c.mets.CacheCoalesced.Inc()
					return f.val, Coalesced, nil
				}
				// The leader failed; its error is its own. Loop: the next
				// iteration re-checks the cache and may become the leader.
				continue
			case <-ctx.Done():
				return nil, Miss, &WaitError{Err: ctx.Err()}
			}
		}
		f := &flight{done: make(chan struct{})}
		s.flights[k] = f
		s.mu.Unlock()

		res, err := compute()
		s.mu.Lock()
		delete(s.flights, k)
		if err == nil && res.Store {
			c.mets.CacheEvictions.Add(s.insert(k, res.Val, res.Bytes))
		}
		f.val, f.ok = res.Val, err == nil
		close(f.done)
		s.mu.Unlock()
		c.mets.CacheMisses.Inc()
		return res.Val, Miss, err
	}
}

// insert stores (or replaces) an entry and evicts LRU entries until the
// shard is within budget, returning how many were evicted. A key below
// the floor is refused: nothing is stored or charged. Called with the
// shard lock held.
func (s *shard) insert(k Key, val any, bytes int64) int64 {
	if k.Version < s.floor {
		return 0
	}
	size := bytes + int64(len(k.Query)) + entryOverhead
	if e, ok := s.entries[k]; ok {
		s.bytes += size - e.bytes
		s.mets.CacheBytes.Add(size - e.bytes)
		e.val, e.bytes = val, size
		s.touch(e)
	} else {
		e := &entry{key: k, val: val, bytes: size}
		s.entries[k] = e
		s.bytes += size
		s.mets.CacheBytes.Add(size)
		s.mets.CacheEntries.Add(1)
		s.pushFront(e)
	}
	var evicted int64
	for s.bytes > s.budget && s.head.prev != &s.head {
		old := s.head.prev
		// Never evict the entry just inserted, even if it alone exceeds
		// the shard budget — a cache that cannot hold its newest answer
		// would thrash on every oversized query.
		if old.key == k {
			break
		}
		s.remove(old)
		evicted++
	}
	return evicted
}

// Raise moves the floor to v and drops every stored entry keyed below
// it, counting each as superseded; from then on an insert keyed below v
// is refused. Each shard is swept under its own lock, so an insert racing
// the sweep either lands first and is swept or comes after and is
// refused. A floor below the current one is ignored; raising to the
// current floor again drops nothing, the guard in insert having let
// nothing in below it.
func (c *Cache) Raise(v uint64) {
	var swept int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		if v >= s.floor {
			s.floor = v
			for k, e := range s.entries {
				if k.Version < v {
					s.remove(e)
					swept++
				}
			}
		}
		s.mu.Unlock()
	}
	c.mets.CacheSuperseded.Add(swept)
}

// Trim evicts least-recently-used entries until the cache holds at most
// target bytes, or nothing, and returns how many it evicted, counting
// them as evictions. The shards give up their oldest entry in turn, so
// across the cache the order is least recent first up to the spread of
// keys over shards.
func (c *Cache) Trim(target int64) int64 {
	total := c.Stats().Bytes
	var evicted int64
	for total > target {
		n := evicted
		for i := range c.shards {
			if total <= target {
				break
			}
			s := &c.shards[i]
			s.mu.Lock()
			if old := s.head.prev; old != &s.head {
				total -= old.bytes
				s.remove(old)
				evicted++
			}
			s.mu.Unlock()
		}
		if evicted == n {
			break // every shard is empty
		}
	}
	c.mets.CacheEvictions.Add(evicted)
	return evicted
}

// Stats snapshots what the cache holds.
func (c *Cache) Stats() Stats {
	var st Stats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Bytes += s.bytes
		st.Entries += int64(len(s.entries))
		s.mu.Unlock()
	}
	return st
}

// touch moves e to the front of the LRU list.
func (s *shard) touch(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	s.pushFront(e)
}

func (s *shard) pushFront(e *entry) {
	e.next = s.head.next
	e.prev = &s.head
	s.head.next.prev = e
	s.head.next = e
}

// remove unlinks e and releases its accounting. Called with the shard
// lock held.
func (s *shard) remove(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
	delete(s.entries, e.key)
	s.bytes -= e.bytes
	s.mets.CacheBytes.Add(-e.bytes)
	s.mets.CacheEntries.Add(-1)
}
