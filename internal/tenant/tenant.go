// Package tenant implements a registry of named hypothetical-Datalog
// programs served side by side from one process. Each tenant owns the
// full vertical slice of serving state — a hypo.Live store over its own
// WAL/snapshot directory, an engine pool, an answer-cache byte budget,
// an admission quota, and a metrics.Set — so one program saturating its
// queue or cache cannot shed, evict, or slow another. The HTTP layer in
// internal/server resolves a *Tenant per request and works only through
// it; nothing in this package is a process-wide singleton except the
// one dynamic "hypo_programs" expvar that snapshots every live tenant.
//
// Registries come in two shapes. A dynamic registry (Open) manages a
// directory of per-tenant state dirs — <dir>/<name>/{program.hdl,
// wal.log, snapshot.hdlsnap} — and supports runtime Create/Delete with
// the server's two-phase drain. A static registry (NewStatic) wraps one
// pre-built Pool/Live as the default tenant of a single-program server;
// admin operations on it fail with ErrStatic.
package tenant

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	hypo "hypodatalog"
	"hypodatalog/internal/metrics"
)

// Admission and admin-surface errors. The server maps these onto the
// standard error-status table (ErrShed → 429, ErrDraining → 503, ...).
var (
	// ErrShed reports a full admission queue: the tenant is at its
	// concurrency quota and its wait queue is also full.
	ErrShed = errors.New("tenant: admission queue full")
	// ErrDraining reports that the tenant (or the whole registry) is
	// shutting down and refuses new work.
	ErrDraining = errors.New("tenant: program is draining")
	// ErrUnknown reports a program name with no registered tenant.
	ErrUnknown = errors.New("tenant: unknown program")
	// ErrBadName reports a program name outside ^[a-z0-9][a-z0-9_-]{0,63}$.
	ErrBadName = errors.New("tenant: invalid program name")
	// ErrBadProgram reports a rulebase that failed to parse or stratify.
	ErrBadProgram = errors.New("tenant: invalid program")
	// ErrConflict reports a Create whose rulebase differs from the one
	// already registered under that name.
	ErrConflict = errors.New("tenant: program exists with different rules")
	// ErrStatic reports an admin operation on a static registry.
	ErrStatic = errors.New("tenant: registry is static (no programs directory)")
	// ErrProtected reports an attempt to delete the default program.
	ErrProtected = errors.New("tenant: the default program cannot be deleted")
	// ErrClosed reports an operation on a closed registry.
	ErrClosed = errors.New("tenant: registry is closed")
	// ErrOverMemory reports a request refused because the tenant's
	// tracked memory footprint (idle engines + answer cache) exceeds its
	// quota even after trimming idle engines. The server maps it to 503
	// over_memory.
	ErrOverMemory = errors.New("tenant: memory quota exceeded")
	// ErrOverDisk reports a mutation refused because the tenant's
	// on-disk footprint (WAL + snapshot) exceeds its quota. Reads keep
	// serving; the server maps it to 503 over_disk.
	ErrOverDisk = errors.New("tenant: disk quota exceeded")
)

// Tenant is one named program plus everything it needs to serve
// requests in isolation: live store, engine pool, metrics set, and a
// private admission gate (slots + bounded queue). Create tenants
// through a Registry; the zero value is not usable.
type Tenant struct {
	name      string
	dir       string // per-tenant state directory; "" for static tenants
	source    string // rulebase text as registered
	rulesHash uint64
	pool      *hypo.Pool
	live      *hypo.Live // nil when the tenant wraps a bare pool
	mets      *metrics.Set

	sem      chan struct{} // evaluation slots (admission quota)
	queued   atomic.Int64  // requests waiting for a slot
	maxQueue int64
	draining atomic.Bool
	drainCh  chan struct{} // closed by BeginDrain; wakes queued waiters

	// memQuota and diskQuota are the tenant's resource ceilings (0 =
	// unlimited): memQuota bounds the tracked footprint of idle engines
	// plus answer cache (Admit trims idle engines, then sheds with
	// ErrOverMemory); diskQuota bounds WAL + snapshot bytes (the write
	// path sheds with ErrOverDisk).
	memQuota  atomic.Int64
	diskQuota atomic.Int64
}

// newTenant builds a tenant whose admission width is its pool's size: a
// request admitted beyond it would only wait for an engine in the pool
// instead of in the bounded, sheddable queue. maxQueue <= 0 means four
// times that width.
func newTenant(name, dir, source string, rulesHash uint64, pool *hypo.Pool, live *hypo.Live, mets *metrics.Set, maxQueue int) *Tenant {
	if maxQueue <= 0 {
		maxQueue = 4 * pool.Size()
	}
	return &Tenant{
		name:      name,
		dir:       dir,
		source:    source,
		rulesHash: rulesHash,
		pool:      pool,
		live:      live,
		mets:      mets,
		sem:       make(chan struct{}, pool.Size()),
		maxQueue:  int64(maxQueue),
		drainCh:   make(chan struct{}),
	}
}

// Name returns the program name the tenant is registered under.
func (t *Tenant) Name() string { return t.name }

// Pool returns the tenant's engine pool.
func (t *Tenant) Pool() *hypo.Pool { return t.pool }

// Live returns the tenant's durable store, or nil for a static tenant
// built over a bare pool (its /v1/facts surface answers 501).
func (t *Tenant) Live() *hypo.Live { return t.live }

// Metrics returns the tenant's metric set. The default tenant reports
// into metrics.Default (the legacy "hypo" expvar names); every other
// tenant gets its own set, exported under the "hypo_programs" expvar.
func (t *Tenant) Metrics() *metrics.Set { return t.mets }

// Source returns the rulebase text the tenant was registered with.
func (t *Tenant) Source() string { return t.source }

// RulesHash fingerprints the tenant's rulebase (see Program.RulesHash).
func (t *Tenant) RulesHash() uint64 { return t.rulesHash }

// Version reports the tenant's current data version.
func (t *Tenant) Version() uint64 {
	if t.live != nil {
		return t.live.Version()
	}
	return t.pool.Version()
}

// Degraded reports whether the tenant's store recovered in a degraded
// state (e.g. a truncated WAL tail), with a reason.
func (t *Tenant) Degraded() (bool, string) {
	if t.live != nil {
		return t.live.Degraded()
	}
	return false, ""
}

// Recovering reports whether a background recovery prober is retrying
// the tenant's write path after a transient degradation.
func (t *Tenant) Recovering() bool {
	return t.live != nil && t.live.Recovering()
}

// SetQuotas sets the tenant's memory and disk ceilings in bytes (0 =
// unlimited). Safe to call at any time; quotas apply to subsequent
// admissions and writes.
func (t *Tenant) SetQuotas(memBytes, diskBytes int64) {
	t.memQuota.Store(memBytes)
	t.diskQuota.Store(diskBytes)
}

// overMemory enforces the memory quota: when the tenant's tracked
// footprint exceeds it, idle engines are trimmed first (dropping warm
// memo tables, which rebuild lazily), then least-recently-used cached
// answers; only if the footprint is still over is the request shed.
func (t *Tenant) overMemory() bool {
	quota := t.memQuota.Load()
	if quota <= 0 {
		return false
	}
	n := t.pool.MemBytes()
	t.mets.MemPoolBytes.Set(n)
	t.mets.MemCacheBytes.Set(t.pool.CacheMemBytes())
	if n <= quota {
		return false
	}
	if dropped := t.pool.TrimMemory(quota); dropped > 0 {
		t.mets.MemEngineTrims.Add(int64(dropped))
	}
	n = t.pool.MemBytes()
	t.mets.MemPoolBytes.Set(n)
	return n > quota
}

// CheckDiskQuota enforces the disk quota on the write path: it fails
// with ErrOverDisk while the tenant's WAL + snapshot footprint exceeds
// the quota. Reads are never disk-gated.
func (t *Tenant) CheckDiskQuota() error {
	quota := t.diskQuota.Load()
	if quota <= 0 || t.live == nil {
		return nil
	}
	n := t.live.Store().DiskBytes()
	t.mets.DiskBytes.Set(n)
	if n > quota {
		t.mets.DiskQuotaShed.Inc()
		return fmt.Errorf("%w: %d bytes on disk over quota %d", ErrOverDisk, n, quota)
	}
	return nil
}

// Admit reserves an evaluation slot on this tenant's quota, waiting in
// its bounded admission queue if none is free. It fails fast with
// ErrShed when the queue is full and ErrDraining when the tenant is (or
// starts) draining; a done ctx while queued surfaces as the ctx error.
// On success the returned release func must be called exactly once.
// Shed/queued/in-flight counters land on this tenant's metric set only,
// so a hot neighbour's pressure is visible per program.
func (t *Tenant) Admit(ctx context.Context) (release func(), err error) {
	if t.draining.Load() {
		return nil, ErrDraining
	}
	// Memory quota gates before the slot: a tenant over its ceiling must
	// not consume evaluation capacity it would only grow further.
	if t.overMemory() {
		t.mets.MemTenantShed.Inc()
		return nil, ErrOverMemory
	}
	acquired := false
	select {
	case t.sem <- struct{}{}:
		acquired = true
	default:
	}
	if !acquired {
		if t.queued.Add(1) > t.maxQueue {
			t.queued.Add(-1)
			t.mets.HTTPShed.Inc()
			return nil, ErrShed
		}
		t.mets.HTTPQueued.Inc()
		defer func() {
			t.queued.Add(-1)
			t.mets.HTTPQueued.Dec()
		}()
		select {
		case t.sem <- struct{}{}:
		case <-t.drainCh:
			return nil, ErrDraining
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	t.mets.HTTPInFlight.Inc()
	return func() {
		t.mets.HTTPInFlight.Dec()
		<-t.sem
	}, nil
}

// BeginDrain flips the tenant into draining mode: new Admit calls are
// refused with ErrDraining and queued waiters are woken and refused
// likewise. In-flight evaluations are not interrupted. Idempotent.
func (t *Tenant) BeginDrain() {
	if t.draining.CompareAndSwap(false, true) {
		close(t.drainCh)
	}
}

// Draining reports whether BeginDrain has been called.
func (t *Tenant) Draining() bool { return t.draining.Load() }

// drain waits for every in-flight evaluation to finish by acquiring all
// admission slots. BeginDrain must have been called first — otherwise
// new requests would race the acquisition. Holding every slot is a
// race-free proof that no request is past Admit, so the caller may
// close the tenant's stores. Returns ctx.Err() if the deadline expires
// with evaluations still in flight.
func (t *Tenant) drain(ctx context.Context) error {
	for i := 0; i < cap(t.sem); i++ {
		select {
		case t.sem <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// closeStores shuts the tenant's pool and (if any) live store.
// In-flight queries finish on their leased engines; see Pool.Close.
func (t *Tenant) closeStores() error {
	if t.live != nil {
		return t.live.Close()
	}
	return t.pool.Close()
}
