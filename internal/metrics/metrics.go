// Package metrics is the observability layer for the hypothetical
// Datalog engines: lock-free atomic counters and latency histograms,
// exported through the standard library's expvar registry (so
// `GET /debug/vars` on any process that mounts expvar's handler reports
// them).
//
// Metrics are grouped into instance-scoped Sets. A Set is one serving
// instance's counters — one engine pool, one live store, one HTTP
// surface. A process hosting several independent pools (the multi-tenant
// hdld) gives each its own Set so that one tenant's traffic never
// perturbs another's numbers; Default is the process-wide set used by
// everything that is not explicitly scoped, published under the legacy
// expvar name "hypo" (the default tenant's alias).
//
// The hot proving loops never touch this package. Counters are updated
// once per query (or per pool transition) from the public API layer, so
// enabling metrics costs a handful of atomic adds per query, not per goal
// expansion.
package metrics

import (
	"expvar"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n to the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous level — it goes up and down (e.g.
// requests currently in flight), unlike the monotone Counter.
type Gauge struct {
	v atomic.Int64
}

// Inc raises the gauge by one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec lowers the gauge by one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set overwrites the gauge's level (e.g. the current data version).
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add shifts the gauge by a signed delta (e.g. bytes held by a cache);
// several instances adding deltas into one gauge aggregate correctly.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets (cumulative counts are
// derivable from the per-bucket counts). Observations above the last
// bound land in an overflow bucket. All methods are safe for concurrent
// use.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	count  atomic.Int64
	sumNs  atomic.Int64 // sum of observations, in nanoseconds-of-a-second
}

// NewHistogram builds a histogram over the given ascending bucket upper
// bounds.
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one observation (for latencies, in seconds).
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(v * float64(time.Second)))
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return float64(h.sumNs.Load()) / float64(time.Second) }

// Buckets returns the bucket upper bounds and the per-bucket counts (one
// extra trailing count for observations above the last bound).
func (h *Histogram) Buckets() ([]float64, []int64) {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return h.bounds, out
}

// queryLatencyBounds bucket wall-clock seconds per query, 100µs to 10s.
var queryLatencyBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Set is one serving instance's metric set: every hypo.Engine, hypo.Pool,
// hypo.Live, answer cache and HTTP surface reports into exactly one Set.
// The zero value is NOT usable (QueryLatency needs allocation) — build
// Sets with NewSet. All fields are safe for concurrent use.
type Set struct {
	name string

	// Query lifecycle. Every started query ends in exactly one of
	// succeeded (evaluated to an answer, true or false), failed (parse,
	// domain, configuration or budget error), or canceled (the caller's
	// context was canceled or its deadline expired mid-evaluation).
	QueriesStarted   Counter `expvar:"queries_started"`
	QueriesSucceeded Counter `expvar:"queries_succeeded"`
	QueriesFailed    Counter `expvar:"queries_failed"`
	QueriesCanceled  Counter `expvar:"queries_canceled"`

	// Evaluation work, accumulated from per-engine stats deltas after
	// each query: top-down goal expansions and memo-table hits.
	GoalExpansions Counter `expvar:"goal_expansions"`
	TableHits      Counter `expvar:"table_hits"`

	// Bottom-up Δ-part materialisations computed (cache misses) by the
	// cascade's PROVE_Δ provers, and the subset of them derived from a
	// cached parent state's model rather than computed from nothing.
	DeltaMaterialisations        Counter `expvar:"delta_materialisations"`
	DeltaMaterialisationsDerived Counter `expvar:"delta_materialisations_derived"`

	// Pool traffic: engines handed out from the free list, engines
	// returned, and engines constructed because the free list was empty.
	PoolGets Counter `expvar:"pool_gets"`
	PoolPuts Counter `expvar:"pool_puts"`
	PoolNews Counter `expvar:"pool_news"`

	// HTTP serving layer (internal/server). HTTPRequests counts every
	// request that reached an API handler; HTTPShed counts requests
	// refused with 429 because the admission queue was full; HTTPQueued
	// and HTTPInFlight are the instantaneous number of requests waiting
	// for an evaluation slot and holding one.
	HTTPRequests Counter `expvar:"http_requests"`
	HTTPShed     Counter `expvar:"http_shed"`
	HTTPQueued   Gauge   `expvar:"http_queued"`
	HTTPInFlight Gauge   `expvar:"http_in_flight"`

	// Live EDB (hypo.Live / internal/live). LiveCommits counts committed
	// mutation batches, LiveMutations the individual mutations inside
	// them, LiveRejected the batches refused by validation (domain,
	// intensional predicate, non-ground). LiveReplayed counts WAL records
	// replayed at recovery, LiveRebuilds engines rebuilt because their
	// data version went stale, LiveCompactions snapshot compactions.
	// LiveVersion is the current data version; LiveSnapshotAge is how many
	// commits the snapshot lags it (the WAL tail a crash would replay).
	// LiveReadOnly is 1 while the store is degraded to read-only after an
	// unrecoverable I/O error (queries keep serving the last committed
	// version; mutations are refused until restart) — the gauge to alert
	// on.
	LiveCommits     Counter `expvar:"live_commits"`
	LiveMutations   Counter `expvar:"live_mutations"`
	LiveRejected    Counter `expvar:"live_rejected"`
	LiveReplayed    Counter `expvar:"live_replayed"`
	LiveRebuilds    Counter `expvar:"live_rebuilds"`
	LiveCompactions Counter `expvar:"live_compactions"`
	LiveVersion     Gauge   `expvar:"live_version"`
	LiveSnapshotAge Gauge   `expvar:"live_snapshot_age"`
	LiveReadOnly    Gauge   `expvar:"live_readonly"`

	// Incremental maintenance on the commit path. A stale pooled engine
	// normally catches up to the current data version by replaying the
	// commits' effective fact deltas in place: LiveIncrementalApplies
	// counts those catch-ups, LiveIncrementalAtoms the base atoms applied
	// by them, LiveIncrementalFallbacks the catch-ups that could not use
	// the delta path (history gap, oversized batch) and fell back to a
	// rebuild. LiveSubstrateBuilds counts pool bases interned from a
	// whole fact set: one when a pool is built (a Live's boot recovery)
	// and one per replica snapshot install; commits change the base in
	// place, and rebuilding engines clone it. Inside the cascade,
	// LiveIncrementalStates counts cached Δ-part materialisations
	// maintained in place and LiveIncrementalDropped the cached states (or
	// memo entries' worth of them) discarded to lazy recomputation.
	LiveIncrementalApplies   Counter `expvar:"live_incremental_applies"`
	LiveIncrementalFallbacks Counter `expvar:"live_incremental_fallbacks"`
	LiveIncrementalAtoms     Counter `expvar:"live_incremental_atoms"`
	LiveIncrementalStates    Counter `expvar:"live_incremental_states"`
	LiveIncrementalDropped   Counter `expvar:"live_incremental_dropped"`
	LiveSubstrateBuilds      Counter `expvar:"live_substrate_builds"`

	// Versioned answer cache (internal/cache). CacheHits counts reads
	// served from a stored entry, CacheMisses reads that ran an
	// evaluation, CacheCoalesced reads that waited on another caller's
	// identical in-flight evaluation and shared its answer (no engine
	// lease of their own). CacheEvictions counts entries dropped for byte
	// budget or a tenant's memory quota, CacheSuperseded entries dropped
	// because a commit moved the
	// data version past theirs, so no reader can key them again;
	// CacheBytes and CacheEntries are the instantaneous totals across
	// every cache reporting into this set.
	CacheHits       Counter `expvar:"cache_hits"`
	CacheMisses     Counter `expvar:"cache_misses"`
	CacheCoalesced  Counter `expvar:"cache_coalesced"`
	CacheEvictions  Counter `expvar:"cache_evictions"`
	CacheSuperseded Counter `expvar:"cache_superseded"`
	CacheBytes      Gauge   `expvar:"cache_bytes"`
	CacheEntries    Gauge   `expvar:"cache_entries"`

	// WAL-shipping replication (internal/repl). Primary side:
	// ReplFramesSent counts record/heartbeat/gone frames written to
	// followers, ReplSnapshotsServed bootstrap snapshots streamed, and
	// ReplStreams the tail streams currently open. Replica side:
	// ReplRecordsApplied counts WAL records applied through the local
	// store, ReplBootstraps snapshot bootstraps performed, ReplReconnects
	// stream re-establishments after an error or disconnect.
	// ReplAppliedVersion/ReplPrimaryVersion are the replica's applied data
	// version and the primary's last advertised one; ReplLag is their
	// difference and ReplConnected is 1 while a tail stream is open — the
	// pair to alert on. Serving layer: ReplProxiedWrites counts writes a
	// replica forwarded to the primary, ReplMinVersionWaits reads that had
	// to wait for the store to reach X-Hdl-Min-Version, and
	// ReplMinVersionTimeouts the waits that expired into a 503.
	ReplFramesSent         Counter `expvar:"repl_frames_sent"`
	ReplSnapshotsServed    Counter `expvar:"repl_snapshots_served"`
	ReplStreams            Gauge   `expvar:"repl_streams"`
	ReplRecordsApplied     Counter `expvar:"repl_records_applied"`
	ReplBootstraps         Counter `expvar:"repl_bootstraps"`
	ReplReconnects         Counter `expvar:"repl_reconnects"`
	ReplAppliedVersion     Gauge   `expvar:"repl_applied_version"`
	ReplPrimaryVersion     Gauge   `expvar:"repl_primary_version"`
	ReplLag                Gauge   `expvar:"repl_lag"`
	ReplConnected          Gauge   `expvar:"repl_connected"`
	ReplProxiedWrites      Counter `expvar:"repl_proxied_writes"`
	ReplMinVersionWaits    Counter `expvar:"repl_min_version_waits"`
	ReplMinVersionTimeouts Counter `expvar:"repl_min_version_timeouts"`

	// Memory governance. MemQueryAborts counts queries aborted because
	// their per-query growth exceeded Options.MaxMemoryBytes (surfaced to
	// callers as ErrMemory / HTTP 422). MemTenantShed counts requests a
	// tenant refused with 503 over_memory because the tenant's tracked
	// footprint (idle engines + answer cache) exceeded its memory quota.
	// MemPoolBytes and MemCacheBytes are the instantaneous tracked
	// footprints of the instance's idle engines and its answer cache;
	// MemEngineTrims counts idle engines dropped by quota-pressure trims.
	MemQueryAborts Counter `expvar:"mem_query_aborts"`
	MemTenantShed  Counter `expvar:"mem_tenant_shed"`
	MemPoolBytes   Gauge   `expvar:"mem_pool_bytes"`
	MemCacheBytes  Gauge   `expvar:"mem_cache_bytes"`
	MemEngineTrims Counter `expvar:"mem_engine_trims"`

	// Disk governance. DiskQuotaShed counts mutation batches refused with
	// 503 over_disk because the tenant's on-disk footprint (WAL + snapshot)
	// exceeded its disk quota. DiskDegradedTransient counts degradations
	// classified as transient I/O pressure (ENOSPC and friends) — eligible
	// for automatic recovery — versus sticky corruption.
	// DiskRecoveryProbes counts background probe attempts while degraded;
	// DiskRecoveries counts successful re-enables of the write path.
	// DiskBytes is the instantaneous on-disk footprint (WAL + snapshots).
	DiskQuotaShed         Counter `expvar:"disk_quota_shed"`
	DiskDegradedTransient Counter `expvar:"disk_degraded_transient"`
	DiskRecoveryProbes    Counter `expvar:"disk_recovery_probes"`
	DiskRecoveries        Counter `expvar:"disk_recoveries"`
	DiskBytes             Gauge   `expvar:"disk_bytes"`

	// Replica→primary write-proxy circuit breaker. ProxyBreakerState is
	// the current state (0 closed, 1 half-open, 2 open); ProxyBreakerOpens
	// counts closed→open transitions. ProxyRetries counts per-request
	// retry attempts after a retryable failure, ProxyFastFails requests
	// answered 503 primary_unreachable without touching the network
	// because the breaker was open.
	ProxyBreakerState Gauge   `expvar:"proxy_breaker_state"`
	ProxyBreakerOpens Counter `expvar:"proxy_breaker_opens"`
	ProxyRetries      Counter `expvar:"proxy_retries"`
	ProxyFastFails    Counter `expvar:"proxy_fast_fails"`

	// QueryLatency buckets wall-clock seconds per query, 100µs to 10s.
	QueryLatency *Histogram
}

// NewSet builds a fresh, zeroed metric set. name is the expvar name the
// set registers under when Publish is called; use one name per serving
// instance ("hypo" is reserved for Default, tenants use "hypo_<tenant>").
// NewSet does not publish — a Set is usable without ever touching expvar,
// which is how per-tenant sets are surfaced through a single dynamic
// registry snapshot instead of leaking one expvar per created-then-
// deleted tenant.
func NewSet(name string) *Set {
	return &Set{name: name, QueryLatency: NewHistogram(queryLatencyBounds...)}
}

// Name returns the expvar name the set registers under.
func (s *Set) Name() string { return s.name }

// valuer is what Counter and Gauge share: the reading Snapshot exports.
type valuer interface{ Value() int64 }

// exported lists Set's Counter and Gauge fields by index, each with the
// expvar key its tag declares. A field without a key is a build mistake:
// the package panics at init rather than export the set without it.
var exported = func() (out []exportedField) {
	set := reflect.TypeFor[Set]()
	for i := range set.NumField() {
		f := set.Field(i)
		if !reflect.PointerTo(f.Type).Implements(reflect.TypeFor[valuer]()) {
			continue
		}
		key := f.Tag.Get("expvar")
		if key == "" {
			panic("metrics: Set." + f.Name + " has no expvar key")
		}
		out = append(out, exportedField{key, i})
	}
	return out
}()

type exportedField struct {
	key   string
	index int
}

// Snapshot returns the current value of every metric in the set, keyed by
// the names used in the expvar export.
func (s *Set) Snapshot() map[string]any {
	out := make(map[string]any, len(exported)+3)
	v := reflect.ValueOf(s).Elem()
	for _, f := range exported {
		out[f.key] = v.Field(f.index).Addr().Interface().(valuer).Value()
	}
	out["query_latency_count"] = s.QueryLatency.Count()
	out["query_latency_sum"] = s.QueryLatency.Sum()
	bounds, counts := s.QueryLatency.Buckets()
	buckets := make(map[string]int64, len(counts))
	for i, n := range counts {
		if i < len(bounds) {
			buckets[fmt.Sprintf("le_%g", bounds[i])] = n
		} else {
			buckets["le_inf"] = n
		}
	}
	out["query_latency_buckets"] = buckets
	return out
}

// published guards expvar registration: expvar.Publish panics on a
// duplicate name, and test binaries re-run packages with -count, so every
// registration in this package is name-idempotent.
var (
	publishMu sync.Mutex
	published = map[string]bool{}
)

// Publish registers the set's expvar variable under its name. It is
// idempotent per name: repeated calls — and a name already registered by
// someone else — are no-ops rather than the expvar.Publish panic. A
// published Set must outlive the process (expvar has no unregister);
// short-lived sets (tenants created and deleted at runtime) should be
// surfaced through a dynamic parent snapshot (see PublishFunc) instead.
func (s *Set) Publish() {
	PublishFunc(s.name, func() any { return s.Snapshot() })
}

// PublishFunc registers an expvar Func under name, idempotently. The
// multi-tenant registry uses it to export one "hypo_programs" variable
// whose snapshot walks the live tenants — created and deleted tenants
// appear and disappear without fighting expvar's register-once model.
func PublishFunc(name string, fn func() any) {
	publishMu.Lock()
	defer publishMu.Unlock()
	if published[name] || expvar.Get(name) != nil {
		published[name] = true
		return
	}
	published[name] = true
	expvar.Publish(name, expvar.Func(fn))
}

// Default is the process-wide metric set, published under the legacy
// expvar name "hypo". Every engine, pool, cache and server that is not
// given an explicit Set reports here — in a single-program process it is
// the only set, and in a multi-tenant one it is the default tenant's
// alias, so dashboards built against the legacy names keep working.
var Default = NewSet("hypo")

// Snapshot returns the Default set's snapshot (legacy package-level
// form).
func Snapshot() map[string]any { return Default.Snapshot() }

// PublishExpvar registers the "hypo" expvar variable for the Default
// set. It is idempotent; it runs automatically on package init — call it
// explicitly only when expvar registration order matters.
func PublishExpvar() { Default.Publish() }

func init() { PublishExpvar() }
