package metrics

import (
	"encoding/json"
	"expvar"
	"math"
	"reflect"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter = %d", c.Value())
	}
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(0.001, 0.01, 0.1)
	for _, v := range []float64{0.0005, 0.001, 0.005, 0.05, 99} {
		h.Observe(v)
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 3 || len(counts) != 4 {
		t.Fatalf("bounds=%v counts=%v", bounds, counts)
	}
	// 0.0005 and 0.001 land in le_0.001 (bounds are inclusive upper).
	want := []int64{2, 1, 1, 1}
	for i, n := range counts {
		if n != want[i] {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, n, want[i], counts)
		}
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if got := h.Sum(); math.Abs(got-99.0565) > 1e-6 {
		t.Errorf("sum = %v, want 99.0565", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(1, 2, 3)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Observe(float64(g % 4))
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Fatalf("count = %d, want 4000", h.Count())
	}
	_, counts := h.Buckets()
	var sum int64
	for _, n := range counts {
		sum += n
	}
	if sum != 4000 {
		t.Fatalf("bucket sum = %d, want 4000", sum)
	}
}

// TestExpvarExport checks that the "hypo" expvar variable is published and
// renders valid JSON that tracks the live counters.
func TestExpvarExport(t *testing.T) {
	v := expvar.Get("hypo")
	if v == nil {
		t.Fatal(`expvar.Get("hypo") = nil; init() did not publish`)
	}
	before := Default.QueriesStarted.Value()
	Default.QueriesStarted.Inc()
	var snap map[string]any
	if err := json.Unmarshal([]byte(v.String()), &snap); err != nil {
		t.Fatalf("expvar JSON: %v\n%s", err, v.String())
	}
	got, ok := snap["queries_started"].(float64)
	if !ok || int64(got) != before+1 {
		t.Errorf("queries_started via expvar = %v, want %d", snap["queries_started"], before+1)
	}
	if _, ok := snap["query_latency_buckets"]; !ok {
		t.Error("snapshot missing query_latency_buckets")
	}
}

// TestSnapshotKeys pins the export: a snapshot holds exactly these keys,
// and every Counter and Gauge field of Set is exported under one of them
// (the other three keys are QueryLatency's).
func TestSnapshotKeys(t *testing.T) {
	want := []string{
		"queries_started", "queries_succeeded", "queries_failed", "queries_canceled",
		"goal_expansions", "table_hits", "delta_materialisations", "delta_materialisations_derived",
		"pool_gets", "pool_puts", "pool_news",
		"http_requests", "http_shed", "http_queued", "http_in_flight",
		"live_commits", "live_mutations", "live_rejected", "live_replayed", "live_rebuilds",
		"live_compactions", "live_incremental_applies", "live_incremental_fallbacks",
		"live_incremental_atoms", "live_incremental_states", "live_incremental_dropped",
		"live_substrate_builds", "live_version", "live_snapshot_age", "live_readonly",
		"cache_hits", "cache_misses", "cache_coalesced", "cache_evictions", "cache_superseded",
		"cache_bytes", "cache_entries",
		"repl_frames_sent", "repl_snapshots_served", "repl_streams", "repl_records_applied",
		"repl_bootstraps", "repl_reconnects", "repl_applied_version", "repl_primary_version",
		"repl_lag", "repl_connected", "repl_proxied_writes", "repl_min_version_waits",
		"repl_min_version_timeouts",
		"mem_query_aborts", "mem_tenant_shed", "mem_pool_bytes", "mem_cache_bytes", "mem_engine_trims",
		"disk_quota_shed", "disk_degraded_transient", "disk_recovery_probes", "disk_recoveries", "disk_bytes",
		"proxy_breaker_state", "proxy_breaker_opens", "proxy_retries", "proxy_fast_fails",
		"query_latency_count", "query_latency_sum", "query_latency_buckets",
	}
	snap := NewSet("hypo_keys").Snapshot()
	for _, k := range want {
		if _, ok := snap[k]; !ok {
			t.Errorf("Snapshot missing %q", k)
		}
	}
	if len(snap) != len(want) {
		t.Errorf("Snapshot has %d keys, want %d", len(snap), len(want))
	}
	set := reflect.TypeFor[Set]()
	counter, gauge := reflect.TypeFor[Counter](), reflect.TypeFor[Gauge]()
	n := 0
	for i := 0; i < set.NumField(); i++ {
		if ft := set.Field(i).Type; ft == counter || ft == gauge {
			n++
		}
	}
	if n+3 != len(want) {
		t.Errorf("Set has %d Counter and Gauge fields; with QueryLatency's 3 keys that is %d keys, want %d", n, n+3, len(want))
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if g.Value() != 0 {
		t.Fatalf("zero gauge = %d", g.Value())
	}
	g.Inc()
	g.Inc()
	g.Dec()
	if g.Value() != 1 {
		t.Fatalf("gauge = %d, want 1", g.Value())
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if g.Value() != 1 {
		t.Fatalf("gauge after balanced churn = %d, want 1", g.Value())
	}
}

// TestNewSetIsolated: instance-scoped sets share nothing — a counter
// bumped on one set must not move on another, and each set keeps its
// own name and snapshot.
func TestNewSetIsolated(t *testing.T) {
	a := NewSet("hypo_a")
	b := NewSet("hypo_b")
	a.QueriesStarted.Add(3)
	a.HTTPShed.Inc()
	if b.QueriesStarted.Value() != 0 || b.HTTPShed.Value() != 0 {
		t.Fatalf("set b saw set a's increments: %d, %d",
			b.QueriesStarted.Value(), b.HTTPShed.Value())
	}
	if Default.QueriesStarted.Value() < 0 {
		t.Fatal("unreachable; keeps Default referenced")
	}
	if a.Name() != "hypo_a" || b.Name() != "hypo_b" {
		t.Errorf("names = %q, %q", a.Name(), b.Name())
	}
	snap := a.Snapshot()
	if got, ok := snap["queries_started"].(int64); !ok || got != 3 {
		t.Errorf("snapshot queries_started = %v, want 3", snap["queries_started"])
	}
	a.QueryLatency.Observe(0.005)
	if b.QueryLatency.Count() != 0 {
		t.Error("histograms shared between sets")
	}
}

// TestPublishFuncIdempotent mirrors the Publish guard for dynamic vars.
func TestPublishFuncIdempotent(t *testing.T) {
	PublishFunc("hypo_test_dynamic", func() any { return map[string]any{"x": 1} })
	PublishFunc("hypo_test_dynamic", func() any { return map[string]any{"x": 2} })
	v := expvar.Get("hypo_test_dynamic")
	if v == nil {
		t.Fatal("PublishFunc did not publish")
	}
	var snap map[string]int
	if err := json.Unmarshal([]byte(v.String()), &snap); err != nil {
		t.Fatalf("dynamic expvar JSON: %v\n%s", err, v.String())
	}
	if snap["x"] != 1 {
		t.Errorf("second PublishFunc replaced the first: %v", snap)
	}
}

// TestPublishExpvarIdempotent: expvar.Publish panics on duplicate names,
// so the export must survive being requested from several packages.
func TestPublishExpvarIdempotent(t *testing.T) {
	PublishExpvar() // already ran via init()
	PublishExpvar()
	if expvar.Get("hypo") == nil {
		t.Fatal(`expvar.Get("hypo") = nil after PublishExpvar`)
	}
}
