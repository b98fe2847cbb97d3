package main

// Per-layer metrics of a traced run that come from the real daemon:
// source R (what the client observed) and source V (the /debug/vars delta
// across the timed window). The ladder (ladder.go) adds source T.

import (
	"io"
	"log/slog"
)

func discardLogger() *slog.Logger { return slog.New(slog.NewJSONHandler(io.Discard, nil)) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// clientLayer reports the client-side numbers that cannot carry a bound
// in BENCHMARK.json, which holds one end-to-end list for all workloads:
// the latencies of op types not every workload issues, the ask tail (its
// spread between runs exceeds any bound the contract allows; README,
// Repeatability), and the reply sizes.
func clientLayer(m map[string]metric, o *observations, res *runResult) {
	m["ask_p99_ms"] = p99(o.ask, "ms")
	m["query_p50_ms"] = p50(o.query, "ms")
	m["query_p99_ms"] = p99(o.query, "ms")
	m["query_first_binding_p50_ms"] = p50(o.first, "ms")
	m["write_p50_ms"] = p50(o.write, "ms")
	m["write_p99_ms"] = p99(o.write, "ms")
	m["read_after_write_p50_ms"] = p50(o.raw, "ms")
	m["failed_ops_ratio"] = metric{Value: ratio(float64(res.Failed), float64(res.Attempted)), Unit: "ratio", N: res.Attempted}
	m["server.resp_bytes_per_op"] = metric{Value: ratio(float64(o.respBytes), float64(res.Attempted)), Unit: "B", N: res.Attempted}
}

func procLayer(m map[string]metric, user, sys float64) {
	m["proc.cpu_user_s"] = metric{Value: user, Unit: "s"}
	m["proc.cpu_sys_s"] = metric{Value: sys, Unit: "s"}
}

// varsLayer turns the /debug/vars delta across the window into the V
// metrics. ops is the number of timed ops.
func varsLayer(m map[string]metric, before, after varsSnapshot, ops float64) {
	d := func(key string) float64 { return after.counter(key) - before.counter(key) }
	count := func(name, key string) { m[name] = metric{Value: d(key), Unit: "count"} }

	count("server.http_shed", "http_shed")
	count("hypo.pool_news", "pool_news")
	count("hypo.incremental_applies", "live_incremental_applies")
	count("hypo.incremental_fallbacks", "live_incremental_fallbacks")
	count("hypo.rebuilds", "live_rebuilds")
	count("hypo.substrate_builds", "live_substrate_builds")
	count("cache.evictions", "cache_evictions")
	count("cache.carried", "cache_carried")
	count("cache.coalesced", "cache_coalesced")
	count("magic.queries", "magic_queries")
	count("magic.fallbacks", "magic_fallbacks")
	count("magic.transforms", "magic_transforms")
	count("live.commits", "live_commits")
	count("live.compactions", "live_compactions")
	count("live.rejected", "live_rejected")

	lookups := d("cache_hits") + d("cache_misses") + d("cache_coalesced")
	m["cache.hit_ratio"] = metric{Value: ratio(d("cache_hits"), lookups), Unit: "ratio", N: int(lookups)}
	m["cache.bytes_end"] = metric{Value: after.counter("cache_bytes"), Unit: "B"}
	m["bottomup.materialisations_per_op"] = metric{Value: d("delta_materialisations") / ops, Unit: "count"}
	m["topdown.goals_per_op"] = metric{Value: d("goal_expansions") / ops, Unit: "count"}
	m["topdown.table_hit_ratio"] = metric{Value: ratio(d("table_hits"), d("table_hits")+d("goal_expansions")), Unit: "ratio"}

	ms0, ms1 := before.MemStats, after.MemStats
	m["runtime.alloc_bytes_per_op"] = metric{Value: float64(ms1.TotalAlloc-ms0.TotalAlloc) / ops, Unit: "B"}
	m["runtime.mallocs_per_op"] = metric{Value: float64(ms1.Mallocs-ms0.Mallocs) / ops, Unit: "count"}
	m["runtime.gc_cycles"] = metric{Value: float64(ms1.NumGC - ms0.NumGC), Unit: "count"}
	m["runtime.gc_pause_ms"] = metric{Value: float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6, Unit: "ms"}
}
