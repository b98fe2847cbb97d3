package server

// End-to-end resource-governance tests: memory-quota shedding (503
// over_memory), disk-quota write refusal (503 over_disk), transient
// degradation reporting in healthz while the recovery prober runs, and
// the circuit-broken write proxy on replicas.

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	hypo "hypodatalog"
	"hypodatalog/internal/metrics"
	"hypodatalog/internal/tenant"
	"hypodatalog/internal/vfs"
	"hypodatalog/internal/workload"
)

// TestOverMemoryShed: a tenant over its memory quota trims its idle
// engines and then its cached answers before it refuses anything, so a
// footprint that a trim brings under the quota is served; what the quota
// does refuse is answered 503 over_memory with a Retry-After.
func TestOverMemoryShed(t *testing.T) {
	s, ts := newTestServer(t, uniSrc,
		hypo.Options{PoolSize: 1, CacheBytes: 1 << 20}, Config{})
	s.def.SetQuotas(1, 0)
	cl := ts.Client()
	// The default program reports into the process-wide metric set, which
	// earlier tests (and earlier -count runs) have moved.
	m := s.def.Metrics()
	evictions, shed := m.CacheEvictions.Value(), m.MemTenantShed.Value()

	// First request: the only footprint is the idle engine, which the
	// quota gate trims away — admitted, evaluated, and the answer cached.
	resp, body := post(t, cl, ts.URL+"/v1/query", `{"query": "grad(S)"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("first query: status %d body %s (trimming should have satisfied the quota)",
			resp.StatusCode, body)
	}

	// Second request: the cached answer is over the 1-byte quota, and
	// the gate evicts it — admitted, and evaluated afresh.
	resp, body = post(t, cl, ts.URL+"/v1/query", `{"query": "grad(S)"}`)
	if resp.StatusCode != 200 || resp.Header.Get("X-Hdl-Cache") != "miss" {
		t.Fatalf("query over memory quota: status %d, X-Hdl-Cache %q, body %s (want 200 miss: the trim evicts the cached answer)",
			resp.StatusCode, resp.Header.Get("X-Hdl-Cache"), body)
	}
	if e, sh := m.CacheEvictions.Value()-evictions, m.MemTenantShed.Value()-shed; e != 1 || sh != 0 {
		t.Fatalf("cache_evictions +%d, mem_tenant_shed +%d; want +1, +0", e, sh)
	}

	// The refusal, when a trim does not suffice.
	rec := httptest.NewRecorder()
	s.refuse(rec, &reqInfo{}, tenant.ErrOverMemory)
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "over_memory") {
		t.Fatalf("over-memory refusal: status %d body %s (want 503 over_memory)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("over_memory refusal carries no Retry-After")
	}
}

// TestOverDiskShed: a tenant whose WAL+snapshot footprint exceeds its
// disk quota refuses writes with 503 over_disk; reads are untouched,
// and raising the quota re-enables writes with no other intervention.
func TestOverDiskShed(t *testing.T) {
	s, ts, _ := newLiveTestServer(t, hypo.Options{}, Config{})
	s.def.SetQuotas(0, 1)
	cl := ts.Client()

	resp, body := post(t, cl, ts.URL+"/v1/facts", `{"assert": ["edge(b, c)"]}`)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "over_disk") {
		t.Fatalf("write over disk quota: status %d body %s (want 503 over_disk)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("over_disk refusal carries no Retry-After")
	}

	// Reads never consult the disk quota.
	resp, body = post(t, cl, ts.URL+"/v1/ask", `{"query": "reach(a, b)"}`)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"result":true`) {
		t.Fatalf("read with disk over quota: status %d body %s", resp.StatusCode, body)
	}

	// Quota raised (operator action): the same write goes through.
	s.def.SetQuotas(0, 1<<30)
	resp, body = post(t, cl, ts.URL+"/v1/facts", `{"assert": ["edge(b, c)"]}`)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"version":1`) {
		t.Fatalf("write after quota raise: status %d body %s", resp.StatusCode, body)
	}
}

// TestHealthzTransientRecovery: a disk-full degradation shows up in
// healthz as degraded+recovering — at the top level and in the
// per-program map — and clears IN PLACE once space returns, no restart.
func TestHealthzTransientRecovery(t *testing.T) {
	prog, err := hypo.Parse(liveSrc)
	if err != nil {
		t.Fatal(err)
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	en := vfs.NewENOSPC(4)
	ft := vfs.NewFault(vfs.NewMem(), en)
	lv, err := hypo.OpenLive(prog, hypo.LiveConfig{
		WALPath:               "/db/wal.log",
		SnapshotPath:          "/db/db.snap",
		FS:                    ft,
		Logger:                quiet,
		RecoveryProbeInterval: 2 * time.Millisecond,
	}, hypo.Options{PoolSize: 1, Metrics: metrics.NewSet("test_healthz_recovery")})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Pool: lv.Pool(), Live: lv, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		lv.Close()
	})
	cl := ts.Client()

	en.Fill()
	resp, body := post(t, cl, ts.URL+"/v1/facts", `{"assert": ["edge(b, c)"]}`)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "read_only") {
		t.Fatalf("write on full disk: status %d body %s", resp.StatusCode, body)
	}
	hb := get(t, cl, ts.URL+"/healthz")
	for _, want := range []string{`"status":"degraded"`, `"reason":"read_only"`, `"recovering":true`} {
		if !strings.Contains(hb, want) {
			t.Fatalf("degraded healthz missing %s: %s", want, hb)
		}
	}
	if !strings.Contains(hb, `"default":{`) {
		t.Fatalf("healthz has no per-program map: %s", hb)
	}

	// Space returns: the background prober restores the write path and
	// healthz goes back to ok, still the same process.
	en.Release()
	deadline := time.Now().Add(5 * time.Second)
	for {
		hb = get(t, cl, ts.URL+"/healthz")
		if strings.Contains(hb, `"status":"ok"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz still degraded 5s after space returned: %s", hb)
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, body = post(t, cl, ts.URL+"/v1/facts", `{"assert": ["edge(b, c)"]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("write after in-place recovery: status %d body %s", resp.StatusCode, body)
	}
}

// TestProxyBreakerFastFailAndRecovery: an open breaker short-circuits
// proxied writes into an immediate 503 primary_unreachable (no dial, no
// timeout wait); after the cooldown one probe goes through, and its
// success against a healthy primary closes the breaker for everyone.
func TestProxyBreakerFastFailAndRecovery(t *testing.T) {
	_, primaryTS, primaryLive := newLiveTestServer(t, hypo.Options{}, Config{})
	mets := metrics.NewSet("test_breaker_e2e")
	replica, replicaTS, _ := newLiveTestServer(t, hypo.Options{}, Config{
		Role:       "replica",
		PrimaryURL: primaryTS.URL,
		Metrics:    mets,
	})
	replica.proxyBr = newBreaker(1, time.Minute, mets)
	cl := replicaTS.Client()

	// Trip the breaker (threshold 1, so one recorded transport failure
	// opens it) and verify the fast-fail path: the healthy primary is
	// never contacted.
	replica.proxyBr.failure(false)
	resp, body := post(t, cl, replicaTS.URL+"/v1/facts", `{"assert": ["edge(b, c)"]}`)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "primary_unreachable") {
		t.Fatalf("open breaker: status %d body %s (want fast 503)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("fast-fail refusal carries no Retry-After")
	}
	if v := primaryLive.Version(); v != 0 {
		t.Fatalf("open breaker dialed the primary: version %d", v)
	}
	if got := mets.ProxyFastFails.Value(); got != 1 {
		t.Fatalf("proxy_fast_fails = %d, want 1", got)
	}

	// Cooldown elapses (manual clock): the next write is the half-open
	// probe, reaches the healthy primary, succeeds, and closes the
	// breaker — later writes flow normally.
	replica.proxyBr.now = func() time.Time { return time.Now().Add(2 * time.Minute) }
	resp, body = post(t, cl, replicaTS.URL+"/v1/facts", `{"assert": ["edge(b, c)"]}`)
	if resp.StatusCode != 200 || resp.Header.Get("X-Hdl-Proxied") != "primary" {
		t.Fatalf("probe write: status %d proxied=%q body %s",
			resp.StatusCode, resp.Header.Get("X-Hdl-Proxied"), body)
	}
	if v := primaryLive.Version(); v != 1 {
		t.Fatalf("primary version after probe = %d, want 1", v)
	}
	if got := mets.ProxyBreakerState.Value(); got != breakerClosed {
		t.Fatalf("proxy_breaker_state = %d after successful probe, want closed", got)
	}
	resp, _ = post(t, cl, replicaTS.URL+"/v1/facts", `{"assert": ["edge(c, a)"]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("write after breaker closed: status %d", resp.StatusCode)
	}
}

// TestProxyBreakerOpensOnDeadPrimary: real transport failures (dial
// errors) count toward the threshold, so a dead primary flips the
// replica from slow 502s into fast 503s.
func TestProxyBreakerOpensOnDeadPrimary(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	mets := metrics.NewSet("test_breaker_dead")
	replica, replicaTS, _ := newLiveTestServer(t, hypo.Options{}, Config{
		Role:       "replica",
		PrimaryURL: dead.URL,
		Metrics:    mets,
	})
	replica.proxyBr = newBreaker(1, time.Minute, mets)
	replica.proxyRetries = 0 // one dial failure per request
	cl := replicaTS.Client()

	// First write pays the dial and gets the transport-level 502...
	resp, body := post(t, cl, replicaTS.URL+"/v1/facts", `{"assert": ["edge(b, c)"]}`)
	if resp.StatusCode != http.StatusBadGateway || !strings.Contains(string(body), "primary_unreachable") {
		t.Fatalf("dead primary: status %d body %s (want 502)", resp.StatusCode, body)
	}
	if got := mets.ProxyBreakerOpens.Value(); got != 1 {
		t.Fatalf("proxy_breaker_opens = %d, want 1", got)
	}
	// ...every write after that fails fast on the open breaker.
	resp, body = post(t, cl, replicaTS.URL+"/v1/facts", `{"assert": ["edge(b, c)"]}`)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "primary_unreachable") {
		t.Fatalf("second write: status %d body %s (want fast 503)", resp.StatusCode, body)
	}
	if got := mets.ProxyFastFails.Value(); got != 1 {
		t.Fatalf("proxy_fast_fails = %d, want 1", got)
	}
}

// TestRequestNotSent pins the retry-safety predicate: only failures
// proving the request never reached the primary (dial errors,
// connection refused) are retried — anything after a byte may have been
// a committed non-idempotent write.
func TestRequestNotSent(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{&net.OpError{Op: "dial", Err: errors.New("no route")}, true},
		{syscall.ECONNREFUSED, true},
		{&net.OpError{Op: "read", Err: errors.New("reset")}, false},
		{errors.New("response body truncated"), false},
		{nil, false},
	}
	for _, c := range cases {
		if got := requestNotSent(c.err); got != c.want {
			t.Errorf("requestNotSent(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestMemoryBudgetCountsTransientIndex: a cold closure read needs its
// model and, while it is being built, the join index over it. A per-query
// budget that the model alone would fit must keep answering 422 "memory"
// however often the read is retried — each refusal leaves the interner
// warmer, so from the fourth attempt on the index is what does not fit —
// and must leave the engine serving reads that do fit.
func TestMemoryBudgetCountsTransientIndex(t *testing.T) {
	const n = 60 // 1,830 reach atoms: 29 KB as a cached model, 44 KB more of index
	_, ts := newTestServer(t, workload.ClosureProgram(workload.Chain(n), workload.RightLinear),
		hypo.Options{PoolSize: 1, MaxMemoryBytes: 48 << 10}, Config{})
	cl := ts.Client()
	for i := 0; i < 12; i++ {
		resp, body := post(t, cl, ts.URL+"/v1/ask", fmt.Sprintf(`{"query": "reach(n0, n%d)"}`, n))
		if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), `"kind":"memory"`) {
			t.Fatalf("attempt %d: status %d body %s (want 422 memory)", i, resp.StatusCode, body)
		}
	}
	resp, body := post(t, cl, ts.URL+"/v1/ask", `{"query": "edge(n0, n1)"}`)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"result":true`) {
		t.Fatalf("cheap read after the refusals: status %d body %s", resp.StatusCode, body)
	}
}

// TestMemoryBudgetCountsStateNodes: every hypothetical state a proof stands
// in is interned, and the per-query budget sees the state table grow. A
// depth-256 chain asked under a tag no earlier request used walks 256 fresh
// states — 8 KB of state nodes before any memo entry — so under a 6 KB
// budget it answers 422 "memory" on a cold interner (atoms trip it first)
// and on a warm one alike, and the engine goes on serving reads that fit.
// The uniform engine is the one with nothing else to trip on: it charges
// memo entries as the proof unwinds, past the last budget poll, so with
// string-keyed states the ninth chain answered 200.
func TestMemoryBudgetCountsStateNodes(t *testing.T) {
	const tags = 24
	_, ts := newTestServer(t, workload.TaggedChainProgram(256, tags),
		hypo.Options{Mode: hypo.ModeUniform, PoolSize: 1, MaxMemoryBytes: 6 << 10}, Config{})
	cl := ts.Client()
	for i := 0; i < tags; i++ {
		resp, body := post(t, cl, ts.URL+"/v1/askunder", fmt.Sprintf(`{"query": "a1", "add": ["note(t%d)"]}`, i))
		if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), `"kind":"memory"`) {
			t.Fatalf("chain %d: status %d body %s (want 422 memory)", i, resp.StatusCode, body)
		}
	}
	resp, body := post(t, cl, ts.URL+"/v1/askunder", `{"query": "a250", "add": ["note(t0)"]}`)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"result":false`) {
		t.Fatalf("short branch after the refusals: status %d body %s", resp.StatusCode, body)
	}
}
