package server

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	hypo "hypodatalog"
	"hypodatalog/internal/tenant"
)

const paritySrc = `
even.
odd :- not even.
`

// newRegistryServer builds a dynamic registry in a temp dir with the
// default program created from uniSrc, and a server over it.
func newRegistryServer(t *testing.T, regCfg tenant.Config, cfg Config) (*Server, *httptest.Server, *tenant.Registry) {
	t.Helper()
	regCfg.Dir = t.TempDir()
	if regCfg.Logger == nil {
		regCfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	regCfg.LiveConfig.NoSync = true
	reg, err := tenant.Open(regCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	if _, _, err := reg.Create(reg.DefaultName(), uniSrc); err != nil {
		t.Fatal(err)
	}
	cfg.Registry = reg
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, reg
}

func put(t *testing.T, cl *http.Client, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cl.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp, data
}

func del(t *testing.T, cl *http.Client, url string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp, data
}

func putProgram(src string) string {
	b, _ := json.Marshal(map[string]string{"program": src})
	return string(b)
}

// TestTenantAdminAndRoutes walks the admin lifecycle over HTTP: create,
// idempotent re-create, conflict, list, get, query through the named
// routes, delete, and the protections around the default program.
func TestTenantAdminAndRoutes(t *testing.T) {
	_, ts, _ := newRegistryServer(t, tenant.Config{Options: hypo.Options{PoolSize: 2}}, Config{})
	cl := ts.Client()

	// Create a second program.
	resp, body := put(t, cl, ts.URL+"/v1/programs/parity", putProgram(paritySrc))
	if resp.StatusCode != 201 || !strings.Contains(string(body), `"created":true`) {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	// Same rules again: 200, not created.
	resp, body = put(t, cl, ts.URL+"/v1/programs/parity", putProgram(paritySrc))
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"created":false`) {
		t.Fatalf("idempotent create: %d %s", resp.StatusCode, body)
	}
	// Different rules: 409.
	resp, body = put(t, cl, ts.URL+"/v1/programs/parity", putProgram(uniSrc))
	if resp.StatusCode != 409 || !strings.Contains(string(body), `"kind":"conflict"`) {
		t.Fatalf("conflicting create: %d %s", resp.StatusCode, body)
	}
	// Bad name and bad rulebase: 400.
	resp, _ = put(t, cl, ts.URL+"/v1/programs/Bad%20Name", putProgram(paritySrc))
	if resp.StatusCode != 400 {
		t.Fatalf("bad name: %d", resp.StatusCode)
	}
	resp, _ = put(t, cl, ts.URL+"/v1/programs/broken", putProgram("p :- q("))
	if resp.StatusCode != 400 {
		t.Fatalf("bad program: %d", resp.StatusCode)
	}

	// Query each tenant through its own routes; the un-prefixed route is
	// the default program.
	resp, body = post(t, cl, ts.URL+"/v1/programs/parity/ask", `{"query": "odd"}`)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"result":false`) {
		t.Errorf("parity odd: %d %s", resp.StatusCode, body)
	}
	resp, body = post(t, cl, ts.URL+"/v1/programs/default/ask", `{"query": "grad(tony)"}`)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"result":true`) {
		t.Errorf("named default ask: %d %s", resp.StatusCode, body)
	}
	resp, body = post(t, cl, ts.URL+"/v1/ask", `{"query": "grad(tony)"}`)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"result":true`) {
		t.Errorf("alias ask: %d %s", resp.StatusCode, body)
	}
	// Unknown program: 404 with the machine-readable kind.
	resp, body = post(t, cl, ts.URL+"/v1/programs/nope/ask", `{"query": "x"}`)
	if resp.StatusCode != 404 || !strings.Contains(string(body), `"kind":"unknown_program"`) {
		t.Errorf("unknown program: %d %s", resp.StatusCode, body)
	}

	// List and get.
	resp, body = post0(t, cl, ts.URL+"/v1/programs")
	if resp.StatusCode != 200 {
		t.Fatalf("list: %d %s", resp.StatusCode, body)
	}
	var list struct {
		Programs []struct {
			Name string `json:"name"`
		} `json:"programs"`
		Default string `json:"default"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Programs) != 2 || list.Default != "default" {
		t.Errorf("list = %s", body)
	}
	resp, body = post0(t, cl, ts.URL+"/v1/programs/parity")
	if resp.StatusCode != 200 || !strings.Contains(string(body), "odd :- not even.") {
		t.Errorf("get program: %d %s", resp.StatusCode, body)
	}

	// Per-tenant facts: write to the default through the named route.
	resp, body = post(t, cl, ts.URL+"/v1/programs/default/facts",
		`{"assert": ["take(mary, eng201)"]}`)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"version":1`) {
		t.Fatalf("named facts: %d %s", resp.StatusCode, body)
	}
	resp, body = post(t, cl, ts.URL+"/v1/programs/default/ask", `{"query": "grad(mary)"}`)
	if !strings.Contains(string(body), `"result":true`) {
		t.Errorf("post-write ask: %s", body)
	}
	// The write did not touch the parity program.
	resp, body = post0(t, cl, ts.URL+"/v1/programs/parity")
	if !strings.Contains(string(body), `"dataVersion":0`) {
		t.Errorf("parity version moved: %s", body)
	}

	// healthz reports both programs.
	resp, body = post0(t, cl, ts.URL+"/healthz")
	var hz struct {
		Programs map[string]struct {
			DataVersion uint64 `json:"dataVersion"`
			Status      string `json:"status"`
		} `json:"programs"`
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Programs["default"].DataVersion != 1 || hz.Programs["parity"].Status != "ok" {
		t.Errorf("healthz programs: %s", body)
	}

	// Delete parity; its routes 404 afterwards; the default is protected.
	resp, body = del(t, cl, ts.URL+"/v1/programs/parity")
	if resp.StatusCode != 200 {
		t.Fatalf("delete: %d %s", resp.StatusCode, body)
	}
	resp, _ = post(t, cl, ts.URL+"/v1/programs/parity/ask", `{"query": "odd"}`)
	if resp.StatusCode != 404 {
		t.Errorf("ask after delete: %d", resp.StatusCode)
	}
	resp, _ = del(t, cl, ts.URL+"/v1/programs/parity")
	if resp.StatusCode != 404 {
		t.Errorf("double delete: %d", resp.StatusCode)
	}
	resp, body = del(t, cl, ts.URL+"/v1/programs/default")
	if resp.StatusCode != 400 {
		t.Errorf("delete default: %d %s", resp.StatusCode, body)
	}
}

// post0 issues a GET (name kept symmetrical with post).
func post0(t *testing.T, cl *http.Client, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := cl.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp, data
}

// TestAdminOnStaticServer: a legacy single-program config exposes the
// query routes but refuses program administration with 501.
func TestAdminOnStaticServer(t *testing.T) {
	_, ts := newTestServer(t, uniSrc, hypo.Options{}, Config{})
	cl := ts.Client()
	resp, body := put(t, cl, ts.URL+"/v1/programs/x", putProgram(paritySrc))
	if resp.StatusCode != 501 || !strings.Contains(string(body), `"kind":"not_enabled"`) {
		t.Errorf("static put: %d %s", resp.StatusCode, body)
	}
	resp, _ = del(t, cl, ts.URL+"/v1/programs/x")
	if resp.StatusCode != 501 {
		t.Errorf("static delete: %d", resp.StatusCode)
	}
	// The default program still answers under its named route.
	resp, body = post(t, cl, ts.URL+"/v1/programs/default/ask", `{"query": "grad(tony)"}`)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"result":true`) {
		t.Errorf("static named ask: %d %s", resp.StatusCode, body)
	}
}

// TestExplainEndpoint covers the HTTP proof surface: a provable query
// returns its rendered derivation, an unprovable one provable=false, a
// malformed one 400 — on both the alias and the named route.
func TestExplainEndpoint(t *testing.T) {
	_, ts, _ := newRegistryServer(t, tenant.Config{Options: hypo.Options{PoolSize: 1}}, Config{})
	cl := ts.Client()

	resp, body := post(t, cl, ts.URL+"/v1/explain", `{"query": "grad(tony)"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("explain: %d %s", resp.StatusCode, body)
	}
	var er struct {
		Provable    bool   `json:"provable"`
		Proof       string `json:"proof"`
		DataVersion uint64 `json:"dataVersion"`
	}
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !er.Provable || !strings.Contains(er.Proof, "[fact]") {
		t.Errorf("explain grad(tony): %s", body)
	}

	// Hypothetical query: the added premise participates in the proof.
	resp, body = post(t, cl, ts.URL+"/v1/explain",
		`{"query": "grad(mary)[add: take(mary, eng201)]"}`)
	er.Provable, er.Proof = false, ""
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !er.Provable || !strings.Contains(er.Proof, "take(mary, eng201)") {
		t.Errorf("hypothetical explain: %s", body)
	}

	// Unprovable: 200 with provable=false and no proof.
	resp, body = post(t, cl, ts.URL+"/v1/explain", `{"query": "grad(mary)"}`)
	er.Provable, er.Proof = false, ""
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Provable || er.Proof != "" {
		t.Errorf("unprovable explain: %s", body)
	}

	// Malformed query: the standard 400.
	resp, _ = post(t, cl, ts.URL+"/v1/explain", `{"query": "grad("}`)
	if resp.StatusCode != 400 {
		t.Errorf("bad explain query: %d", resp.StatusCode)
	}

	// Named route; facts bump dataVersion in the explain response.
	resp, _ = post(t, cl, ts.URL+"/v1/facts", `{"assert": ["take(mary, eng201)"]}`)
	if resp.StatusCode != 200 {
		t.Fatal("facts for explain version")
	}
	resp, body = post(t, cl, ts.URL+"/v1/programs/default/explain", `{"query": "grad(mary)"}`)
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !er.Provable || er.DataVersion != 1 {
		t.Errorf("named explain after write: %s", body)
	}
}

// TestTenantIsolationE2E is the headline property of the registry: a
// tenant driven past its admission quota and cache budget must not
// shed, evict, or slow a well-behaved neighbour. "hot" runs a
// near-factorial Hamiltonian refutation that pins its single evaluation
// slot and floods its answer cache; "cold" serves trivial asks
// throughout, and every one of them must succeed quickly with a clean
// cache.
func TestTenantIsolationE2E(t *testing.T) {
	_, ts, reg := newRegistryServer(t, tenant.Config{
		Options:  hypo.Options{PoolSize: 1, Mode: hypo.ModeUniform, NoTabling: true, CacheBytes: 1 << 14},
		MaxQueue: 1,
	}, Config{})
	cl := ts.Client()

	if _, _, err := reg.Create("hot", hardSrc); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Create("cold", uniSrc); err != nil {
		t.Fatal(err)
	}
	hot, _ := reg.Get("hot")
	cold, _ := reg.Get("cold")

	// Phase 1: saturate hot's admission quota. One slow refutation
	// occupies the only slot, a second parks in the queue, a third is
	// shed with 429.
	var wg sync.WaitGroup
	slow := func(timeout string) {
		defer wg.Done()
		resp, _ := post(t, cl, ts.URL+"/v1/programs/hot/ask",
			fmt.Sprintf(`{"query": "yes", "timeout": %q}`, timeout))
		// The refutation cannot finish: it ends in 504 (deadline).
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Errorf("slow hot query = %d, want 504", resp.StatusCode)
		}
	}
	wg.Add(1)
	go slow("2500ms")
	waitGauge(t, func() int64 { return hot.Metrics().HTTPInFlight.Value() }, 1, "hot in-flight")
	wg.Add(1)
	go slow("2000ms")
	waitGauge(t, func() int64 { return hot.Metrics().HTTPQueued.Value() }, 1, "hot queued")

	resp, body := post(t, cl, ts.URL+"/v1/programs/hot/ask", `{"query": "yes", "timeout": "1s"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow hot ask = %d %s, want 429", resp.StatusCode, body)
	}

	// Phase 2: while hot is saturated, cold serves normally. Every
	// request must succeed — no 429, no queueing delay worth noticing.
	for i := 0; i < 20; i++ {
		start := time.Now()
		resp, body := post(t, cl, ts.URL+"/v1/programs/cold/ask", `{"query": "grad(tony)"}`)
		if resp.StatusCode != 200 {
			t.Fatalf("cold ask %d during hot saturation = %d %s", i, resp.StatusCode, body)
		}
		if el := time.Since(start); el > time.Second {
			t.Errorf("cold ask %d took %v during hot saturation", i, el)
		}
	}
	if got := cold.Metrics().HTTPShed.Value(); got != 0 {
		t.Errorf("cold shed count = %d, want 0 (isolation)", got)
	}
	if got := hot.Metrics().HTTPShed.Value(); got == 0 {
		t.Error("hot shed count = 0, want > 0")
	}
	wg.Wait()

	// Phase 3: cache isolation. Prime cold's cache, then blow hot's
	// cache budget with hundreds of distinct hypothetical asks; cold's
	// entry must survive untouched.
	post(t, cl, ts.URL+"/v1/programs/cold/ask", `{"query": "grad(mary)"}`)
	resp, _ = post(t, cl, ts.URL+"/v1/programs/cold/ask", `{"query": "grad(mary)"}`)
	if got := resp.Header.Get("X-Hdl-Cache"); got != "hit" {
		t.Fatalf("cold primed ask X-Hdl-Cache = %q, want hit", got)
	}
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			for _, q := range []string{"edge(v0, v1)", "edge(v1, v0)"} {
				body := fmt.Sprintf(`{"query": "%s", "add": ["edge(v%d, v%d)"]}`, q, i, j)
				resp, data := post(t, cl, ts.URL+"/v1/programs/hot/askunder", body)
				if resp.StatusCode != 200 {
					t.Fatalf("hot cache filler (%d,%d) = %d %s", i, j, resp.StatusCode, data)
				}
			}
		}
	}
	if got := hot.Metrics().CacheEvictions.Value(); got == 0 {
		t.Error("hot cache evictions = 0; the filler did not overflow its budget")
	}
	if got := cold.Metrics().CacheEvictions.Value(); got != 0 {
		t.Errorf("cold cache evictions = %d, want 0 (isolation)", got)
	}
	resp, _ = post(t, cl, ts.URL+"/v1/programs/cold/ask", `{"query": "grad(mary)"}`)
	if got := resp.Header.Get("X-Hdl-Cache"); got != "hit" {
		t.Errorf("cold ask after hot cache flood X-Hdl-Cache = %q, want hit", got)
	}
}

// waitGauge polls fn until it reaches want, failing after 5s.
func waitGauge(t *testing.T, fn func() int64, want int64, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if fn() >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s never reached %d (at %d)", what, want, fn())
}
