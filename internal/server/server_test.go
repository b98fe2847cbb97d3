package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	hypo "hypodatalog"
	"hypodatalog/internal/metrics"
	"hypodatalog/internal/tenant"
	"hypodatalog/internal/workload"
)

// uniSrc is the paper's university database: grad(tony) holds outright,
// grad(mary) only under a hypothetical second course.
const uniSrc = `
take(tony, his101).
take(tony, eng201).
take(mary, his101).
grad(S) :- take(S, his101), take(S, eng201).
`

// hardSrc is a hard Hamiltonian instance: an 11-node complete core plus
// an isolated 12th node, so "yes" is false but refuting it must exhaust
// a near-factorial search — which the memo table, keyed by hypothetical
// state, collapses to a subset-style dynamic program that finishes in
// ~100ms. The edge relation enumerates instantly: 110 tuples, the large
// binding set for the streaming tests.
var hardSrc = func() string {
	g := workload.Digraph{N: 12}
	for i := 0; i < 11; i++ {
		for j := 0; j < 11; j++ {
			if i != j {
				g.Edges = append(g.Edges, [2]int{i, j})
			}
		}
	}
	return workload.HamiltonianProgram(g)
}()

const hardEdges = 110

// stuckSrc's "yes" is for the tests that need a read to run until its
// deadline: it enumerates 16^9 bindings with tabling on, in either
// evaluator, and builds no hypothetical state (workload.StuckJoinProgram;
// the root package's TestStuckJoinOutlivesDeadlines pins how long it
// runs).
var stuckSrc = workload.StuckJoinProgram(16, 8)

// newTestServer builds a pool over src and a server over the pool,
// mounted on an httptest.Server. Logs are discarded to keep test output
// readable; pass a cfg.Logger to inspect them.
func newTestServer(t *testing.T, src string, opts hypo.Options, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, ts := newUnstartedTestServer(t, src, opts, cfg)
	ts.Start()
	return s, ts
}

// newUnstartedTestServer is newTestServer before Start, for tests that
// replace the listener.
func newUnstartedTestServer(t *testing.T, src string, opts hypo.Options, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	prog, err := hypo.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := hypo.NewPool(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Pool = pool
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		pool.Close()
	})
	return s, ts
}

// newQueueTestServer is newTestServer over a static registry whose
// admission queue holds queue requests, as hdld -queue builds it.
func newQueueTestServer(t *testing.T, src string, opts hypo.Options, queue int) (*Server, *httptest.Server) {
	t.Helper()
	prog, err := hypo.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := hypo.NewPool(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Registry: tenant.NewStatic("default", pool, nil, nil, queue),
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		pool.Close()
	})
	return s, ts
}

// post sends a JSON body and returns the response and its bytes.
func post(t *testing.T, client *http.Client, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

// waitGoroutines polls until the goroutine count settles at or below
// want, failing the test if it never does.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var n int
	for time.Now().Before(deadline) {
		n = runtime.NumGoroutine()
		if n <= want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines settled at %d, want <= %d (leak)", n, want)
}

func TestAskEndpoints(t *testing.T) {
	_, ts := newTestServer(t, uniSrc, hypo.Options{}, Config{})
	cl := ts.Client()

	resp, body := post(t, cl, ts.URL+"/v1/ask", `{"query": "grad(tony)"}`)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"result":true`) {
		t.Errorf("grad(tony): status %d body %s", resp.StatusCode, body)
	}
	resp, body = post(t, cl, ts.URL+"/v1/ask", `{"query": "grad(mary)"}`)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"result":false`) {
		t.Errorf("grad(mary): status %d body %s", resp.StatusCode, body)
	}
	resp, body = post(t, cl, ts.URL+"/v1/askunder",
		`{"query": "grad(mary)", "add": ["take(mary, eng201)"]}`)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"result":true`) {
		t.Errorf("askunder grad(mary): status %d body %s", resp.StatusCode, body)
	}
	// Hypothetical worlds are per-request: the add above must not leak.
	resp, body = post(t, cl, ts.URL+"/v1/ask", `{"query": "grad(mary)"}`)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"result":false`) {
		t.Errorf("grad(mary) after askunder: status %d body %s", resp.StatusCode, body)
	}
	// Inline hypothetical syntax works through /v1/ask too.
	resp, body = post(t, cl, ts.URL+"/v1/ask",
		`{"query": "grad(mary)[add: take(mary, eng201)]"}`)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"result":true`) {
		t.Errorf("inline hyp: status %d body %s", resp.StatusCode, body)
	}
}

// TestQueryStreamsNDJSON drives the streaming endpoint over the
// 110-tuple edge relation of the hard Hamiltonian instance and checks
// every line parses, the count matches, and the same answer set comes
// back from a batch query.
func TestQueryStreamsNDJSON(t *testing.T) {
	_, ts := newTestServer(t, hardSrc, hypo.Options{Mode: hypo.ModeUniform}, Config{})
	cl := ts.Client()

	resp, err := cl.Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(`{"query": "edge(X, Y)"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	bindings := 0
	done := false
	seen := map[string]bool{}
	for sc.Scan() {
		var line struct {
			Binding map[string]string `json:"binding"`
			Done    bool              `json:"done"`
			Count   int               `json:"count"`
			Error   *struct{ Kind string }
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Error != nil:
			t.Fatalf("error line: %s", sc.Text())
		case line.Done:
			done = true
			if line.Count != bindings {
				t.Errorf("done count = %d, saw %d bindings", line.Count, bindings)
			}
		default:
			bindings++
			seen[line.Binding["X"]+">"+line.Binding["Y"]] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Error("stream ended without a done line")
	}
	if bindings != hardEdges || len(seen) != hardEdges {
		t.Errorf("streamed %d bindings (%d distinct), want %d", bindings, len(seen), hardEdges)
	}

	// The batch endpoint must agree with the stream.
	resp2, body := post(t, cl, ts.URL+"/v1/batch",
		`{"queries": [{"kind": "query", "query": "edge(X, Y)"}]}`)
	if resp2.StatusCode != 200 {
		t.Fatalf("batch status %d: %s", resp2.StatusCode, body)
	}
	var br struct {
		Results []struct {
			Bindings []map[string]string `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 1 || len(br.Results[0].Bindings) != hardEdges {
		t.Errorf("batch bindings = %d, want %d", len(br.Results[0].Bindings), hardEdges)
	}
}

// TestQueryGroundStreaming checks the NDJSON shape of a ground query:
// one empty binding when true, none when false.
func TestQueryGroundStreaming(t *testing.T) {
	_, ts := newTestServer(t, uniSrc, hypo.Options{}, Config{})
	cl := ts.Client()

	_, body := post(t, cl, ts.URL+"/v1/query", `{"query": "grad(tony)"}`)
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], `"binding":{}`) ||
		!strings.Contains(lines[1], `"count":1`) {
		t.Errorf("ground true stream:\n%s", body)
	}
	_, body = post(t, cl, ts.URL+"/v1/query", `{"query": "grad(mary)"}`)
	lines = strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], `"count":0`) {
		t.Errorf("ground false stream:\n%s", body)
	}
}

// TestErrorStatuses pins every failure surface to its distinct status.
// The server has a live store so that /v1/facts reaches its decoder.
func TestErrorStatuses(t *testing.T) {
	_, ts, lv := newLiveTestServerSrc(t, uniSrc, hypo.Options{}, Config{MaxBodyBytes: 512})
	cl := ts.Client()
	cases := []struct {
		name, path, body string
		want             int
		kind             string
	}{
		{"malformed json", "/v1/ask", `{"query":`, 400, "bad_request"},
		{"unknown field", "/v1/ask", `{"quer": "grad(tony)"}`, 400, "bad_request"},
		{"parse error", "/v1/ask", `{"query": "grad("}`, 400, "bad_request"},
		{"domain violation", "/v1/ask", `{"query": "grad(nobody)"}`, 400, "bad_request"},
		{"non-ground ask", "/v1/ask", `{"query": "grad(S)"}`, 400, "bad_request"},
		{"bad timeout", "/v1/ask", `{"query": "grad(tony)", "timeout": "soon"}`, 400, "bad_request"},
		{"add on ask", "/v1/ask", `{"query": "grad(tony)", "add": ["take(mary, his101)"]}`, 400, "bad_request"},
		{"non-ground add", "/v1/askunder", `{"query": "grad(mary)", "add": ["take(mary, C)"]}`, 400, "bad_request"},
		{"huge body", "/v1/ask", `{"query": "` + strings.Repeat("x", 600) + `"}`, 413, "too_large"},
		{"empty batch", "/v1/batch", `{"queries": []}`, 400, "bad_request"},
		{"query parse error", "/v1/query", `{"query": "???"}`, 400, "bad_request"},
		{"query domain violation", "/v1/query", `{"query": "take(nobody, C)"}`, 400, "bad_request"},
		// Anything after the object is refused, not ignored: a second
		// facts batch must not be silently dropped.
		{"trailing garbage", "/v1/ask", `{"query": "grad(tony)"} garbage`, 400, "bad_request"},
		{"second facts batch", "/v1/facts",
			`{"assert": ["take(mary, eng201)"]} {"retract": ["take(tony, his101)"]}`, 400, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, cl, ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.want {
				t.Errorf("status %d, want %d: %s", resp.StatusCode, tc.want, body)
			}
			if tc.kind != "" && !strings.Contains(string(body), `"kind":"`+tc.kind+`"`) {
				t.Errorf("missing kind %q: %s", tc.kind, body)
			}
		})
	}
	if v := lv.Version(); v != 0 {
		t.Errorf("a refused facts body committed: version %d, want 0", v)
	}

	// Method and route errors come from the Go 1.22 mux.
	resp, err := cl.Get(ts.URL + "/v1/ask")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/ask = %d, want 405", resp.StatusCode)
	}
	resp, _ = post(t, cl, ts.URL+"/v1/nosuch", `{}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /v1/nosuch = %d, want 404", resp.StatusCode)
	}
}

// TestDeadlineAndBudgetStatuses runs intractable queries into the two
// server-side abort surfaces: the per-request deadline (504) and the
// engine goal budget (422).
func TestDeadlineAndBudgetStatuses(t *testing.T) {
	t.Run("deadline", func(t *testing.T) {
		_, ts := newTestServer(t, stuckSrc, hypo.Options{Mode: hypo.ModeUniform}, Config{})
		for _, path := range []string{"/v1/ask", "/v1/query", "/v1/explain"} {
			resp, body := post(t, ts.Client(), ts.URL+path, `{"query": "yes", "timeout": "60ms"}`)
			if resp.StatusCode != http.StatusGatewayTimeout {
				t.Errorf("%s status %d, want 504: %s", path, resp.StatusCode, body)
			}
			if !strings.Contains(string(body), `"kind":"deadline"`) {
				t.Errorf("%s missing deadline kind: %s", path, body)
			}
		}
	})
	// The goal budget fires in every mode: hardSrc is linearly stratified,
	// so the default mode is the cascade, whose Σ engines share the budget.
	t.Run("budget", func(t *testing.T) {
		for name, mode := range map[string]hypo.Mode{"uniform": hypo.ModeUniform, "default": hypo.ModeAuto} {
			t.Run(name, func(t *testing.T) {
				_, ts := newTestServer(t, hardSrc, hypo.Options{Mode: mode, MaxGoals: 100}, Config{})
				resp, body := post(t, ts.Client(), ts.URL+"/v1/ask", `{"query": "yes"}`)
				if resp.StatusCode != http.StatusUnprocessableEntity {
					t.Errorf("status %d, want 422: %s", resp.StatusCode, body)
				}
				if !strings.Contains(string(body), `"kind":"budget"`) {
					t.Errorf("missing budget kind: %s", body)
				}
			})
		}
	})
}

// TestLoadShed proves the admission queue bound holds: with 1 slot and a
// 1-deep queue, a 16-request burst of slow queries must shed at least 13
// requests with 429 + Retry-After immediately, and no goroutines may
// outlive the burst.
func TestLoadShed(t *testing.T) {
	_, ts := newQueueTestServer(t, stuckSrc, hypo.Options{Mode: hypo.ModeUniform, PoolSize: 1}, 1)
	cl := ts.Client()
	shedBefore := metrics.Default.HTTPShed.Value()
	before := runtime.NumGoroutine()

	const burst = 16
	var wg sync.WaitGroup
	var shed, timedOut, other atomic.Int64
	var retryAfterSeen atomic.Bool
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := cl.Post(ts.URL+"/v1/ask", "application/json",
				strings.NewReader(`{"query": "yes", "timeout": "300ms"}`))
			if err != nil {
				other.Add(1)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusTooManyRequests:
				shed.Add(1)
				if resp.Header.Get("Retry-After") != "" {
					retryAfterSeen.Store(true)
				}
			case http.StatusGatewayTimeout:
				timedOut.Add(1)
			default:
				other.Add(1)
			}
		}()
	}
	wg.Wait()

	if got := shed.Load(); got < burst-3 {
		t.Errorf("shed %d of %d, want >= %d (queue bound broken)", got, burst, burst-3)
	}
	if timedOut.Load()+shed.Load()+other.Load() != burst {
		t.Errorf("responses don't add up: shed=%d 504=%d other=%d",
			shed.Load(), timedOut.Load(), other.Load())
	}
	if other.Load() != 0 {
		t.Errorf("%d unexpected responses", other.Load())
	}
	if !retryAfterSeen.Load() {
		t.Error("429 responses carried no Retry-After header")
	}
	if d := metrics.Default.HTTPShed.Value() - shedBefore; d < int64(burst-3) {
		t.Errorf("http_shed grew by %d, want >= %d", d, burst-3)
	}
	ts.Client().Transport.(*http.Transport).CloseIdleConnections()
	waitGoroutines(t, before+8)
}

// TestConcurrentMixedTraffic hammers all endpoints from 64 concurrent
// clients — including clients that hang up mid-evaluation — and then
// checks nothing leaked.
func TestConcurrentMixedTraffic(t *testing.T) {
	src := uniSrc + workload.ParityProgram(6) + stuckSrc
	_, ts := newQueueTestServer(t, src, hypo.Options{Mode: hypo.ModeUniform, PoolSize: 4}, 256)
	cl := ts.Client()
	before := runtime.NumGoroutine()

	const clients = 64
	var wg sync.WaitGroup
	var failures atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 4 {
			case 0:
				resp, body := post(t, cl, ts.URL+"/v1/ask", `{"query": "even"}`)
				if resp.StatusCode != 200 || !strings.Contains(string(body), `"result":true`) {
					failures.Add(1)
				}
			case 1:
				resp, body := post(t, cl, ts.URL+"/v1/query", `{"query": "take(S, C)"}`)
				if resp.StatusCode != 200 || !strings.Contains(string(body), `"done":true`) {
					failures.Add(1)
				}
			case 2:
				resp, body := post(t, cl, ts.URL+"/v1/askunder",
					`{"query": "grad(mary)", "add": ["take(mary, eng201)"]}`)
				if resp.StatusCode != 200 || !strings.Contains(string(body), `"result":true`) {
					failures.Add(1)
				}
			case 3:
				// A client that gives up mid-evaluation: the server should
				// abort the query and log 499, not hang or crash.
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
				defer cancel()
				req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/ask",
					strings.NewReader(`{"query": "yes", "timeout": "2s"}`))
				req.Header.Set("Content-Type", "application/json")
				resp, err := cl.Do(req)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(i)
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Errorf("%d requests got wrong answers", n)
	}
	ts.Client().Transport.(*http.Transport).CloseIdleConnections()
	waitGoroutines(t, before+8)
}

// TestGracefulDrain: once BeginDrain is called, readiness fails, new and
// queued requests are refused with 503, and the in-flight query runs to
// its own completion rather than being killed.
func TestGracefulDrain(t *testing.T) {
	// One slot (the pool's one engine) and the default queue of 4.
	s, ts := newTestServer(t, stuckSrc, hypo.Options{Mode: hypo.ModeUniform, PoolSize: 1}, Config{})
	cl := ts.Client()

	type result struct {
		status  int
		elapsed time.Duration
	}
	inflight := make(chan result, 1)
	queued := make(chan result, 1)
	fire := func(ch chan result, timeout string) {
		start := time.Now()
		resp, err := cl.Post(ts.URL+"/v1/ask", "application/json",
			strings.NewReader(`{"query": "yes", "timeout": "`+timeout+`"}`))
		if err != nil {
			ch <- result{status: -1}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ch <- result{resp.StatusCode, time.Since(start)}
	}
	go fire(inflight, "500ms")
	time.Sleep(100 * time.Millisecond) // let it occupy the slot
	go fire(queued, "2s")
	time.Sleep(100 * time.Millisecond) // let it enter the queue

	s.BeginDrain()

	// Readiness flips.
	resp, err := cl.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain = %d, want 503", resp.StatusCode)
	}
	// Liveness does not.
	resp, err = cl.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz during drain = %d, want 200", resp.StatusCode)
	}
	// New work is refused.
	resp2, body := post(t, cl, ts.URL+"/v1/ask", `{"query": "yes", "timeout": "100ms"}`)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("new request during drain = %d, want 503: %s", resp2.StatusCode, body)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Error("503 during drain carried no Retry-After")
	}
	// The queued waiter is woken and refused.
	got := <-queued
	if got.status != http.StatusServiceUnavailable {
		t.Errorf("queued request during drain = %d, want 503", got.status)
	}
	// The in-flight query drains: it finishes with its own outcome (504
	// from its deadline) after running its full course.
	got = <-inflight
	if got.status != http.StatusGatewayTimeout {
		t.Errorf("in-flight request = %d, want 504 (drained, not killed)", got.status)
	}
	if got.elapsed < 400*time.Millisecond {
		t.Errorf("in-flight finished after %v; drain must not cut it short", got.elapsed)
	}
}

// TestPanicRecovery mounts a panicking handler behind the standard
// middleware and checks the response is a clean 500.
func TestPanicRecovery(t *testing.T) {
	s, _ := newTestServer(t, uniSrc, hypo.Options{}, Config{})
	ts := httptest.NewServer(s.wrap("boom", false, func(w http.ResponseWriter, r *http.Request, ri *reqInfo, _ *tenant.Tenant) {
		panic("kaboom")
	}))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(string(body), `"kind":"internal"`) {
		t.Errorf("body %s", body)
	}
}

// TestBatchSingleLease covers mixed batch items, per-item errors that do
// not fail the batch, and an abort that skips the rest.
func TestBatchSingleLease(t *testing.T) {
	s, ts := newUnstartedTestServer(t, uniSrc+stuckSrc,
		hypo.Options{Mode: hypo.ModeUniform}, Config{})
	s.maxBatch = 8
	ts.Start()
	cl := ts.Client()

	resp, body := post(t, cl, ts.URL+"/v1/batch", `{"queries": [
		{"query": "grad(tony)"},
		{"kind": "query", "query": "take(tony, C)"},
		{"kind": "askunder", "query": "grad(mary)", "add": ["take(mary, eng201)"]},
		{"query": "grad(broken("},
		{"query": "grad(mary)"},
		{"kind": "query", "query": "take(nobody, C)"}
	]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 6 {
		t.Fatalf("got %d results, want 6", len(br.Results))
	}
	if br.Results[0].Result == nil || !*br.Results[0].Result {
		t.Errorf("item 0: %s", body)
	}
	if len(br.Results[1].Bindings) != 2 {
		t.Errorf("item 1 bindings = %v", br.Results[1].Bindings)
	}
	if br.Results[2].Result == nil || !*br.Results[2].Result {
		t.Errorf("item 2: %s", body)
	}
	if br.Results[3].Error == nil || br.Results[3].Error.Kind != "bad_request" {
		t.Errorf("item 3 should be a per-item bad_request: %s", body)
	}
	if br.Results[4].Result == nil || *br.Results[4].Result {
		t.Errorf("item 4 should still evaluate to false after item 3 failed: %s", body)
	}
	if br.Results[5].Error == nil || br.Results[5].Error.Kind != "bad_request" {
		t.Errorf("item 5 (out-of-domain query) should be a per-item bad_request: %s", body)
	}

	// An abort mid-batch stops it: the hard item reports the deadline,
	// the rest are skipped, the response is still a 200 with partials.
	resp, body = post(t, cl, ts.URL+"/v1/batch", `{"queries": [
		{"query": "grad(tony)"},
		{"query": "yes"},
		{"query": "grad(tony)"}
	], "timeout": "150ms"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("abort batch status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Results[0].Result == nil || !*br.Results[0].Result {
		t.Errorf("pre-abort item lost: %s", body)
	}
	if br.Results[1].Error == nil || br.Results[1].Error.Kind != "deadline" {
		t.Errorf("aborted item kind = %v, want deadline", br.Results[1].Error)
	}
	if br.Results[2].Error == nil || br.Results[2].Error.Kind != "skipped" {
		t.Errorf("post-abort item kind = %v, want skipped", br.Results[2].Error)
	}

	// Oversized batches are refused outright.
	queries := make([]string, 9)
	for i := range queries {
		queries[i] = `{"query": "grad(tony)"}`
	}
	resp, body = post(t, cl, ts.URL+"/v1/batch",
		`{"queries": [`+strings.Join(queries, ",")+`]}`)
	if resp.StatusCode != 400 {
		t.Errorf("oversized batch = %d, want 400: %s", resp.StatusCode, body)
	}
}

// TestBatchRefusesAddOffAskUnder: outer adds belong to askunder only. A
// batch ask or query item carrying "add" is an item-level bad_request
// with the message /v1/ask gives — never an answer that silently
// ignores the add.
func TestBatchRefusesAddOffAskUnder(t *testing.T) {
	_, ts := newTestServer(t, uniSrc, hypo.Options{}, Config{})
	cl := ts.Client()

	resp, body := post(t, cl, ts.URL+"/v1/ask", `{"query": "grad(mary)", "add": ["take(mary, eng201)"]}`)
	var single errorLine
	if resp.StatusCode != 400 || json.Unmarshal(body, &single) != nil {
		t.Fatalf("/v1/ask with add: status %d body %s", resp.StatusCode, body)
	}

	resp, body = post(t, cl, ts.URL+"/v1/batch", `{"queries": [
		{"kind": "ask", "query": "grad(mary)", "add": ["take(mary, eng201)"]},
		{"kind": "query", "query": "grad(S)", "add": ["take(mary, eng201)"]},
		{"kind": "askunder", "query": "grad(mary)", "add": ["take(mary, eng201)"]}
	]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil || len(br.Results) != 3 {
		t.Fatalf("results %s (%v)", body, err)
	}
	for i, res := range br.Results[:2] {
		if res.Error == nil || *res.Error != single.Error || res.Result != nil || res.Bindings != nil {
			t.Errorf("item %d = %s, want the /v1/ask refusal %+v", i, body, single.Error)
		}
	}
	if r := br.Results[2]; r.Result == nil || !*r.Result {
		t.Errorf("askunder item = %s, want true", body)
	}
}

func TestHealthAndVars(t *testing.T) {
	_, ts := newTestServer(t, uniSrc, hypo.Options{}, Config{})
	cl := ts.Client()
	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200} {
		resp, err := cl.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	resp, err := cl.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("debug/vars is not JSON: %v", err)
	}
	hypoVars, ok := vars["hypo"]
	if !ok {
		t.Fatal("debug/vars missing the hypo metric set")
	}
	for _, key := range []string{"http_requests", "http_shed", "http_in_flight", "queries_started"} {
		if !bytes.Contains(hypoVars, []byte(key)) {
			t.Errorf("hypo metrics missing %q", key)
		}
	}
}

// TestAccessLogFields: a query route and an admin route each write one
// "request" line, through the same access log, with exactly their own
// attribute sets: the admin line has no query or evaluation fields.
func TestAccessLogFields(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	_, ts := newTestServer(t, uniSrc, hypo.Options{}, Config{Logger: logger})
	post(t, ts.Client(), ts.URL+"/v1/ask", `{"query": "grad(tony)"}`)
	resp, err := ts.Client().Get(ts.URL + "/v1/programs/nosuch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	common := "elapsed_ms endpoint level msg outcome program status time"
	want := map[string]struct{ keys, outcome string }{
		"ask": {common + " bindings cache data_version derived_models enumerated goals" +
			" materialisations max_depth min_version query role table_hits", "ok"},
		"program_get": {common, "unknown_program"},
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var entry map[string]any
		if err := json.Unmarshal([]byte(line), &entry); err != nil || entry["msg"] != "request" {
			continue
		}
		ep, _ := entry["endpoint"].(string)
		w, ok := want[ep]
		if !ok {
			t.Errorf("unexpected request line: %s", line)
			continue
		}
		seen[ep] = true
		keys := make([]string, 0, len(entry))
		for k := range entry {
			keys = append(keys, k)
		}
		wantKeys := strings.Fields(w.keys)
		slices.Sort(keys)
		slices.Sort(wantKeys)
		if !slices.Equal(keys, wantKeys) {
			t.Errorf("%s line attributes %v, want %v", ep, keys, wantKeys)
		}
		if entry["outcome"] != w.outcome {
			t.Errorf("%s line outcome %v, want %s: %s", ep, entry["outcome"], w.outcome, line)
		}
		if ep == "ask" && entry["query"] != "grad(tony)" {
			t.Errorf("ask line: %s", line)
		}
	}
	for ep := range want {
		if !seen[ep] {
			t.Errorf("no %s request line:\n%s", ep, buf.String())
		}
	}
}

// TestBatchLogsItsOwnDepth: a batch's access-log max_depth is the
// deepest of its own reads, not the leased engine's lifetime maximum. On
// the n = 40 chain, a1 under b1 walks the whole chain; a batch asking a39
// on the same engine afterwards logs a shallower stack.
func TestBatchLogsItsOwnDepth(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	_, ts := newTestServer(t, workload.ChainProgram(40), hypo.Options{Mode: hypo.ModeUniform, PoolSize: 1}, Config{Logger: logger})
	post(t, ts.Client(), ts.URL+"/v1/askunder", `{"query": "a1", "add": ["b1"]}`)
	post(t, ts.Client(), ts.URL+"/v1/batch", `{"queries": [{"query": "a39"}]}`)

	depth := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var entry map[string]any
		if json.Unmarshal([]byte(line), &entry) != nil || entry["msg"] != "request" {
			continue
		}
		if ep, ok := entry["endpoint"].(string); ok {
			depth[ep], _ = entry["max_depth"].(float64)
		}
	}
	if deep, batch := depth["askunder"], depth["batch"]; deep == 0 || batch >= deep {
		t.Errorf("askunder logged max_depth %v, the batch after it %v; want the batch's own, shallower stack", deep, batch)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: slog handlers may be
// called from concurrent request goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestPoolClosedMapsTo503 exercises the ErrPoolClosed surface end to
// end: a server whose pool has been closed refuses with 503.
func TestPoolClosedMapsTo503(t *testing.T) {
	prog, err := hypo.Parse(uniSrc)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := hypo.NewPool(prog, hypo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Pool: pool, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	pool.Close()
	resp, body := post(t, ts.Client(), ts.URL+"/v1/ask", `{"query": "grad(tony)"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("closed pool = %d, want 503: %s", resp.StatusCode, body)
	}
}
