package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	hypo "hypodatalog"
	"hypodatalog/internal/metrics"
	"hypodatalog/internal/vfs"
)

// liveSrc has an extensional toggle (flag), a rule over it, and a small
// graph for reachability churn.
const liveSrc = `
flag(off).
node(a). node(b). node(c).
edge(a, b).
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
light(X) :- flag(X).
`

// newLiveTestServer is newTestServer plus a Live store in a temp dir.
func newLiveTestServer(t *testing.T, opts hypo.Options, cfg Config) (*Server, *httptest.Server, *hypo.Live) {
	t.Helper()
	return newLiveTestServerSrc(t, liveSrc, opts, cfg)
}

func newLiveTestServerSrc(t *testing.T, src string, opts hypo.Options, cfg Config) (*Server, *httptest.Server, *hypo.Live) {
	t.Helper()
	prog, err := hypo.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	dir := t.TempDir()
	lv, err := hypo.OpenLive(prog, hypo.LiveConfig{
		WALPath:      filepath.Join(dir, "wal.log"),
		SnapshotPath: filepath.Join(dir, "db.snap"),
		NoSync:       true,
		Logger:       quiet,
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Pool = lv.Pool()
	cfg.Live = lv
	if cfg.Logger == nil {
		cfg.Logger = quiet
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		lv.Close()
	})
	return s, ts, lv
}

func TestFactsEndpointDisabled(t *testing.T) {
	_, ts := newTestServer(t, uniSrc, hypo.Options{}, Config{})
	resp, body := post(t, ts.Client(), ts.URL+"/v1/facts", `{"assert": ["take(mary, eng201)"]}`)
	if resp.StatusCode != http.StatusNotImplemented || !strings.Contains(string(body), "not_enabled") {
		t.Errorf("facts without Live: status %d body %s", resp.StatusCode, body)
	}
}

func TestFactsEndpointCommitAndEcho(t *testing.T) {
	_, ts, _ := newLiveTestServer(t, hypo.Options{}, Config{})
	cl := ts.Client()

	// Version 0 everywhere before any commit.
	resp, body := post(t, cl, ts.URL+"/v1/ask", `{"query": "reach(b, c)"}`)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"result":false`) ||
		!strings.Contains(string(body), `"dataVersion":0`) {
		t.Fatalf("pre-commit ask: status %d body %s", resp.StatusCode, body)
	}

	resp, body = post(t, cl, ts.URL+"/v1/facts", `{"assert": ["edge(b, c)"]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("facts: status %d body %s", resp.StatusCode, body)
	}
	var fr struct {
		Version uint64 `json:"version"`
		Changed int    `json:"changed"`
	}
	if err := json.Unmarshal(body, &fr); err != nil || fr.Version != 1 || fr.Changed != 1 {
		t.Fatalf("facts response %s (err %v)", body, err)
	}

	// The committed batch is visible to the next query, which echoes the
	// new version.
	resp, body = post(t, cl, ts.URL+"/v1/ask", `{"query": "reach(a, c)"}`)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"result":true`) ||
		!strings.Contains(string(body), `"dataVersion":1`) {
		t.Fatalf("post-commit ask: status %d body %s", resp.StatusCode, body)
	}

	// /healthz and the query stream echo it too.
	hresp, err := cl.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if !strings.Contains(string(hbody), `"dataVersion":1`) {
		t.Errorf("healthz body %s lacks dataVersion 1", hbody)
	}
	resp, body = post(t, cl, ts.URL+"/v1/query", `{"query": "reach(a, Y)"}`)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"dataVersion":1`) {
		t.Errorf("query done line: status %d body %s", resp.StatusCode, body)
	}
	resp, body = post(t, cl, ts.URL+"/v1/batch", `{"queries": [{"query": "reach(b, c)"}]}`)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"dataVersion":1`) {
		t.Errorf("batch response: status %d body %s", resp.StatusCode, body)
	}

	// Retraction is a new version and flips the answer back.
	resp, body = post(t, cl, ts.URL+"/v1/facts", `{"retract": ["edge(b, c)"]}`)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"version":2`) {
		t.Fatalf("retract: status %d body %s", resp.StatusCode, body)
	}
	resp, body = post(t, cl, ts.URL+"/v1/ask", `{"query": "reach(a, c)"}`)
	if !strings.Contains(string(body), `"result":false`) || !strings.Contains(string(body), `"dataVersion":2`) {
		t.Fatalf("post-retract ask: status %d body %s", resp.StatusCode, body)
	}
}

func TestFactsEndpointValidation(t *testing.T) {
	_, ts, lv := newLiveTestServer(t, hypo.Options{}, Config{})
	cl := ts.Client()
	cases := []struct {
		name, body, want string
	}{
		{"empty batch", `{}`, "non-empty"},
		{"intensional", `{"assert": ["reach(a, b)"]}`, "intensional"},
		{"out of domain", `{"assert": ["edge(a, zz9)"]}`, "outside dom"},
		{"non-ground", `{"assert": ["edge(a, X)"]}`, "not ground"},
		{"malformed atom", `{"assert": ["edge(a,"]}`, "bad_request"},
		{"unknown field", `{"add": ["edge(b, c)"]}`, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, cl, ts.URL+"/v1/facts", tc.body)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.want) {
				t.Errorf("status %d body %s (want 400 containing %q)", resp.StatusCode, body, tc.want)
			}
		})
	}
	if v := lv.Version(); v != 0 {
		t.Errorf("rejected batches moved the version to %d", v)
	}
}

func TestFactsEndpointDraining(t *testing.T) {
	s, ts, _ := newLiveTestServer(t, hypo.Options{}, Config{})
	s.BeginDrain()
	resp, body := post(t, ts.Client(), ts.URL+"/v1/facts", `{"assert": ["edge(b, c)"]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("facts while draining: status %d body %s", resp.StatusCode, body)
	}
}

// TestLiveServerConcurrentReadWrite hammers /v1/facts and /v1/ask
// concurrently: every response must satisfy the version-parity invariant
// (light(on) holds exactly at odd versions — the writer alternates
// assert/retract of flag(on)), proving snapshot isolation end to end.
// Run under -race in CI.
func TestLiveServerConcurrentReadWrite(t *testing.T) {
	_, ts, _ := newLiveTestServer(t, hypo.Options{PoolSize: 4, ExtraDomain: []string{"on"}}, Config{})
	cl := ts.Client()

	const commits = 40
	var wg sync.WaitGroup
	errCh := make(chan error, 8)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < commits; i++ {
			var body string
			if i%2 == 0 {
				body = `{"assert": ["flag(on)"]}`
			} else {
				body = `{"retract": ["flag(on)"]}`
			}
			resp, data := post(t, cl, ts.URL+"/v1/facts", body)
			if resp.StatusCode != 200 {
				errCh <- fmt.Errorf("writer commit %d: status %d body %s", i, resp.StatusCode, data)
				return
			}
			var fr struct {
				Version uint64 `json:"version"`
			}
			if err := json.Unmarshal(data, &fr); err != nil || fr.Version != uint64(i+1) {
				errCh <- fmt.Errorf("writer commit %d: version %d in %s (err %v)", i, fr.Version, data, err)
				return
			}
		}
	}()

	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				resp, data := post(t, cl, ts.URL+"/v1/ask", `{"query": "light(on)"}`)
				if resp.StatusCode != 200 {
					errCh <- fmt.Errorf("reader %d: status %d body %s", r, resp.StatusCode, data)
					return
				}
				var ar struct {
					Result      bool   `json:"result"`
					DataVersion uint64 `json:"dataVersion"`
				}
				if err := json.Unmarshal(data, &ar); err != nil {
					errCh <- fmt.Errorf("reader %d: %v in %s", r, err, data)
					return
				}
				if want := ar.DataVersion%2 == 1; ar.Result != want {
					errCh <- fmt.Errorf("reader %d: light(on)=%v at version %d", r, ar.Result, ar.DataVersion)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestDegradedReadOnlyServing is the end-to-end failure-model test: the
// disk under the live store starts failing fsyncs mid-flight, the next
// write degrades the store, and from then on the server must refuse
// mutations with a machine-readable 503 while queries — including
// concurrent ones, for the race detector — keep serving the last
// committed version, and /healthz reports the degradation.
func TestDegradedReadOnlyServing(t *testing.T) {
	prog, err := hypo.Parse(liveSrc)
	if err != nil {
		t.Fatal(err)
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	ft := vfs.NewFault(vfs.NewMem(), nil)
	lv, err := hypo.OpenLive(prog, hypo.LiveConfig{
		WALPath:      "/db/wal.log",
		SnapshotPath: "/db/db.snap",
		Logger:       quiet,
		FS:           ft,
	}, hypo.Options{PoolSize: 4})
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

	// Healthy: one commit lands, health is "ok".
	resp, body := post(t, cl, ts.URL+"/v1/facts", `{"assert": ["edge(b, c)"]}`)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"version":1`) {
		t.Fatalf("healthy commit: status %d body %s", resp.StatusCode, body)
	}
	if hb := get(t, cl, ts.URL+"/healthz"); !strings.Contains(hb, `"status":"ok"`) {
		t.Fatalf("healthy healthz: %s", hb)
	}

	// The disk breaks: every fsync from now on fails.
	ft.SetScript(vfs.FailNth(vfs.OpSync, 1))

	resp, body = post(t, cl, ts.URL+"/v1/facts", `{"assert": ["edge(c, a)"]}`)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), `"kind":"read_only"`) {
		t.Fatalf("write over broken disk: status %d body %s (want 503 read_only)", resp.StatusCode, body)
	}

	// Degradation is sticky, reads keep serving version 1, and health
	// reports it — all under concurrent traffic.
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, data := post(t, cl, ts.URL+"/v1/ask", `{"query": "reach(a, c)"}`)
				if resp.StatusCode != 200 {
					errCh <- fmt.Errorf("degraded reader %d: status %d body %s", r, resp.StatusCode, data)
					return
				}
				if !strings.Contains(string(data), `"result":true`) || !strings.Contains(string(data), `"dataVersion":1`) {
					errCh <- fmt.Errorf("degraded reader %d: lost the committed version: %s", r, data)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			resp, data := post(t, cl, ts.URL+"/v1/facts", `{"retract": ["edge(b, c)"]}`)
			if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(data), `"kind":"read_only"`) {
				errCh <- fmt.Errorf("degraded writer: status %d body %s (want sticky 503 read_only)", resp.StatusCode, data)
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	hb := get(t, cl, ts.URL+"/healthz")
	if !strings.Contains(hb, `"status":"degraded"`) || !strings.Contains(hb, `"reason":"read_only"`) {
		t.Fatalf("degraded healthz: %s", hb)
	}
	if !strings.Contains(hb, `"dataVersion":1`) {
		t.Fatalf("degraded healthz lost the served version: %s", hb)
	}
	if got := metrics.Default.LiveReadOnly.Value(); got != 1 {
		t.Fatalf("live_readonly gauge = %d, want 1", got)
	}
	if degraded, cause := lv.Degraded(); !degraded || cause == "" {
		t.Fatalf("Degraded() = %v, %q", degraded, cause)
	}
}

// TestCoalescedAskSurvivesCommitRace is the regression test for the
// coalesced-waiter/commit race: a waiter that latched onto an identical
// in-flight ask must echo the dataVersion of the flight that actually
// computed the answer — not its own admission-time version — and must
// carry the X-Hdl-Cache: coalesced header. The race is forced: both
// callers are admitted while the data is at version 0, the pool's
// engines are held hostage so the flight leader blocks on its lease, a
// commit bumps the version to 1, and only then are the engines released
// — so the flight evaluates at version 1 and both answers are valid only
// there.
func TestCoalescedAskSurvivesCommitRace(t *testing.T) {
	// Admission has one slot per engine, so with two engines both callers
	// are admitted and reach the cache flight — as long as the test holds
	// both engines, the leader blocks on its lease.
	const engines = 2
	_, ts, lv := newLiveTestServer(t,
		hypo.Options{PoolSize: engines, CacheBytes: 1 << 20}, Config{})
	cl := ts.Client()
	pl := lv.Pool()

	hold := make(chan struct{})
	held := make(chan struct{}, engines)
	doDone := make(chan error, engines)
	for i := 0; i < engines; i++ {
		go func() {
			doDone <- pl.Do(context.Background(), func(e *hypo.Engine) error {
				held <- struct{}{}
				<-hold
				return nil
			})
		}()
	}
	for i := 0; i < engines; i++ {
		<-held
	}

	type res struct {
		status int
		body   string
		cache  string
	}
	results := make(chan res, 2)
	ask := func() {
		resp, body := post(t, cl, ts.URL+"/v1/ask", `{"query": "reach(a, c)"}`)
		results <- res{resp.StatusCode, string(body), resp.Header.Get("X-Hdl-Cache")}
	}
	go ask()
	time.Sleep(50 * time.Millisecond) // first caller becomes the flight leader
	go ask()
	time.Sleep(50 * time.Millisecond) // second caller latches onto the flight

	// Commit while both wait. /v1/facts never leases an engine, so it
	// cannot deadlock against the held pool.
	if resp, body := post(t, cl, ts.URL+"/v1/facts", `{"assert": ["edge(b, c)"]}`); resp.StatusCode != 200 {
		t.Fatalf("facts: status %d body %s", resp.StatusCode, body)
	}
	close(hold)
	for i := 0; i < engines; i++ {
		if err := <-doDone; err != nil {
			t.Fatal(err)
		}
	}

	var caches []string
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != 200 {
			t.Fatalf("ask %d: status %d body %s", i, r.status, r.body)
		}
		// reach(a, c) holds at version 1 and at no earlier version, so a
		// stale answer or a stale echoed version is each detectable.
		if !strings.Contains(r.body, `"result":true`) {
			t.Errorf("ask %d answered for the wrong version: %s", i, r.body)
		}
		if !strings.Contains(r.body, `"dataVersion":1`) {
			t.Errorf("ask %d echoed a version its answer is not valid at: %s", i, r.body)
		}
		caches = append(caches, r.cache)
	}
	sort.Strings(caches)
	if got := strings.Join(caches, ","); got != "coalesced,miss" {
		t.Errorf("cache headers %q, want one miss and one coalesced", got)
	}
}

// get fetches a URL and returns the body.
func get(t *testing.T, cl *http.Client, url string) string {
	t.Helper()
	resp, err := cl.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}
