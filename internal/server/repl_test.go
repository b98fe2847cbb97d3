package server

// Tests for the replication-aware server surface: X-Hdl-Min-Version
// read-your-writes gating, write proxying from replicas, and the
// role/replication fields in healthz/readyz.

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	hypo "hypodatalog"
	"hypodatalog/internal/repl"
)

// askMin posts an ask with an X-Hdl-Min-Version header.
func askMin(t *testing.T, url, query, min string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/ask",
		strings.NewReader(`{"query": "`+query+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if min != "" {
		req.Header.Set("X-Hdl-Min-Version", min)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, rerr := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	return resp, sb.String()
}

func TestMinVersionGate(t *testing.T) {
	_, ts, lv := newLiveTestServer(t, hypo.Options{}, Config{MinVersionWait: 200 * time.Millisecond})

	// At or below the current version: passes immediately.
	resp, body := askMin(t, ts.URL, "reach(a, b)", "0")
	if resp.StatusCode != 200 || !strings.Contains(body, `"result":true`) {
		t.Fatalf("min=0: status %d body %s", resp.StatusCode, body)
	}

	// Ahead of the current version with no write coming: 503 stale with
	// Retry-After and the version the node IS at.
	resp, body = askMin(t, ts.URL, "reach(a, b)", "99")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, `"stale"`) {
		t.Fatalf("min=99: status %d body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" || resp.Header.Get("X-Hdl-Version") != "0" {
		t.Fatalf("stale refusal headers: Retry-After=%q X-Hdl-Version=%q",
			resp.Header.Get("Retry-After"), resp.Header.Get("X-Hdl-Version"))
	}

	// A malformed header is the client's fault.
	resp, _ = askMin(t, ts.URL, "reach(a, b)", "not-a-number")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed min version: status %d, want 400", resp.StatusCode)
	}

	// Ahead of the current version with the write landing mid-wait: the
	// read parks, wakes on the commit, and answers at the new version.
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(50 * time.Millisecond)
		ms, err := hypo.ParseMutations([]string{"edge(b, c)"}, nil)
		if err == nil {
			_, err = lv.Apply(ms)
		}
		if err != nil {
			t.Errorf("apply during wait: %v", err)
		}
	}()
	resp, body = askMin(t, ts.URL, "reach(a, c)", "1")
	<-done
	if resp.StatusCode != 200 || !strings.Contains(body, `"result":true`) {
		t.Fatalf("min=1 with concurrent write: status %d body %s", resp.StatusCode, body)
	}
}

// TestMinVersionGateDuringCommit pins the gate to the version leases are
// served at. A commit advances the store's version before it publishes
// the new program to the pool; a reader that learns version i in that
// window (here by polling the store, in production from another node's
// write ack) and demands it must park until the pool serves i, never be
// answered from i-1. The base is padded so the window — deriving the
// next program from the fact set — is wide enough to hit every run.
func TestMinVersionGateDuringCommit(t *testing.T) {
	var src strings.Builder
	src.WriteString(liveSrc)
	for i := 0; i < 4000; i++ {
		fmt.Fprintf(&src, "pad(p%d).\n", i)
	}
	s, _, lv := newLiveTestServerSrc(t, src.String(), hypo.Options{PoolSize: 4}, Config{})

	const commits = 80
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				min := lv.Version()
				req := httptest.NewRequest(http.MethodPost, "/v1/ask", strings.NewReader(`{"query": "reach(a, c)"}`))
				req.Header.Set("X-Hdl-Min-Version", strconv.FormatUint(min, 10))
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, req)
				var resp askResponse
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
					t.Errorf("gated read at min=%d: status %d body %s", min, rec.Code, rec.Body)
					return
				}
				if resp.DataVersion < min {
					t.Errorf("read gated on version %d was served at version %d", min, resp.DataVersion)
					return
				}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := 0; i < commits && !t.Failed(); i++ {
		assert, retract := []string{"edge(b, c)"}, []string(nil)
		if i%2 == 1 {
			assert, retract = retract, assert
		}
		ms, err := hypo.ParseMutations(assert, retract)
		if err == nil {
			_, err = lv.Apply(ms)
		}
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
}

func TestProxyFactsToPrimary(t *testing.T) {
	// A real primary with a live store...
	_, primaryTS, primaryLive := newLiveTestServer(t, hypo.Options{}, Config{})
	// ...and a replica-role server pointing at it. The replica has its
	// own (empty) live store; the write must not land there.
	_, replicaTS, replicaLive := newLiveTestServer(t, hypo.Options{},
		Config{Role: "replica", PrimaryURL: primaryTS.URL})

	resp, body := post(t, replicaTS.Client(), replicaTS.URL+"/v1/facts",
		`{"assert": ["edge(b, c)"]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("proxied write: status %d body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Hdl-Proxied") != "primary" {
		t.Fatalf("X-Hdl-Proxied = %q, want primary", resp.Header.Get("X-Hdl-Proxied"))
	}
	if !strings.Contains(string(body), `"version":1`) {
		t.Fatalf("proxied response did not relay the committed version: %s", body)
	}
	if v := primaryLive.Version(); v != 1 {
		t.Fatalf("primary version = %d, want 1", v)
	}
	if v := replicaLive.Version(); v != 0 {
		t.Fatalf("replica version = %d, want 0 (write must not land locally)", v)
	}

	// Validation errors surface to the caller through the proxy.
	resp, body = post(t, replicaTS.Client(), replicaTS.URL+"/v1/facts",
		`{"assert": ["reach(a, b)"]}`)
	if resp.StatusCode == 200 || !strings.Contains(string(body), "intensional") {
		t.Fatalf("invalid proxied write: status %d body %s", resp.StatusCode, body)
	}
}

func TestProxyFactsPrimaryUnreachable(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	_, replicaTS, _ := newLiveTestServer(t, hypo.Options{},
		Config{Role: "replica", PrimaryURL: dead.URL})
	resp, body := post(t, replicaTS.Client(), replicaTS.URL+"/v1/facts",
		`{"assert": ["edge(b, c)"]}`)
	if resp.StatusCode != http.StatusBadGateway || !strings.Contains(string(body), "primary_unreachable") {
		t.Fatalf("dead primary: status %d body %s", resp.StatusCode, body)
	}
}

func TestHealthzReportsReplication(t *testing.T) {
	st := repl.Status{Connected: true, Ready: true, Applied: 7, Primary: 9, Reconnects: 1}
	_, ts, _ := newLiveTestServer(t, hypo.Options{}, Config{
		Role:          "replica",
		ReplicaStatus: func() repl.Status { return st },
	})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Status      string `json:"status"`
		Role        string `json:"role"`
		Replication struct {
			Connected      bool   `json:"connected"`
			Applied        uint64 `json:"applied"`
			PrimaryVersion uint64 `json:"primaryVersion"`
			Lag            uint64 `json:"lag"`
		} `json:"replication"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Role != "replica" || !got.Replication.Connected ||
		got.Replication.Applied != 7 || got.Replication.PrimaryVersion != 9 || got.Replication.Lag != 2 {
		t.Fatalf("healthz = %+v", got)
	}
	if got.Status != "ok" {
		t.Fatalf("status = %q, want ok", got.Status)
	}
}

func TestHealthzDegradedWhenDisconnected(t *testing.T) {
	_, ts, _ := newLiveTestServer(t, hypo.Options{}, Config{
		Role:          "replica",
		ReplicaStatus: func() repl.Status { return repl.Status{Connected: false, LastError: "conn refused"} },
	})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got["status"] != "degraded" {
		t.Fatalf("disconnected replica healthz status = %v, want degraded", got["status"])
	}
}

func TestReadyzSyncingReplica(t *testing.T) {
	ready := false
	_, ts, _ := newLiveTestServer(t, hypo.Options{}, Config{
		Role:          "replica",
		ReplicaStatus: func() repl.Status { return repl.Status{Ready: ready} },
	})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("syncing replica readyz = %d, want 503", resp.StatusCode)
	}
	ready = true
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("caught-up replica readyz = %d, want 200", resp.StatusCode)
	}
}

// TestPrimaryEndpointsMounted: a server built with a ReplPrimary serves
// the replication endpoints on its own mux, outside admission.
func TestPrimaryEndpointsMounted(t *testing.T) {
	prog, err := hypo.Parse(liveSrc)
	if err != nil {
		t.Fatal(err)
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	dir := t.TempDir()
	lv, err := hypo.OpenLive(prog, hypo.LiveConfig{
		WALPath: filepath.Join(dir, "wal.log"),
		NoSync:  true,
		Logger:  quiet,
	}, hypo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := repl.NewPrimary(repl.PrimaryConfig{
		Source:    lv,
		RulesHash: prog.RulesHash(),
		Logger:    quiet,
	})
	s, err := New(Config{Pool: lv.Pool(), Live: lv, Role: "primary", ReplPrimary: p, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		lv.Close()
	})

	resp, err := http.Get(ts.URL + "/v1/repl/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("X-Hdl-Version") != "0" {
		t.Fatalf("snapshot: status %d X-Hdl-Version %q", resp.StatusCode, resp.Header.Get("X-Hdl-Version"))
	}
	resp, err = http.Get(ts.URL + "/v1/repl/stream?from=5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stream from ahead: status %d, want 409", resp.StatusCode)
	}
}
