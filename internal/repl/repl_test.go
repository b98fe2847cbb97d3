package repl_test

// End-to-end replication tests: a primary hypo.Live behind httptest
// serving the repl endpoints, with replica hypo.Lives tailing it.

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strconv"
	"testing"
	"time"

	hypo "hypodatalog"
	"hypodatalog/internal/repl"
	"hypodatalog/internal/vfs"
)

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// replSrc pins constants a..f so asserted edges stay in-domain.
const replSrc = `
node(a). node(b). node(c). node(d). node(e). node(f).
edge(a, b).
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
`

func parse(t *testing.T) *hypo.Program {
	t.Helper()
	p, err := hypo.Parse(replSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return p
}

// openNode opens one hypo.Live over its own temp dir (or fs when
// non-nil), with a bounded stream tail so fall-behind paths are
// reachable in tests.
func openNode(t *testing.T, fs vfs.FS, tailLen int) *hypo.Live {
	t.Helper()
	dir := "/db"
	if fs == nil {
		dir = t.TempDir()
	}
	lv, err := hypo.OpenLive(parse(t), hypo.LiveConfig{
		WALPath:       filepath.Join(dir, "wal.log"),
		SnapshotPath:  filepath.Join(dir, "db.snap"),
		SnapshotEvery: 4,
		NoSync:        fs == nil, // in-memory disks sync for free; crashes need it
		Logger:        quiet,
		FS:            fs,
		StreamTailLen: tailLen,
	}, hypo.Options{})
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	return lv
}

// newPrimaryServer mounts the replication endpoints for lv on an
// httptest server with a fast heartbeat.
func newPrimaryServer(t *testing.T, lv *hypo.Live) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	repl.NewPrimary(repl.PrimaryConfig{
		Source:    lv.Store(),
		RulesHash: parse(t).RulesHash(),
		Heartbeat: 50 * time.Millisecond,
		Logger:    quiet,
	}).Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// startReplica tails url into target with test-friendly timeouts.
func startReplica(t *testing.T, url string, target *hypo.Live, client *http.Client) *repl.Replica {
	t.Helper()
	rep, err := repl.Start(repl.ReplicaConfig{
		Primary:       url,
		Target:        target,
		RulesHash:     parse(t).RulesHash(),
		Client:        client,
		StreamTimeout: 500 * time.Millisecond,
		BackoffMin:    5 * time.Millisecond,
		BackoffMax:    50 * time.Millisecond,
		Logger:        quiet,
	})
	if err != nil {
		t.Fatalf("repl.Start: %v", err)
	}
	t.Cleanup(rep.Close)
	return rep
}

// waitVersion polls until target reaches at least version v.
func waitVersion(t *testing.T, target *hypo.Live, v uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for target.Version() < v {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at version %d, want >= %d", target.Version(), v)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitApplied polls until the replica's status reports version v applied.
// A test that then reads the status must wait on it, not on the store: the
// store reaches v inside the apply, before the replica records that it did.
func waitApplied(t *testing.T, rep *repl.Replica, v uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for rep.Status().Applied < v {
		if time.Now().After(deadline) {
			t.Fatalf("replica status stuck at %+v, want Applied >= %d", rep.Status(), v)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func assertEdge(t *testing.T, lv *hypo.Live, from, to string) uint64 {
	t.Helper()
	ms, err := hypo.ParseMutations([]string{fmt.Sprintf("edge(%s, %s)", from, to)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	info, err := lv.Apply(ms)
	if err != nil {
		t.Fatalf("Apply edge(%s, %s): %v", from, to, err)
	}
	return info.Version
}

func nodeFacts(t *testing.T, lv *hypo.Live) []string {
	t.Helper()
	prog, _ := lv.Store().SnapshotProgram()
	out := make([]string, 0, len(prog.Facts))
	for _, f := range prog.Facts {
		out = append(out, f.String())
	}
	sort.Strings(out)
	return out
}

// TestThreeNodeWriteThenRead is the headline e2e: one primary, two
// replicas, a write on the primary becomes readable (through the rules,
// not just the raw fact) on both replicas.
func TestThreeNodeWriteThenRead(t *testing.T) {
	primary := openNode(t, nil, 0)
	defer primary.Close()
	srv := newPrimaryServer(t, primary)

	r1 := openNode(t, nil, 0)
	defer r1.Close()
	r2 := openNode(t, nil, 0)
	defer r2.Close()
	rep1 := startReplica(t, srv.URL, r1, nil)
	rep2 := startReplica(t, srv.URL, r2, nil)

	v := assertEdge(t, primary, "b", "c")
	v = assertEdge(t, primary, "c", "d")

	reps := []*repl.Replica{rep1, rep2}
	for i, r := range []*hypo.Live{r1, r2} {
		waitApplied(t, reps[i], v, 5*time.Second)
		ok := false
		_, err := r.Pool().Read(context.Background(), hypo.Request{Kind: hypo.ReadAsk, Query: "reach(a, d)"}, func(hypo.Binding) error {
			ok = true
			return nil
		})
		if err != nil || !ok {
			t.Fatalf("replica %d: reach(a, d) = %v, %v; want true", i+1, ok, err)
		}
		if got, want := nodeFacts(t, r), nodeFacts(t, primary); !equalStrings(got, want) {
			t.Fatalf("replica %d facts diverge:\n got %v\nwant %v", i+1, got, want)
		}
	}
	for i, rep := range reps {
		st := rep.Status()
		if !st.Ready || st.Applied != v {
			t.Fatalf("replica %d status = %+v; want Ready at version %d", i+1, st, v)
		}
	}
}

// TestBootstrapFromSnapshot starts a replica so far behind a
// short-tailed primary that streaming is impossible: it must fetch the
// snapshot, install it, then tail.
func TestBootstrapFromSnapshot(t *testing.T) {
	primary := openNode(t, nil, 2)
	defer primary.Close()
	var v uint64
	pairs := []struct{ from, to string }{
		{"b", "c"}, {"c", "d"}, {"d", "e"}, {"e", "f"}, {"a", "c"}, {"a", "d"},
	}
	for _, p := range pairs {
		v = assertEdge(t, primary, p.from, p.to)
	}
	srv := newPrimaryServer(t, primary)

	r := openNode(t, nil, 0)
	defer r.Close()
	rep := startReplica(t, srv.URL, r, nil)
	waitApplied(t, rep, v, 5*time.Second)

	st := rep.Status()
	if st.Bootstraps == 0 {
		t.Fatalf("replica converged without a bootstrap (status %+v); the tail cannot reach version 0", st)
	}
	if got, want := nodeFacts(t, r), nodeFacts(t, primary); !equalStrings(got, want) {
		t.Fatalf("facts diverge after bootstrap:\n got %v\nwant %v", got, want)
	}
	// And the stream keeps the replica current after the jump.
	v = assertEdge(t, primary, "f", "a")
	waitApplied(t, rep, v, 5*time.Second)
}

// TestRulesHashMismatch: a follower running different rules is refused
// with 409 before any state moves.
func TestRulesHashMismatch(t *testing.T) {
	primary := openNode(t, nil, 0)
	defer primary.Close()
	srv := newPrimaryServer(t, primary)

	for _, path := range []string{"/v1/repl/stream?from=0", "/v1/repl/snapshot"} {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		req.Header.Set("X-Hdl-Rules-Hash", "12345")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("GET %s with bad rules hash = %d, want 409", path, resp.StatusCode)
		}
	}
}

// TestStreamRefusesAheadFollower: a from-version past the primary's is
// split brain, not a resumable position.
func TestStreamRefusesAheadFollower(t *testing.T) {
	primary := openNode(t, nil, 0)
	defer primary.Close()
	srv := newPrimaryServer(t, primary)

	resp, err := http.Get(srv.URL + "/v1/repl/stream?from=999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("from=999 on an empty primary = %d, want 409", resp.StatusCode)
	}
}

// TestStreamGoneForEvictedResume: a resume point below the horizon gets
// 410 + the horizon header, the signal to bootstrap.
func TestStreamGoneForEvictedResume(t *testing.T) {
	primary := openNode(t, nil, 2)
	defer primary.Close()
	for _, p := range []struct{ from, to string }{{"b", "c"}, {"c", "d"}, {"d", "e"}, {"e", "f"}} {
		assertEdge(t, primary, p.from, p.to)
	}
	srv := newPrimaryServer(t, primary)

	resp, err := http.Get(srv.URL + "/v1/repl/stream?from=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("evicted resume point = %d, want 410", resp.StatusCode)
	}
	h, err := strconv.ParseUint(resp.Header.Get("X-Hdl-Stream-Horizon"), 10, 64)
	if err != nil || h != 2 {
		t.Fatalf("X-Hdl-Stream-Horizon = %q, want 2", resp.Header.Get("X-Hdl-Stream-Horizon"))
	}
}

// TestReplicaCrashMidStreamResumes kills a replica mid-tail-stream
// (in-memory disk crash, dropping anything unsynced), recovers it, and
// checks nothing acked was lost and nothing uncommitted surfaced: the
// recovered version is exactly what the replica had durably applied,
// and after restart it converges to the primary's head.
func TestReplicaCrashMidStreamResumes(t *testing.T) {
	primary := openNode(t, nil, 0)
	defer primary.Close()
	srv := newPrimaryServer(t, primary)

	mem := vfs.NewMem()
	r := openNode(t, mem, 0)
	rep := startReplica(t, srv.URL, r, nil)

	pairs := []struct{ from, to string }{
		{"b", "c"}, {"c", "d"}, {"d", "e"}, {"e", "f"}, {"a", "c"},
	}
	var head uint64
	for _, p := range pairs {
		head = assertEdge(t, primary, p.from, p.to)
	}
	waitVersion(t, r, 2, 5*time.Second) // mid-stream: some but maybe not all applied

	// kill -9: stop the process abruptly, then crash the disk image.
	// (The replica stops first so "applied" is a stable observation, not
	// a race against the apply loop.)
	rep.Close()
	applied := r.Version()
	appliedFacts := nodeFacts(t, r)
	_ = r.Close()
	mem.Crash(newRand(1))

	r2 := openNode(t, mem, 0)
	defer r2.Close()
	if got := r2.Version(); got != applied {
		t.Fatalf("recovered version %d, want the durably applied %d", got, applied)
	}
	if got := nodeFacts(t, r2); !equalStrings(got, appliedFacts) {
		t.Fatalf("recovered facts diverge from applied state:\n got %v\nwant %v", got, appliedFacts)
	}

	startReplica(t, srv.URL, r2, nil)
	waitVersion(t, r2, head, 5*time.Second)
	if got, want := nodeFacts(t, r2), nodeFacts(t, primary); !equalStrings(got, want) {
		t.Fatalf("facts diverge after recovery:\n got %v\nwant %v", got, want)
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
