// Package cmd_test builds the command binaries and exercises them end
// to end against the shipped example programs.
package cmd_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	hypo "hypodatalog"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "hdlbin")
	if err != nil {
		panic(err)
	}
	binDir = dir
	for _, tool := range []string{"hdl", "hdlc", "hdlbench", "hdld"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./"+tool)
		cmd.Dir = "."
		if out, err := cmd.CombinedOutput(); err != nil {
			panic("building " + tool + ": " + err.Error() + "\n" + string(out))
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func run(t *testing.T, tool string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, tool), args...)
	cmd.Dir = ".."
	out, err := cmd.CombinedOutput()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s %v: %v", tool, args, err)
	}
	return string(out), code
}

func TestHdlRunsPrograms(t *testing.T) {
	out, code := run(t, "hdl", "examples/programs/parity.hdl")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "?- even.") || !strings.Contains(out, "true") {
		t.Errorf("missing query output:\n%s", out)
	}
	if !strings.Contains(out, "linearly stratified, 1 strata") {
		t.Errorf("missing stratification banner:\n%s", out)
	}
}

func TestHdlQueryFlagAndBindings(t *testing.T) {
	out, code := run(t, "hdl", "-q", "grad(S)[add: take(S, C)]", "examples/programs/university.hdl")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "S = mary") {
		t.Errorf("missing binding for mary:\n%s", out)
	}
}

func TestHdlExplain(t *testing.T) {
	out, code := run(t, "hdl", "-explain", "examples/programs/parity.hdl")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "[fact]") || !strings.Contains(out, "under add:") {
		t.Errorf("missing derivation tree:\n%s", out)
	}
}

func TestHdlModes(t *testing.T) {
	for _, mode := range []string{"auto", "uniform", "cascade"} {
		out, code := run(t, "hdl", "-mode", mode, "examples/programs/hamiltonian.hdl")
		if code != 0 {
			t.Fatalf("mode %s: exit %d:\n%s", mode, code, out)
		}
		if !strings.Contains(out, "?- yes.\n   true") {
			t.Errorf("mode %s: wrong answer:\n%s", mode, out)
		}
	}
}

func TestHdlDeletionProgram(t *testing.T) {
	out, code := run(t, "hdl", "examples/programs/tokengame.hdl")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "?- goal.\n   true") {
		t.Errorf("token game wrong:\n%s", out)
	}
}

func TestHdlErrors(t *testing.T) {
	out, code := run(t, "hdl", "no-such-file.hdl")
	if code == 0 {
		t.Errorf("missing-file run succeeded:\n%s", out)
	}
	_, code = run(t, "hdl")
	if code == 0 {
		t.Error("argless run succeeded")
	}
}

func TestHdlcReportsStrata(t *testing.T) {
	out, code := run(t, "hdlc", "-v", "examples/programs/example9.hdl")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"3 strata", "a3/0", "Σ_3"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestHdlcNonLinearExitCode(t *testing.T) {
	tmp := filepath.Join(binDir, "nonlinear.hdl")
	if err := os.WriteFile(tmp, []byte("a :- b, a[add: c1], a[add: c2].\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := run(t, "hdlc", tmp)
	if code != 1 {
		t.Errorf("exit = %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "NOT linearly stratifiable") {
		t.Errorf("missing diagnosis:\n%s", out)
	}
	// Hard errors exit 2.
	tmp2 := filepath.Join(binDir, "negcycle.hdl")
	if err := os.WriteFile(tmp2, []byte("a :- not b.\nb :- not a.\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, code = run(t, "hdlc", tmp2)
	if code != 2 {
		t.Errorf("negation cycle exit = %d, want 2", code)
	}
}

func TestHdlbenchSmoke(t *testing.T) {
	out, code := run(t, "hdlbench", "-smoke", "-run", "E1,E11")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "E1 (Example 4)") || !strings.Contains(out, "E11 (section 3.1)") {
		t.Errorf("missing experiment tables:\n%s", out)
	}
}

// TestHdlAbortExitsNonZero: a directive query cut short by the goal
// budget must fail the run (exit 1) and report the partial work on
// stderr, so scripted invocations cannot mistake an abort for a clean
// "false".
func TestHdlAbortExitsNonZero(t *testing.T) {
	tmp := filepath.Join(binDir, "abort.hdl")
	// A derivation chain of 4 goal expansions, so -max 1 aborts it.
	prog := "a4.\na3 :- a4.\na2 :- a3.\na1 :- a2.\n?- a1.\n"
	if err := os.WriteFile(tmp, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := run(t, "hdl", "-mode", "uniform", "-max", "1", tmp)
	if code != 1 {
		t.Errorf("exit = %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "aborted") || !strings.Contains(out, "partial work") {
		t.Errorf("missing abort diagnostics:\n%s", out)
	}
	// The same program under a workable budget still exits 0.
	out, code = run(t, "hdl", "-mode", "uniform", tmp)
	if code != 0 {
		t.Errorf("unbudgeted exit = %d, want 0:\n%s", code, out)
	}
}

// TestHdlStatsArePerQuery: -stats prints each query's own work, so a
// repeat of a query on the warm engine's memo table reports fewer goals
// than its first evaluation, not the engine's running total.
func TestHdlStatsArePerQuery(t *testing.T) {
	// parity.hdl without its own "?-" queries, so the pair below runs cold
	// and then warm.
	src, err := os.ReadFile("../examples/programs/parity.hdl")
	if err != nil {
		t.Fatal(err)
	}
	var rules []string
	for _, line := range strings.Split(string(src), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "?-") {
			rules = append(rules, line)
		}
	}
	prog := filepath.Join(binDir, "parity-rules.hdl")
	if err := os.WriteFile(prog, []byte(strings.Join(rules, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := run(t, "hdl", "-stats", "-mode", "uniform", "-q", "odd", "-q", "odd", prog)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	var goals []int
	for _, line := range strings.Split(out, "\n") {
		var g int
		if _, err := fmt.Sscanf(strings.TrimSpace(line), "%% goals=%d", &g); err == nil {
			goals = append(goals, g)
		}
	}
	if len(goals) != 2 {
		t.Fatalf("want 2 stats lines, got goals %v:\n%s", goals, out)
	}
	if first, second := goals[0], goals[1]; second >= first {
		t.Errorf("repeated odd reports goals=%d after goals=%d: the stats are cumulative, not per query", second, first)
	}
}

// TestExamplesRun builds and runs every examples/*/main.go. Each checks
// its own answers and exits non-zero (log.Fatal) on a wrong one.
func TestExamplesRun(t *testing.T) {
	mains, err := filepath.Glob("../examples/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	for _, m := range mains {
		name := filepath.Base(filepath.Dir(m))
		t.Run(name, func(t *testing.T) {
			bin := filepath.Join(binDir, "example-"+name)
			build := exec.Command("go", "build", "-o", bin, "./examples/"+name)
			build.Dir = ".."
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("build: %v\n%s", err, out)
			}
			cmd := exec.Command(bin)
			cmd.Dir = ".."
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("run: %v\n%s", err, out)
			}
		})
	}
}

// TestHdldServesAndDrains boots the daemon on an ephemeral port, asks it
// a query over HTTP, then sends SIGTERM and expects a clean drain and
// exit 0.
func TestHdldServesAndDrains(t *testing.T) {
	cmd := exec.Command(filepath.Join(binDir, "hdld"),
		"-addr", "127.0.0.1:0", "-log", "json", "examples/programs/university.hdl")
	cmd.Dir = ".."
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon logs a "listening" line with the resolved address; scan
	// for it, then keep draining stderr so the child never blocks.
	// scanDone closes at stderr EOF (the child exited and its last log
	// line is in logs) — wait for it before cmd.Wait(), which would
	// close the pipe out from under the scanner and drop tail lines.
	var logs bytes.Buffer
	sc := bufio.NewScanner(io.TeeReader(stderr, &logs))
	addrCh := make(chan string, 1)
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		for sc.Scan() {
			var line struct {
				Msg  string `json:"msg"`
				Addr string `json:"addr"`
			}
			if json.Unmarshal(sc.Bytes(), &line) == nil && line.Msg == "listening" {
				select {
				case addrCh <- line.Addr:
				default:
				}
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(10 * time.Second):
		t.Fatalf("no listening line within 10s; logs:\n%s", logs.String())
	}

	resp, err := http.Post("http://"+addr+"/v1/ask", "application/json",
		strings.NewReader(`{"query": "grad(tony)"}`))
	if err != nil {
		t.Fatalf("POST /v1/ask: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"result":true`) {
		t.Errorf("ask = %d %s, want 200 result:true", resp.StatusCode, body)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-scanDone:
	case <-time.After(15 * time.Second):
		t.Fatalf("hdld did not exit within 15s of SIGTERM; logs:\n%s", logs.String())
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("hdld exit after SIGTERM = %v; logs:\n%s", err, logs.String())
	}
	for _, want := range []string{"draining", "exiting"} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("shutdown logs missing %q:\n%s", want, logs.String())
		}
	}
}

// TestHdldDebugAddr: -debug-addr serves the pprof index on a listener
// of its own, logged like the main one; the API port does not serve it,
// and the daemon still drains and exits 0.
func TestHdldDebugAddr(t *testing.T) {
	// The debug listener logs before the main one, so both addresses are
	// known once "listening" is seen.
	cmd, seen, logs, scanDone := startHdldAddrs(t, "-debug-addr", "127.0.0.1:0", "examples/programs/university.hdl")
	defer cmd.Process.Kill()
	debug, api := seen["debug listener"], seen["listening"]
	if debug == "" || debug == api {
		t.Fatalf("debug listener address %q (API %q)", debug, api)
	}
	for _, tc := range []struct {
		addr string
		want int
	}{{debug, http.StatusOK}, {api, http.StatusNotFound}} {
		resp, err := http.Get("http://" + tc.addr + "/debug/pprof/")
		if err != nil {
			t.Fatalf("GET %s/debug/pprof/: %v", tc.addr, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s/debug/pprof/ = %d, want %d", tc.addr, resp.StatusCode, tc.want)
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-scanDone:
	case <-time.After(15 * time.Second):
		t.Fatal("hdld did not exit within 15s of SIGTERM")
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("hdld exit after SIGTERM = %v; logs:\n%s", err, logs.String())
	}
}

// TestHdlSnapshotOut round-trips a program through `hdl -snapshot-out`:
// the written HDLSNAP file, loaded back with hypo.ReadSnapshot, must
// reproduce the program — same rules, queries and facts — and answer its
// queries identically.
func TestHdlSnapshotOut(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "uni.snap")
	out, code := run(t, "hdl", "-snapshot-out", snap, "examples/programs/university.hdl")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "snapshot written to") {
		t.Errorf("missing confirmation line:\n%s", out)
	}
	// With embedded queries the run still evaluates them after writing.
	if !strings.Contains(out, "S = mary") {
		t.Errorf("embedded queries not evaluated after snapshot:\n%s", out)
	}

	src, err := os.ReadFile("../examples/programs/university.hdl")
	if err != nil {
		t.Fatal(err)
	}
	orig, err := hypo.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, err := hypo.ReadSnapshot(f)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	// The snapshot stores facts in per-predicate blocks, so clause order
	// may differ; compare the canonical texts as line sets.
	if got, want := sortedLines(loaded.String()), sortedLines(orig.String()); got != want {
		t.Errorf("round-trip mismatch:\n--- original ---\n%s\n--- snapshot ---\n%s", want, got)
	}
	if got, want := loaded.Queries(), orig.Queries(); len(got) != len(want) {
		t.Errorf("queries: got %v want %v", got, want)
	}
	eng, err := hypo.New(loaded, hypo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := eng.Ask("grad(mary)[add: take(mary, eng201)]")
	if err != nil || !ok {
		t.Errorf("Example 1 on reloaded snapshot = %v, %v; want true", ok, err)
	}
}

func sortedLines(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// startHdld launches the daemon with -log json plus the given extra
// arguments, waits for its "listening" line and returns the resolved
// address. The returned buffer accumulates stderr for diagnostics; the
// returned channel closes at stderr EOF (i.e. child exit) — wait on it
// before cmd.Wait() so no tail log lines are lost.
func startHdld(t *testing.T, extra ...string) (*exec.Cmd, string, *bytes.Buffer, chan struct{}) {
	t.Helper()
	cmd, addrs, logs, scanDone := startHdldAddrs(t, extra...)
	return cmd, addrs["listening"], logs, scanDone
}

// startHdldAddrs is startHdld returning the "addr" of every log line
// up to and including "listening", keyed by message, so listeners that
// log before the main one can be found too.
func startHdldAddrs(t *testing.T, extra ...string) (*exec.Cmd, map[string]string, *bytes.Buffer, chan struct{}) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-log", "json"}, extra...)
	cmd := exec.Command(filepath.Join(binDir, "hdld"), args...)
	cmd.Dir = ".."
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	logs := &bytes.Buffer{}
	sc := bufio.NewScanner(io.TeeReader(stderr, logs))
	addrCh := make(chan map[string]string, 1)
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		addrs := map[string]string{}
		for sc.Scan() {
			var line struct {
				Msg  string `json:"msg"`
				Addr string `json:"addr"`
			}
			if addrs == nil || json.Unmarshal(sc.Bytes(), &line) != nil || line.Addr == "" {
				continue
			}
			addrs[line.Msg] = line.Addr
			if line.Msg == "listening" {
				addrCh <- addrs
				addrs = nil // handed off; keep draining stderr
			}
		}
	}()
	select {
	case addrs := <-addrCh:
		return cmd, addrs, logs, scanDone
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("no listening line within 10s; logs:\n%s", logs.String())
		return nil, nil, nil, nil
	}
}

// TestHdldWALSurvivesKill streams fact commits at a live daemon, kill
// -9s it mid-stream, restarts it on the same WAL, and checks that the
// recovered data version covers every acknowledged commit — the
// durability contract of POST /v1/facts.
func TestHdldWALSurvivesKill(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "wal.log")
	cmd, addr, logs, _ := startHdld(t, "-wal", wal, "examples/programs/university.hdl")
	defer cmd.Process.Kill()

	// Toggle a base fact; every 200 response is an acknowledged, durable
	// commit. Constants stay inside dom(R, DB) of the seed program.
	var maxAcked uint64
	for i := 0; i < 9; i++ {
		body := `{"assert": ["take(mary, eng201)"]}`
		if i%2 == 1 {
			body = `{"retract": ["take(mary, eng201)"]}`
		}
		resp, err := http.Post("http://"+addr+"/v1/facts", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("commit %d: %v; logs:\n%s", i, err, logs.String())
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("commit %d: status %d body %s", i, resp.StatusCode, data)
		}
		var fr struct {
			Version uint64 `json:"version"`
		}
		if err := json.Unmarshal(data, &fr); err != nil || fr.Version == 0 {
			t.Fatalf("commit %d: bad response %s (err %v)", i, data, err)
		}
		maxAcked = fr.Version
	}

	// kill -9: no drain, no compaction, no deferred Close.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	cmd2, addr2, logs2, scanDone2 := startHdld(t, "-wal", wal, "examples/programs/university.hdl")
	defer cmd2.Process.Kill()
	resp, err := http.Get("http://" + addr2 + "/healthz")
	if err != nil {
		t.Fatalf("healthz after restart: %v; logs:\n%s", err, logs2.String())
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var hz struct {
		DataVersion uint64 `json:"dataVersion"`
	}
	if err := json.Unmarshal(data, &hz); err != nil {
		t.Fatalf("healthz body %s: %v", data, err)
	}
	if hz.DataVersion < maxAcked {
		t.Errorf("recovered dataVersion %d < max acknowledged commit %d; logs:\n%s",
			hz.DataVersion, maxAcked, logs2.String())
	}

	// The recovered state answers queries consistently with the last
	// acknowledged commit (9 commits end on an assert: fact present).
	resp, err = http.Post("http://"+addr2+"/v1/ask", "application/json",
		strings.NewReader(`{"query": "grad(mary)"}`))
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(data), `"result":true`) {
		t.Errorf("post-recovery ask = %d %s, want result:true", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), fmt.Sprintf(`"dataVersion":%d`, maxAcked)) {
		t.Errorf("post-recovery ask %s lacks dataVersion %d", data, maxAcked)
	}

	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-scanDone2:
	case <-time.After(15 * time.Second):
		t.Fatalf("restarted hdld did not exit within 15s; logs:\n%s", logs2.String())
	}
	if err := cmd2.Wait(); err != nil {
		t.Errorf("restarted hdld exit after SIGTERM = %v; logs:\n%s", err, logs2.String())
	}
}
