package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	hypo "hypodatalog"
)

// fakeFlusher is a ResponseWriter with net/http's error-returning flush:
// it counts flushes, counts the ones made after the test set afterStop,
// and fails each flush with fail when that is set. The timer goroutine
// reads fail only under the writer's lock, which orders it after the
// test's writes to it.
type fakeFlusher struct {
	buf       bytes.Buffer
	fail      error
	flushes   atomic.Int32
	afterStop atomic.Bool
	late      atomic.Int32
}

func (f *fakeFlusher) Header() http.Header         { return http.Header{} }
func (f *fakeFlusher) Write(p []byte) (int, error) { return f.buf.Write(p) }
func (f *fakeFlusher) WriteHeader(int)             {}

func (f *fakeFlusher) FlushError() error {
	f.flushes.Add(1)
	if f.afterStop.Load() {
		f.late.Add(1)
	}
	return f.fail
}

func writeLine(t *testing.T, sw *streamWriter, line string) {
	t.Helper()
	if _, err := sw.Write([]byte(line + "\n")); err != nil {
		t.Fatalf("write %q: %v", line, err)
	}
}

// waitFlushes polls until f has flushed at least n times, for at most
// ten flush delays.
func waitFlushes(t *testing.T, f *fakeFlusher, n int32) {
	t.Helper()
	deadline := time.Now().Add(10 * streamFlushDelay)
	for f.flushes.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d flushes after %v, want %d", f.flushes.Load(), 10*streamFlushDelay, n)
		}
		time.Sleep(streamFlushDelay / 10)
	}
}

func TestStreamWriterFlushesFirstLineAtOnce(t *testing.T) {
	f := &fakeFlusher{}
	sw := newStreamWriter(f)
	defer sw.stop()
	writeLine(t, sw, "first")
	if got := f.flushes.Load(); got != 1 {
		t.Errorf("first line: %d flushes on return from Write, want 1", got)
	}
}

func TestStreamWriterCoalescesBurst(t *testing.T) {
	f := &fakeFlusher{}
	sw := newStreamWriter(f)
	// A delay no scheduler hiccup reaches: the burst must coalesce by
	// construction, not because it happened to be fast.
	sw.delay = time.Hour
	var want strings.Builder
	writeLine(t, sw, "first")
	want.WriteString("first\n")
	for i := 0; i < 100; i++ {
		writeLine(t, sw, "line")
		want.WriteString("line\n")
	}
	if got := f.flushes.Load(); got != 1 {
		t.Errorf("first line plus a burst of 100: %d flushes before stop, want 1 (the first line's)", got)
	}
	sw.stop()
	if got := f.flushes.Load(); got != 1 {
		t.Errorf("stop flushed: %d flushes, want 1", got)
	}
	if f.buf.String() != want.String() {
		t.Errorf("body differs from the lines written:\n%s", f.buf.String())
	}
}

func TestStreamWriterFlushesIdleLineWithinDelay(t *testing.T) {
	f := &fakeFlusher{}
	sw := newStreamWriter(f)
	defer sw.stop()
	writeLine(t, sw, "first")
	writeLine(t, sw, "second")
	waitFlushes(t, f, 2)
	// The timer is one-shot: a line after its flush arms it again.
	writeLine(t, sw, "third")
	writeLine(t, sw, "fourth")
	waitFlushes(t, f, 3)
}

func TestStreamWriterNoFlushAfterStop(t *testing.T) {
	f := &fakeFlusher{}
	sw := newStreamWriter(f)
	writeLine(t, sw, "first")
	writeLine(t, sw, "second") // arms the timer
	sw.stop()
	f.afterStop.Store(true)
	// A callback that fired before stop but took the lock after it.
	sw.timedFlush()
	time.Sleep(10 * streamFlushDelay)
	// Writes after stop still reach the ResponseWriter, unflushed.
	writeLine(t, sw, "done")
	time.Sleep(10 * streamFlushDelay)
	if n := f.late.Load(); n != 0 {
		t.Errorf("%d flushes after stop", n)
	}
	if got := f.buf.String(); got != "first\nsecond\ndone\n" {
		t.Errorf("body %q", got)
	}
}

// TestStreamWriterReportsFailedFlush: a flush that fails — the client
// is gone — surfaces at the next Write, whether the first line's flush
// or the timer's failed.
func TestStreamWriterReportsFailedFlush(t *testing.T) {
	gone := errors.New("connection reset by peer")

	f := &fakeFlusher{fail: gone}
	sw := newStreamWriter(f)
	writeLine(t, sw, "first")
	if _, err := sw.Write([]byte("second\n")); !errors.Is(err, gone) {
		t.Errorf("write after a failed first flush: %v, want %v", err, gone)
	}
	sw.stop()

	f = &fakeFlusher{}
	sw = newStreamWriter(f)
	defer sw.stop()
	writeLine(t, sw, "first")
	f.fail = gone // ordered before the timer's flush by the writer's lock
	writeLine(t, sw, "second")
	waitFlushes(t, f, 2)
	if _, err := sw.Write([]byte("third\n")); !errors.Is(err, gone) {
		t.Errorf("write after a failed timed flush: %v, want %v", err, gone)
	}
}

// countingListener counts Write calls on the connections it accepts:
// each is one write(2) of response bytes to the client.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, writes: l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestQueryStreamCoalescesWrites replays a cached 110-binding answer
// over a real connection: it must leave in at most three writes (the
// first binding, a full buffer, the rest), where one flush per binding
// made 111 or more, and the body must be exactly the per-binding lines
// in enumeration order followed by the done line.
func TestQueryStreamCoalescesWrites(t *testing.T) {
	s, ts := newUnstartedTestServer(t, hardSrc, hypo.Options{Mode: hypo.ModeUniform, CacheBytes: 1 << 20}, Config{})
	var writes atomic.Int64
	ts.Listener = countingListener{Listener: ts.Listener, writes: &writes}
	ts.Start()

	// Evaluating in-process fills the cache, so the request below is the
	// replay of a set already in memory.
	var bs []hypo.Binding
	_, err := s.def.Pool().Read(context.Background(), hypo.Request{Kind: hypo.ReadQuery, Query: "edge(X, Y)"}, func(b hypo.Binding) error {
		bs = append(bs, b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, b := range bs {
		_ = enc.Encode(bindingLine{Binding: b})
	}
	_ = enc.Encode(doneLine{Done: true, Count: len(bs)})

	resp, body := post(t, ts.Client(), ts.URL+"/v1/query", `{"query": "edge(X, Y)"}`)
	if resp.StatusCode != 200 || resp.Header.Get("X-Hdl-Cache") != "hit" {
		t.Fatalf("status %d, X-Hdl-Cache %q, want 200 hit", resp.StatusCode, resp.Header.Get("X-Hdl-Cache"))
	}
	if len(bs) != hardEdges {
		t.Fatalf("%d bindings, want %d", len(bs), hardEdges)
	}
	if string(body) != want.String() {
		t.Errorf("body differs from the per-binding encoding:\n got %q\nwant %q", body, want.String())
	}
	if n := writes.Load(); n > 3 {
		t.Errorf("%d connection writes for %d bindings, want <= 3", n, len(bs))
	}
}

// TestQueryClientGoneMidStream: a client that reads the first binding
// of a stream still being enumerated and then hangs up must end the
// request as 499 canceled, with nothing left running.
func TestQueryClientGoneMidStream(t *testing.T) {
	var logs syncBuffer
	// The query tries w's ground instances in domain order: w(c0) is a
	// fact and streams at once, w(c1) needs "yes", which runs to the
	// timeout.
	src := stuckSrc + "w(c0).\nw(X) :- link(X, X), yes.\n"
	_, ts := newTestServer(t, src, hypo.Options{Mode: hypo.ModeUniform},
		Config{Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	before := runtime.NumGoroutine()

	resp, err := ts.Client().Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(`{"query": "w(X)", "timeout": "30s"}`))
	if err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil || !strings.Contains(line, `"binding"`) {
		t.Fatalf("first line %q, err %v", line, err)
	}
	// Closing an unfinished body closes the connection.
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		var entry map[string]any
		for _, l := range strings.Split(logs.String(), "\n") {
			var e map[string]any
			if json.Unmarshal([]byte(l), &e) == nil && e["msg"] == "request" && e["endpoint"] == "query" {
				entry = e
			}
		}
		if entry != nil {
			if entry["status"] != float64(statusClientClosed) || entry["outcome"] != "canceled" {
				t.Errorf("access log: status %v outcome %v, want 499 canceled", entry["status"], entry["outcome"])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no access-log line 10s after the client left:\n%s", logs.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	ts.Client().Transport.(*http.Transport).CloseIdleConnections()
	waitGoroutines(t, before+8)
}
