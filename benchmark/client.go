package main

// The load generator: closed-loop clients on keep-alive loopback
// connections. During the window a client only sends, reads and
// timestamps; replies are kept raw and judged against the oracle after
// the window closes, so checking costs the daemon no CPU while it is
// being measured.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// result is one op as the client observed it.
type result struct {
	op      *op
	sent    time.Time
	rtt     time.Duration // send → full body
	first   time.Duration // query: send → first NDJSON line
	status  int
	cache   string // X-Hdl-Cache
	body    []byte
	err     error
	version uint64 // write: the acked version; read-your-write probe: the version demanded
}

func (r *result) end() time.Time { return r.sent.Add(r.rtt) }

type client struct {
	base string
	hc   *http.Client
	br   *bufio.Reader
	buf  bytes.Buffer
	// lastCommit is the version this client's latest write was acked at.
	lastCommit uint64
}

func newClient(addr string) *client {
	return &client{
		base: "http://" + addr,
		hc: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1},
		},
		br: bufio.NewReaderSize(nil, 16<<10),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

var opPath = [...]string{opAsk: "/v1/ask", opAskUnder: "/v1/askunder", opQuery: "/v1/query", opWrite: "/v1/facts"}

// requestBody is the JSON an op posts.
func requestBody(o *op) []byte {
	var v any
	switch o.Kind {
	case opAsk, opQuery:
		v = map[string]any{"query": o.Query}
	case opAskUnder:
		v = map[string]any{"query": o.Query, "add": o.Add}
	case opWrite:
		m := map[string]any{}
		if len(o.Assert) > 0 {
			m["assert"] = o.Assert
		}
		if len(o.Retract) > 0 {
			m["retract"] = o.Retract
		}
		v = m
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // strings and string slices always marshal
	}
	return b
}

// do sends one op and times it. Any transport error, non-200 status or
// malformed write ack lands in result.err; answers are judged later.
func (c *client) do(o *op, body []byte) result {
	r := result{op: o}
	req, err := http.NewRequest(http.MethodPost, c.base+opPath[o.Kind], bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	if o.AfterWrite {
		req.Header.Set("X-Hdl-Min-Version", strconv.FormatUint(c.lastCommit, 10))
		r.version = c.lastCommit
	}
	start := time.Now()
	r.sent = start
	resp, err := c.hc.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	c.br.Reset(resp.Body)
	c.buf.Reset()
	line, err := c.br.ReadSlice('\n')
	r.first = time.Since(start)
	c.buf.Write(line)
	if err == nil || err == bufio.ErrBufferFull {
		_, err = io.Copy(&c.buf, c.br)
	}
	r.rtt = time.Since(start)
	resp.Body.Close()
	if err != nil && err != io.EOF {
		r.err = fmt.Errorf("read body: %w", err)
		return r
	}
	r.status = resp.StatusCode
	r.cache = resp.Header.Get("X-Hdl-Cache")
	r.body = append([]byte(nil), c.buf.Bytes()...)
	if r.status != http.StatusOK {
		r.err = fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
		return r
	}
	if o.Kind == opWrite {
		var ack struct {
			Version uint64 `json:"version"`
			Changed int    `json:"changed"`
		}
		if err := json.Unmarshal(r.body, &ack); err != nil || ack.Changed == 0 {
			r.err = fmt.Errorf("bad write ack %q (err %v)", r.body, err)
			return r
		}
		r.version, c.lastCommit = ack.Version, ack.Version
	}
	return r
}

// bodies marshals every request of the lists ahead of the window.
func bodies(lists [][]op) [][][]byte {
	out := make([][][]byte, len(lists))
	for i, l := range lists {
		out[i] = make([][]byte, len(l))
		for j := range l {
			out[i][j] = requestBody(&l[j])
		}
	}
	return out
}

// replay runs the timed window: clients start together, each waits for
// its reply before sending again, and the window ends when the shared
// list (or W's list) is exhausted and every client has its last reply. It
// returns every result and the window's wall time.
// onCommit, when set, is called by the writer after its n-th commit ack.
func replay(addr string, w *workloadSpec, onCommit func(n int)) ([]result, time.Duration) {
	reqs := bodies(w.Lists)
	results := make([][]result, w.Clients)
	clients := make([]*client, w.Clients)
	for i := range clients {
		clients[i] = newClient(addr)
		defer clients[i].close()
	}
	var next atomic.Int64
	var writerDone atomic.Bool
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for ci := 0; ci < w.Clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := clients[ci]
			<-gate
			if len(w.Lists) == 1 { // shared list
				list := w.Lists[0]
				out := make([]result, 0, len(list)/w.Clients+1)
				for {
					i := int(next.Add(1)) - 1
					if i >= len(list) {
						break
					}
					out = append(out, c.do(&list[i], reqs[0][i]))
				}
				results[ci] = out
				return
			}
			list := w.Lists[ci]
			if ci == 1 { // R: cycle through the hot-set reads until W is done
				var out []result
				for i := 0; !writerDone.Load(); i++ {
					j := i % len(list)
					out = append(out, c.do(&list[j], reqs[1][j]))
				}
				results[ci] = out
				return
			}
			defer writerDone.Store(true)
			out := make([]result, 0, len(list))
			commits := 0
			for i := range list {
				r := c.do(&list[i], reqs[ci][i])
				out = append(out, r)
				if list[i].Kind == opWrite && r.err == nil && onCommit != nil {
					commits++
					onCommit(commits)
				}
			}
			results[ci] = out
		}(ci)
	}
	start := time.Now()
	close(gate)
	wg.Wait()
	wall := time.Since(start)
	var all []result
	for _, rs := range results {
		all = append(all, rs...)
	}
	return all, wall
}

// judge checks one result against the oracle and returns the reason it
// fails, or nil.
func judge(w *workloadSpec, r *result, memo map[[2]uint64]answer) error {
	if r.err != nil {
		return r.err
	}
	switch r.op.Kind {
	case opWrite:
		return nil // do already required a 200 ack with changed ≥ 1
	case opAsk, opAskUnder:
		var a struct {
			Result      *bool  `json:"result"`
			DataVersion uint64 `json:"dataVersion"`
		}
		if err := json.Unmarshal(r.body, &a); err != nil || a.Result == nil {
			return fmt.Errorf("malformed ask reply %q", r.body)
		}
		want, _, err := w.expect(r.op, a.DataVersion, memo)
		if err != nil {
			return err
		}
		if r.op.AfterWrite && a.DataVersion < r.version {
			return fmt.Errorf("read-your-write probe answered at version %d < committed %d", a.DataVersion, r.version)
		}
		if *a.Result != want {
			return fmt.Errorf("%s %s %v at version %d: got %v, oracle says %v", r.op.Kind, r.op.Query, r.op.Add, a.DataVersion, *a.Result, want)
		}
		return nil
	}
	// Query: binding lines then one done line.
	var got []string
	var done struct {
		Done        bool   `json:"done"`
		Count       int    `json:"count"`
		DataVersion uint64 `json:"dataVersion"`
	}
	for _, ln := range bytes.Split(bytes.TrimSpace(r.body), []byte("\n")) {
		var line struct {
			Binding map[string]string `json:"binding"`
			Done    bool              `json:"done"`
		}
		if err := json.Unmarshal(ln, &line); err != nil {
			return fmt.Errorf("malformed NDJSON line %q", ln)
		}
		if line.Done {
			if err := json.Unmarshal(ln, &done); err != nil {
				return err
			}
			continue
		}
		if done.Done || len(line.Binding) != 1 {
			return fmt.Errorf("unexpected NDJSON line %q", ln)
		}
		for _, v := range line.Binding {
			got = append(got, v)
		}
	}
	if !done.Done || done.Count != len(got) {
		return fmt.Errorf("query %s: stream ended without a matching done line (%d bindings)", r.op.Query, len(got))
	}
	_, want, err := w.expect(r.op, done.DataVersion, memo)
	if err != nil {
		return err
	}
	if r.op.AfterWrite && done.DataVersion < r.version {
		return fmt.Errorf("read-your-write probe answered at version %d < committed %d", done.DataVersion, r.version)
	}
	sort.Strings(got)
	if len(got) != len(want) {
		return fmt.Errorf("query %s at version %d: %d bindings, oracle says %d", r.op.Query, done.DataVersion, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("query %s at version %d: binding %s, oracle says %s", r.op.Query, done.DataVersion, got[i], want[i])
		}
	}
	return nil
}
