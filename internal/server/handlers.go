package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	hypo "hypodatalog"
	"hypodatalog/internal/live"
	"hypodatalog/internal/tenant"
)

// errClientWrite marks a failed write to the response stream: the client
// went away mid-stream. It is logged as 499, never sent.
var errClientWrite = errors.New("server: client write failed")

// askRequest is the body of /v1/ask and /v1/askunder. Timeout is a Go
// duration string ("250ms", "2s") bounding evaluation; it is clamped to
// Config.MaxTimeout and defaults to Config.DefaultTimeout.
type askRequest struct {
	Query   string   `json:"query"`
	Add     []string `json:"add,omitempty"`
	Timeout string   `json:"timeout,omitempty"`
}

// queryRequest is the body of /v1/query.
type queryRequest struct {
	Query   string `json:"query"`
	Timeout string `json:"timeout,omitempty"`
}

// errorLine is the body of every error response, and the terminal line
// of a /v1/query stream that aborted after its first binding; the lines
// before it, and the done line that ends a stream that did not abort,
// are appended by hand (lines.go).
type errorLine struct {
	Error errorBody `json:"error"`
}

// batchRequest is the body of /v1/batch: many queries evaluated on one
// engine lease, in order. Kind selects the operation: "ask" (default),
// "query", or "askunder" (which uses Add).
type batchRequest struct {
	Queries []batchItem `json:"queries"`
	Timeout string      `json:"timeout,omitempty"`
}

type batchItem struct {
	Kind  string   `json:"kind,omitempty"`
	Query string   `json:"query"`
	Add   []string `json:"add,omitempty"`
}

// batchResult is one per-item outcome: exactly one of Result (ask,
// askunder), Bindings (query) or Error is set. Item errors do not fail
// the batch — except evaluation aborts (deadline, cancellation), which
// stop it and mark the remaining items with kind "skipped".
type batchResult struct {
	Result   *bool          `json:"result,omitempty"`
	Bindings []hypo.Binding `json:"bindings,omitempty"`
	Error    *errorBody     `json:"error,omitempty"`
}

type batchResponse struct {
	Results     []batchResult `json:"results"`
	DataVersion uint64        `json:"dataVersion"`
}

// factsRequest is the body of /v1/facts: a transactional mutation batch
// against the base EDB. Asserts apply before retracts within the batch;
// the whole batch is one new data version or nothing.
type factsRequest struct {
	Assert  []string `json:"assert,omitempty"`
	Retract []string `json:"retract,omitempty"`
}

// factsResponse acknowledges a committed batch. By the time the client
// reads it, the commit is fsynced to the WAL and every subsequently
// admitted query evaluates at Version or later.
type factsResponse struct {
	Version uint64 `json:"version"`
	// Changed counts the mutations that altered the fact set (asserting a
	// present fact or retracting an absent one is a committed no-op).
	Changed int `json:"changed"`
}

type errorBody struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, kind, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorLine{Error: errorBody{Kind: kind, Message: msg}})
}

// decode reads the size-capped JSON body into v, answering 413 for an
// over-long body and 400 for anything else malformed — including
// anything but whitespace after the object, which would otherwise be
// dropped unread (a second {"retract": ...} batch, say).
func (s *Server) decode(w http.ResponseWriter, r *http.Request, ri *reqInfo, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if err == nil || !errors.As(err, new(*http.MaxBytesError)) {
			err = errors.New("trailing data after the JSON object")
		}
	}
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			ri.outcome = "too_large"
			writeError(w, http.StatusRequestEntityTooLarge, "too_large",
				fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return false
		}
		ri.outcome = "bad_request"
		writeError(w, http.StatusBadRequest, "bad_request", "malformed request: "+err.Error())
		return false
	}
	return true
}

// timeoutFor resolves a request's evaluation deadline: the parsed
// "timeout" field if present, else the default, clamped to the max.
func (s *Server) timeoutFor(spec string) (time.Duration, error) {
	d := s.cfg.DefaultTimeout
	if spec != "" {
		var err error
		d, err = time.ParseDuration(spec)
		if err != nil {
			return 0, fmt.Errorf("bad timeout %q: %v", spec, err)
		}
		if d <= 0 {
			return 0, fmt.Errorf("bad timeout %q: must be positive", spec)
		}
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d, nil
}

// admit is the shared prologue of every evaluating handler, run once the
// body is decoded and validated: it resolves the request's deadline,
// enforces X-Hdl-Min-Version (before admission — a request parked on
// replication lag must not hold an evaluation slot) and takes a slot on
// the tenant's admission quota. When ok is false the response has been
// written; otherwise the caller must defer done.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, ri *reqInfo, t *tenant.Tenant, timeout string) (ctx context.Context, done func(), ok bool) {
	d, err := s.timeoutFor(timeout)
	if err != nil {
		ri.outcome = "bad_request"
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return nil, nil, false
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	if !s.gateMinVersion(ctx, w, r, ri, t) {
		cancel()
		return nil, nil, false
	}
	release, err := t.Admit(ctx)
	if err != nil {
		cancel()
		s.refuse(w, ri, err)
		return nil, nil, false
	}
	return ctx, func() { release(); cancel() }, true
}

// classify maps an evaluation error to its HTTP status, error kind and
// log outcome. The boolean reports whether a response should be written
// at all (false for client-gone cases).
func classify(err error) (status int, kind string, write bool) {
	switch {
	case errors.Is(err, errClientWrite), errors.Is(err, hypo.ErrCanceled),
		errors.Is(err, context.Canceled):
		return statusClientClosed, "canceled", false
	case errors.Is(err, hypo.ErrDeadline), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline", true
	case errors.Is(err, hypo.ErrMemory):
		return http.StatusUnprocessableEntity, "memory", true
	case errors.Is(err, hypo.ErrBudget):
		return http.StatusUnprocessableEntity, "budget", true
	case errors.Is(err, hypo.ErrPoolClosed):
		return http.StatusServiceUnavailable, "draining", true
	default:
		return http.StatusBadRequest, "bad_request", true
	}
}

// evalError answers a failed evaluation. The access log already holds the
// read's work, which an aborted read reports as its AbortError does.
func (s *Server) evalError(w http.ResponseWriter, ri *reqInfo, err error) {
	status, kind, write := classify(err)
	ri.outcome = kind
	if !write {
		ri.status = status
		return
	}
	writeError(w, status, kind, err.Error())
}

func (s *Server) handleAsk(w http.ResponseWriter, r *http.Request, ri *reqInfo, t *tenant.Tenant) {
	var req askRequest
	if !s.decode(w, r, ri, &req) {
		return
	}
	ri.query = req.Query
	if len(req.Add) > 0 {
		ri.outcome = "bad_request"
		writeError(w, http.StatusBadRequest, "bad_request", errAddNotAskUnder)
		return
	}
	s.answerAsk(w, r, ri, t, req)
}

// errAddNotAskUnder refuses outer adds on an ask or query, on its own
// endpoint and as a batch item alike.
const errAddNotAskUnder = `"add" is for /v1/askunder`

func (s *Server) handleAskUnder(w http.ResponseWriter, r *http.Request, ri *reqInfo, t *tenant.Tenant) {
	var req askRequest
	if !s.decode(w, r, ri, &req) {
		return
	}
	ri.query = req.Query
	s.answerAsk(w, r, ri, t, req)
}

// answerAsk evaluates a ground ask (optionally under hypothetical adds)
// and answers {"result": bool}. It reads through the pool so the answer
// cache sits above the engine lease: a hit or coalesced read still takes
// an admission slot (it is HTTP work) but no engine.
func (s *Server) answerAsk(w http.ResponseWriter, r *http.Request, ri *reqInfo, t *tenant.Tenant, req askRequest) {
	ctx, done, ok := s.admit(w, r, ri, t, req.Timeout)
	if !ok {
		return
	}
	defer done()
	// An askunder without adds is a plain ask, and shares its cache entry.
	read := hypo.Request{Kind: hypo.ReadAsk, Query: req.Query}
	if len(req.Add) > 0 {
		read = hypo.Request{Kind: hypo.ReadAskUnder, Query: req.Query, Add: req.Add}
	}
	var result bool
	info, err := t.Pool().Read(ctx, read, func(hypo.Binding) error {
		result = true
		return nil
	})
	ri.dataVersion = info.DataVersion
	ri.stats = info.Stats
	ri.cache = info.Cache
	if err != nil {
		s.evalError(w, ri, err)
		return
	}
	setCacheHeader(w, info.Cache)
	w.Header().Set("Content-Type", "application/json")
	buf := lineBufs.Get().(*[]byte)
	defer lineBufs.Put(buf)
	*buf = appendAskResponse((*buf)[:0], result, info.DataVersion)
	_, _ = w.Write(*buf)
}

// setCacheHeader surfaces how the answer cache served the request. The
// header is absent when no cache is configured.
func setCacheHeader(w http.ResponseWriter, st hypo.CacheStatus) {
	if st != hypo.CacheBypass {
		w.Header().Set("X-Hdl-Cache", st.String())
	}
}

// handleQuery streams bindings as NDJSON: one {"binding": {...}} line
// per answer as it is proved, then a terminal {"done": true, "count": n}
// line — or an {"error": ...} line if evaluation aborted after the
// stream began. Errors before the first binding use a proper HTTP
// status instead. Lines go out as streamWriter flushes them: the first
// at once, later ones at most streamFlushDelay after they were written.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, ri *reqInfo, t *tenant.Tenant) {
	var req queryRequest
	if !s.decode(w, r, ri, &req) {
		return
	}
	ri.query = req.Query
	ctx, done, ok := s.admit(w, r, ri, t, req.Timeout)
	if !ok {
		return
	}
	defer done()

	sw := newStreamWriter(w)
	// Deferred too so that a panic cannot leave an armed timer flushing
	// a ResponseWriter whose handler has returned.
	defer sw.stop()
	buf := lineBufs.Get().(*[]byte)
	defer lineBufs.Put(buf)
	n := 0
	var info hypo.ReadInfo
	// Read sets info's DataVersion and Cache before the first yield, so
	// the headers can go out ahead of the stream.
	_, err := t.Pool().Read(ctx, hypo.Request{Kind: hypo.ReadQuery, Query: req.Query, Info: &info}, func(b hypo.Binding) error {
		if n == 0 {
			setCacheHeader(w, info.Cache)
			w.Header().Set("Content-Type", "application/x-ndjson")
		}
		*buf = appendBindingLine((*buf)[:0], b)
		if _, err := sw.Write(*buf); err != nil {
			return fmt.Errorf("%w: %v", errClientWrite, err)
		}
		n++
		return nil
	})
	// The terminal line is not flushed early: it leaves with whatever is
	// still buffered when the handler returns.
	sw.stop()
	ri.bindings = n
	ri.dataVersion = info.DataVersion
	ri.stats = info.Stats
	ri.cache = info.Cache
	if err != nil {
		if n == 0 {
			s.evalError(w, ri, err)
			return
		}
		// The stream is already under way as a 200; report the abort
		// in-band as the terminal line.
		_, kind, write := classify(err)
		ri.outcome = kind
		if write {
			_ = json.NewEncoder(sw).Encode(errorLine{Error: errorBody{Kind: kind, Message: err.Error()}})
		} else {
			ri.status = statusClientClosed
		}
		return
	}
	if n == 0 {
		setCacheHeader(w, info.Cache)
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	*buf = appendDoneLine((*buf)[:0], n, info.DataVersion)
	if _, err := sw.Write(*buf); err != nil {
		// Writing or flushing the last bindings failed: the client left
		// after the enumeration's final yield.
		ri.outcome = "canceled"
		ri.status = statusClientClosed
	}
}

// streamFlushDelay bounds how long a streamed line waits in net/http's
// buffer for company before it is flushed. It is far below what a
// client notices and far above the microseconds a cache hit or a fast
// enumeration takes to produce its whole answer, so those leave in two
// writes instead of one per binding.
const streamFlushDelay = 2 * time.Millisecond

// streamWriter coalesces the flushes of one NDJSON stream. The first
// line is flushed at once, so time to first binding does not wait on
// the delay. A later line arms a one-shot timer if none is armed, and
// the timer flushes whatever is buffered by then; net/http also writes
// when its buffer fills, and when the handler returns. Writes and the
// timer's flush hold mu, and once stop returns no flush touches the
// ResponseWriter again, so the handler may return. Writes after stop
// pass straight through, unflushed.
//
// A failed write or flush — the client went away — is recorded, and
// every later Write returns it, so the enumeration stops at its next
// binding as it did when each binding was flushed in place.
type streamWriter struct {
	w     http.ResponseWriter
	rc    *http.ResponseController
	delay time.Duration // streamFlushDelay; tests lengthen it

	mu      sync.Mutex
	timer   *time.Timer
	started bool  // the first line has been written (and flushed)
	pending bool  // a line is buffered and the timer is armed for it
	stopped bool  // no flush happens any more
	err     error // the first failed write or flush
}

func newStreamWriter(w http.ResponseWriter) *streamWriter {
	return &streamWriter{w: w, rc: http.NewResponseController(w), delay: streamFlushDelay}
}

func (s *streamWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return 0, s.err
	}
	n, err := s.w.Write(p)
	if err != nil {
		s.err = err
		return n, err
	}
	switch {
	case s.stopped || s.pending:
	case !s.started:
		s.started = true
		s.flushLocked()
	case s.timer == nil:
		s.pending = true
		s.timer = time.AfterFunc(s.delay, s.timedFlush)
	default:
		s.pending = true
		s.timer.Reset(s.delay)
	}
	return n, nil
}

func (s *streamWriter) timedFlush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending && !s.stopped {
		s.flushLocked()
	}
}

func (s *streamWriter) flushLocked() {
	s.pending = false
	if err := s.rc.Flush(); err != nil && s.err == nil {
		s.err = err
	}
}

// stop ends flushing: after it returns, no timer will touch the
// ResponseWriter. It is idempotent.
func (s *streamWriter) stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopped = true
	if s.timer != nil {
		s.timer.Stop()
	}
}

// handleBatch evaluates many queries on a single engine lease — one
// admission slot, no interleaving with other traffic, warm memo tables
// shared across the items. The response is always 200 with per-item
// results once evaluation starts; an abort (deadline, cancellation)
// stops the batch, reports itself on the item it hit, and marks the
// rest "skipped".
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, ri *reqInfo, t *tenant.Tenant) {
	var req batchRequest
	if !s.decode(w, r, ri, &req) {
		return
	}
	if len(req.Queries) == 0 {
		ri.outcome = "bad_request"
		writeError(w, http.StatusBadRequest, "bad_request", `"queries" must be non-empty`)
		return
	}
	if len(req.Queries) > s.maxBatch {
		ri.outcome = "bad_request"
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("batch of %d exceeds the %d-query limit", len(req.Queries), s.maxBatch))
		return
	}
	ri.query = req.Queries[0].Query
	ctx, done, ok := s.admit(w, r, ri, t, req.Timeout)
	if !ok {
		return
	}
	defer done()

	results := make([]batchResult, len(req.Queries))
	err := t.Pool().Do(ctx, func(e *hypo.Engine) error {
		ri.dataVersion = e.DataVersion()
		before, depth := e.Stats(), 0
		defer func() {
			// The ledger's depth is the engine's lifetime maximum; the
			// batch's is the deepest of its reads' own.
			ri.stats = e.Stats().Sub(before)
			ri.stats.MaxDepth = depth
		}()
		for i, item := range req.Queries {
			res, d, abort := evalBatchItem(ctx, e, item)
			results[i], depth = res, max(depth, d)
			if abort != nil {
				for j := i + 1; j < len(req.Queries); j++ {
					results[j] = batchResult{Error: &errorBody{
						Kind: "skipped", Message: "not evaluated: batch aborted earlier",
					}}
				}
				// Client gone: stop and close without a body.
				if _, _, write := classify(abort); !write {
					return abort
				}
				break
			}
		}
		return nil
	})
	if err != nil {
		s.evalError(w, ri, err)
		return
	}
	ri.bindings = len(results)
	writeJSON(w, batchResponse{Results: results, DataVersion: ri.dataVersion})
}

// batchKinds maps a batch item's kind to its read.
var batchKinds = map[string]hypo.ReadKind{"ask": hypo.ReadAsk, "askunder": hypo.ReadAskUnder, "query": hypo.ReadQuery}

// evalBatchItem runs one batch entry on the leased engine and reports its
// read's deepest proof stack. Item-level problems (bad query, unknown
// kind, budget) land in the result; an abort is also returned so the
// batch stops.
func evalBatchItem(ctx context.Context, e *hypo.Engine, item batchItem) (batchResult, int, error) {
	kind := item.Kind
	if kind == "" {
		kind = "ask"
	}
	var res batchResult
	var info hypo.ReadInfo
	var err error
	rk, known := batchKinds[kind]
	switch {
	case !known:
		err = fmt.Errorf("unknown kind %q (want ask, query or askunder)", kind)
	case rk != hypo.ReadAskUnder && len(item.Add) > 0:
		err = errors.New(errAddNotAskUnder)
	case rk == hypo.ReadQuery:
		res.Bindings = []hypo.Binding{}
		info, err = e.Read(ctx, hypo.Request{Kind: rk, Query: item.Query}, func(b hypo.Binding) error {
			res.Bindings = append(res.Bindings, b)
			return nil
		})
	default:
		ok := false
		info, err = e.Read(ctx, hypo.Request{Kind: rk, Query: item.Query, Add: item.Add}, func(hypo.Binding) error {
			ok = true
			return nil
		})
		res.Result = &ok
	}
	if err != nil {
		res = batchResult{}
		_, ekind, _ := classify(err)
		res.Error = &errorBody{Kind: ekind, Message: err.Error()}
		if errors.Is(err, hypo.ErrCanceled) || errors.Is(err, hypo.ErrDeadline) {
			return res, info.Stats.MaxDepth, err
		}
	}
	return res, info.Stats.MaxDepth, nil
}

// handleFacts commits a mutation batch against the live store. It does
// not take an evaluation slot — commits serialise inside Live.Apply and
// never lease an engine — but a draining server refuses new writes like
// it refuses new queries.
func (s *Server) handleFacts(w http.ResponseWriter, r *http.Request, ri *reqInfo, t *tenant.Tenant) {
	if s.cfg.Role == "replica" && s.cfg.PrimaryURL != "" && t == s.def {
		// Replicas never commit locally — their store is written only by
		// the replication stream. Forward the write so clients can talk to
		// any node.
		if s.draining.Load() {
			s.refuse(w, ri, errDraining)
			return
		}
		s.proxyFacts(w, r, ri)
		return
	}
	if t.Live() == nil {
		ri.outcome = "not_enabled"
		writeError(w, http.StatusNotImplemented, "not_enabled",
			"runtime fact mutation is disabled: start the server with a WAL (hdld -wal)")
		return
	}
	if s.draining.Load() || t.Draining() {
		s.refuse(w, ri, errDraining)
		return
	}
	if err := t.CheckDiskQuota(); err != nil {
		// Disk quota gates only the write path: reads (and retractions'
		// eventual compaction) keep working, so the right client move is
		// to retract or wait for compaction, then retry.
		ri.outcome = "over_disk"
		w.Header().Set("Retry-After", retryAfter)
		writeError(w, http.StatusServiceUnavailable, "over_disk", err.Error())
		return
	}
	var req factsRequest
	if !s.decode(w, r, ri, &req) {
		return
	}
	if len(req.Assert)+len(req.Retract) == 0 {
		ri.outcome = "bad_request"
		writeError(w, http.StatusBadRequest, "bad_request",
			`at least one of "assert" and "retract" must be non-empty`)
		return
	}
	if n := len(req.Assert); n > 0 {
		ri.query = req.Assert[0]
	} else {
		ri.query = req.Retract[0]
	}
	ms, err := hypo.ParseMutations(req.Assert, req.Retract)
	if err != nil {
		ri.outcome = "bad_request"
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	info, err := t.Live().Apply(ms)
	if err != nil {
		if errors.Is(err, live.ErrClosed) {
			ri.outcome = "draining"
			writeError(w, http.StatusServiceUnavailable, "draining", "live store is closed")
			return
		}
		// A degraded store refuses writes but keeps serving reads; the
		// machine-readable kind lets clients fail over their write path
		// without abandoning this replica for queries.
		if errors.Is(err, live.ErrReadOnly) {
			ri.outcome = "read_only"
			writeError(w, http.StatusServiceUnavailable, "read_only", err.Error())
			return
		}
		ri.outcome = "bad_request"
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	ri.dataVersion = info.Version
	ri.bindings = info.Changed
	writeJSON(w, factsResponse{Version: info.Version, Changed: info.Changed})
}

// handleHealthz reports liveness. A server whose store degraded to
// read-only is still alive — it answers queries at the last committed
// version — so the response stays 200, with status "degraded" and a
// machine-readable reason for operators and write-path routers. The
// top-level status/dataVersion describe the default program (the legacy
// single-program shape); the "programs" map adds the same per tenant.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{"ok": true, "status": "ok", "dataVersion": s.def.Version()}
	if s.cfg.Role != "" {
		resp["role"] = s.cfg.Role
	}
	if degraded, cause := s.def.Degraded(); degraded {
		resp["status"] = "degraded"
		resp["reason"] = "read_only"
		resp["detail"] = cause
		if s.def.Recovering() {
			// A background prober is retrying the write path (transient
			// cause, e.g. a full disk); writes may come back without a
			// restart. Sticky corruption shows no recovering flag.
			resp["recovering"] = true
		}
	}
	programs := make(map[string]any)
	for _, t := range s.reg.List() {
		// Each program reports its own degraded/read-only state, not just
		// the default's: a write-path router watching healthz must see
		// which tenants refuse writes.
		st := "ok"
		var detail string
		if degraded, cause := t.Degraded(); degraded {
			st, detail = "degraded", cause
		}
		if t.Draining() {
			st = "draining"
		}
		p := map[string]any{"status": st, "dataVersion": t.Version()}
		if detail != "" {
			p["reason"] = "read_only"
			p["detail"] = detail
			if t.Recovering() {
				p["recovering"] = true
			}
		}
		programs[t.Name()] = p
	}
	resp["programs"] = programs
	if s.cfg.ReplicaStatus != nil {
		st := s.cfg.ReplicaStatus()
		repl := map[string]any{
			"connected":      st.Connected,
			"applied":        st.Applied,
			"primaryVersion": st.Primary,
			"lag":            st.Lag(),
			"bootstraps":     st.Bootstraps,
			"reconnects":     st.Reconnects,
		}
		if st.LastError != "" {
			repl["lastError"] = st.LastError
		}
		resp["replication"] = repl
		if !st.Connected && resp["status"] == "ok" {
			// Still serving (at the applied version) but no longer tracking
			// the primary — the operator signal that this follower is adrift.
			resp["status"] = "degraded"
			resp["reason"] = "repl_disconnected"
		}
	}
	writeJSON(w, resp)
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]bool{"ready": false, "draining": true})
		return
	}
	if s.cfg.ReplicaStatus != nil {
		// A replica that has never caught up to its primary serves stale —
		// possibly empty — data; keep it out of the load balancer until the
		// first sync completes. Ready is sticky, so transient lag afterwards
		// does not flap readiness (min-version gating handles per-request
		// freshness).
		if st := s.cfg.ReplicaStatus(); !st.Ready {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(map[string]bool{"ready": false, "syncing": true})
			return
		}
	}
	writeJSON(w, map[string]bool{"ready": true})
}
