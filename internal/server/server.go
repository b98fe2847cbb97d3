// Package server serves hypothetical-Datalog queries over HTTP/JSON,
// backed by a registry of named programs (tenants), each with its own
// engine pool, live store, answer cache and admission quota. It is the
// network surface of the engine: the one-shot hdl CLI wraps an Engine,
// cmd/hdld wraps this package.
//
// # Endpoints
//
//   - POST /v1/ask       {"query": "grad(tony)"}                → {"result": true}
//   - POST /v1/query     {"query": "edge(X, Y)"}                → NDJSON binding stream
//   - POST /v1/askunder  {"query": "...", "add": ["fact(a)"]}   → {"result": bool}
//   - POST /v1/batch     {"queries": [{...}, ...]}              → per-item results, one engine lease
//   - POST /v1/explain   {"query": "grad(tony)"}                → {"provable": bool, "proof": "..."}
//   - POST /v1/facts     {"assert": [...], "retract": [...]}    → {"version": n} (needs a live store)
//   - GET  /healthz      liveness (always 200 while the process runs)
//   - GET  /readyz       readiness (503 once draining)
//   - GET  /debug/vars   expvar: "hypo" (default program) and "hypo_programs" (all)
//
// Every query endpoint also exists tenant-qualified as
// POST /v1/programs/{name}/ask (query, askunder, batch, explain,
// facts); the un-prefixed routes are aliases for the registry's
// default program, so single-program deployments keep working
// unchanged. The admin surface manages the registry itself:
//
//   - PUT    /v1/programs/{name}  {"program": "rules..."}  → create (201) or no-op (200)
//   - GET    /v1/programs/{name}                           → source + version
//   - DELETE /v1/programs/{name}                           → drain, close, remove state dir
//   - GET    /v1/programs                                  → list all programs
//
// # Admission control
//
// Admission is per tenant: at most one request per pool engine evaluates
// at once per program, with up to the registry's queue length more
// waiting for a slot (hdld -queue; default four times the pool size).
// Anything beyond that is shed immediately with 429 + Retry-After. One
// tenant saturating its queue cannot shed or slow another — each
// tenant's slots, queue, cache budget and metric set are private.
//
// # Error mapping
//
// Every failure surface has a distinct status: malformed JSON, bad
// queries and domain violations are 400; an over-long body is 413; an
// expired per-request deadline is 504; a goal-budget abort is 422; shed
// load is 429; an unknown program is 404; a conflicting PUT is 409; a
// draining or closed server is 503; a handler panic is 500. A client
// that disconnects mid-evaluation gets nothing (the nginx-style 499
// appears only in the access log).
package server

import (
	"context"
	"errors"
	"expvar"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	hypo "hypodatalog"
	"hypodatalog/internal/metrics"
	"hypodatalog/internal/repl"
	"hypodatalog/internal/tenant"
)

// statusClientClosed is the nginx convention for "client closed the
// connection before the response"; it is never sent on the wire, only
// logged.
const statusClientClosed = 499

// Config parameterises a Server. Provide Registry, the programs to
// serve; cmd/hdld builds a one-tenant static registry
// (tenant.NewStatic) for a single program. Admission width, queue
// length and quotas are the registry's: one evaluation slot per pool
// engine, per tenant.
type Config struct {
	// Registry holds the programs this server serves. It must already
	// contain its default tenant.
	Registry *tenant.Registry

	// Pool and Live, when Registry is nil, are wrapped into a static
	// registry with the default queue and no quotas. Live, when set,
	// enables POST /v1/facts and must be the Live whose Pool is Pool.
	// They stay only while benchmark/ladder.go builds its server this
	// way, and go when the ladder does.
	Pool *hypo.Pool
	Live *hypo.Live

	// DefaultTimeout is the per-request evaluation deadline when the
	// request has no "timeout" field. Default: 10s.
	DefaultTimeout time.Duration

	// MaxTimeout clamps the request-supplied "timeout". Default: 60s.
	MaxTimeout time.Duration

	// MaxBodyBytes caps the request body. Default: 1 MiB.
	MaxBodyBytes int64

	// Logger receives structured access and error logs. Default:
	// slog.Default().
	Logger *slog.Logger

	// Role names this node's replication role in logs and healthz:
	// "primary", "replica", or "" for a standalone server. Replication
	// always concerns the default program only.
	Role string

	// ReplPrimary, when set, mounts the replication endpoints
	// (GET /v1/repl/snapshot and /v1/repl/stream) so followers can
	// bootstrap and tail this node. Replication traffic bypasses
	// admission control: streams are long-lived and must not occupy — or
	// be shed from — query evaluation slots.
	ReplPrimary *repl.Primary

	// ReplicaStatus, when set, marks this server a tailing replica: it is
	// polled for healthz/readyz replication state, and reads carrying
	// X-Hdl-Min-Version ahead of the applied version wait for replication
	// to catch up (see MinVersionWait).
	ReplicaStatus func() repl.Status

	// PrimaryURL is the primary's base URL. On a replica, POST /v1/facts
	// is proxied there instead of being refused, so clients can write to
	// any node.
	PrimaryURL string

	// MinVersionWait bounds how long a read carrying X-Hdl-Min-Version
	// may wait for the local store to catch up before being refused with
	// 503 kind "stale". Default: 2s.
	MinVersionWait time.Duration

	// Metrics is the metric set server-level counters (and the static
	// registry built from Pool/Live) report into; nil means
	// metrics.Default.
	Metrics *metrics.Set
}

// Fixed serving limits.
const (
	// maxBatch caps the number of queries in one /v1/batch request.
	maxBatch = 256
	// retryAfter is the Retry-After hint, in whole seconds, on 429 and
	// 503 responses.
	retryAfter = "1"
	// proxyAttemptTimeout bounds each forwarded-write attempt to the
	// primary; the inbound request's own deadline still bounds the whole
	// exchange.
	proxyAttemptTimeout = 5 * time.Second
	// proxyRetries is how many extra attempts a proxied write gets after
	// a dial-level failure, where the request provably never reached the
	// primary, so retrying cannot double-commit.
	proxyRetries = 2
	// proxyBackoff is the base delay between proxy retries; attempt n
	// waits a jittered proxyBackoff<<n.
	proxyBackoff = 100 * time.Millisecond
	// proxyBreakerThreshold consecutive proxied-write transport failures
	// open the circuit breaker, which then fast-fails writes for
	// proxyBreakerCooldown before letting a half-open probe through.
	proxyBreakerThreshold = 5
	proxyBreakerCooldown  = 5 * time.Second
)

// proxyClient sends the proxied writes of every server.
var proxyClient = &http.Client{Timeout: 30 * time.Second}

// Server is the HTTP query server. Create it with New, mount Handler on
// an http.Server, and call BeginDrain when shutting down.
type Server struct {
	cfg  Config
	log  *slog.Logger
	mux  *http.ServeMux
	mets *metrics.Set
	reg  *tenant.Registry
	def  *tenant.Tenant // the default program (never deletable)

	// proxyBr circuit-breaks the replica→primary write proxy; always
	// built (it is inert on nodes that never proxy).
	proxyBr *breaker

	// maxBatch and proxyRetries start at the package constants; in-package
	// tests lower them.
	maxBatch     int
	proxyRetries int

	draining atomic.Bool
}

// New validates the config, fills in defaults, and builds the server.
func New(cfg Config) (*Server, error) {
	if cfg.Registry == nil && cfg.Pool == nil {
		return nil, errors.New("server: one of Config.Registry and Config.Pool is required")
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 10 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 60 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.MinVersionWait <= 0 {
		cfg.MinVersionWait = 2 * time.Second
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.Default
	}
	reg := cfg.Registry
	if reg == nil {
		reg = tenant.NewStatic("default", cfg.Pool, cfg.Live, cfg.Metrics, 0)
	}
	def := reg.Default()
	if def == nil {
		return nil, errors.New("server: registry has no default program (create it before serving)")
	}
	metrics.PublishExpvar()
	s := &Server{
		cfg:     cfg,
		log:     cfg.Logger,
		mux:     http.NewServeMux(),
		mets:    cfg.Metrics,
		reg:     reg,
		def:     def,
		proxyBr: newBreaker(proxyBreakerThreshold, proxyBreakerCooldown, cfg.Metrics),

		maxBatch:     maxBatch,
		proxyRetries: proxyRetries,
	}
	// Un-prefixed routes alias the default program.
	s.mux.HandleFunc("POST /v1/ask", s.wrap("ask", false, s.handleAsk))
	s.mux.HandleFunc("POST /v1/query", s.wrap("query", false, s.handleQuery))
	s.mux.HandleFunc("POST /v1/askunder", s.wrap("askunder", false, s.handleAskUnder))
	s.mux.HandleFunc("POST /v1/batch", s.wrap("batch", false, s.handleBatch))
	s.mux.HandleFunc("POST /v1/explain", s.wrap("explain", false, s.handleExplain))
	s.mux.HandleFunc("POST /v1/facts", s.wrap("facts", false, s.handleFacts))
	// Tenant-qualified routes.
	s.mux.HandleFunc("POST /v1/programs/{name}/ask", s.wrap("ask", true, s.handleAsk))
	s.mux.HandleFunc("POST /v1/programs/{name}/query", s.wrap("query", true, s.handleQuery))
	s.mux.HandleFunc("POST /v1/programs/{name}/askunder", s.wrap("askunder", true, s.handleAskUnder))
	s.mux.HandleFunc("POST /v1/programs/{name}/batch", s.wrap("batch", true, s.handleBatch))
	s.mux.HandleFunc("POST /v1/programs/{name}/explain", s.wrap("explain", true, s.handleExplain))
	s.mux.HandleFunc("POST /v1/programs/{name}/facts", s.wrap("facts", true, s.handleFacts))
	// Admin surface: the registry itself.
	s.mux.HandleFunc("GET /v1/programs", s.wrapAdmin("programs_list", s.handleProgramsList))
	s.mux.HandleFunc("PUT /v1/programs/{name}", s.wrapAdmin("program_put", s.handleProgramPut))
	s.mux.HandleFunc("GET /v1/programs/{name}", s.wrapAdmin("program_get", s.handleProgramGet))
	s.mux.HandleFunc("DELETE /v1/programs/{name}", s.wrapAdmin("program_delete", s.handleProgramDelete))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	if cfg.ReplPrimary != nil {
		// Unwrapped: replication streams are long-lived infrastructure
		// traffic, not query requests — no admission slot, no per-request
		// access-log line (the repl package logs lifecycle events).
		cfg.ReplPrimary.Mount(s.mux)
	}
	return s, nil
}

// Handler returns the root handler with all routes mounted.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the registry the server serves from.
func (s *Server) Registry() *tenant.Registry { return s.reg }

// BeginDrain flips the server into draining mode: /readyz starts
// failing (so load balancers stop routing here), new API requests are
// refused with 503, and requests queued for an evaluation slot are woken
// and refused likewise — on every tenant. In-flight evaluations are NOT
// interrupted — cancel their base context after a grace period to force
// them out (see cmd/hdld). BeginDrain is idempotent.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.reg.BeginDrain()
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Admission errors (mapped to statuses in refuse). Aliases of the
// tenant package's errors — admission is per tenant now.
var (
	errShed     = tenant.ErrShed
	errDraining = tenant.ErrDraining
)

// reqInfo accumulates access-log fields as one request progresses
// through decode, admission and evaluation.
type reqInfo struct {
	endpoint    string
	program     string           // tenant the request resolved to (or asked for)
	query       string           // surface query text (first of a batch)
	outcome     string           // ok | bad_request | deadline | canceled | shed | draining | budget | panic | ...
	status      int              // overrides the written status in logs (e.g. 499)
	bindings    int              // bindings streamed / results returned
	stats       hypo.Stats       // evaluation-work delta for this request
	dataVersion uint64           // data version the request evaluated at (or produced)
	cache       hypo.CacheStatus // how the answer cache served this read
	minVersion  uint64           // X-Hdl-Min-Version the client demanded (0 if absent)
}

// wrap is the middleware around every query handler: tenant resolution
// (the {name} path segment, or the default program for un-prefixed
// routes), request counting on the resolved tenant's metric set, a
// status-recording writer, panic-to-500 recovery, and one structured
// access-log line per request with the program, query, outcome, latency
// and the evaluation-work stats delta.
func (s *Server) wrap(endpoint string, named bool, h func(http.ResponseWriter, *http.Request, *reqInfo, *tenant.Tenant)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var t *tenant.Tenant
		if named {
			t, _ = s.reg.Get(r.PathValue("name"))
		} else {
			t = s.def
		}
		if t != nil {
			t.Metrics().HTTPRequests.Inc()
		} else {
			s.mets.HTTPRequests.Inc()
		}
		sw := &statusWriter{ResponseWriter: w}
		ri := &reqInfo{endpoint: endpoint}
		if t != nil {
			ri.program = t.Name()
		} else {
			ri.program = r.PathValue("name")
		}
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				// The engine (if any was leased) is already back on the
				// pool's free list: Pool.Do and the Pool query methods
				// return it in a defer that runs before this one.
				ri.outcome = "panic"
				s.log.Error("handler panic",
					"endpoint", endpoint, "program", ri.program,
					"panic", p, "stack", string(debug.Stack()))
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError, "internal", "internal server error")
				}
			}
			status := ri.status
			if status == 0 {
				status = sw.status
			}
			if status == 0 {
				status = http.StatusOK
			}
			if ri.outcome == "" {
				ri.outcome = "ok"
			}
			s.log.Info("request",
				"endpoint", endpoint,
				"program", ri.program,
				"status", status,
				"outcome", ri.outcome,
				"query", ri.query,
				"elapsed_ms", float64(time.Since(start).Microseconds())/1000,
				"bindings", ri.bindings,
				"goals", ri.stats.Goals,
				"enumerated", ri.stats.Enumerated,
				"table_hits", ri.stats.TableHits,
				"max_depth", ri.stats.MaxDepth,
				"materialisations", ri.stats.Materialisations,
				"derived_models", ri.stats.DerivedModels,
				"data_version", ri.dataVersion,
				"cache", ri.cache.String(),
				"role", s.cfg.Role,
				"min_version", ri.minVersion,
			)
		}()
		if t == nil {
			ri.outcome = "unknown_program"
			writeError(sw, http.StatusNotFound, "unknown_program",
				"no program named "+strconv.Quote(r.PathValue("name"))+" (PUT /v1/programs/{name} creates one)")
			return
		}
		h(sw, r, ri, t)
	}
}

// wrapAdmin is the wrap variant for registry-admin handlers: same
// logging and panic recovery, no tenant resolution (the handler manages
// tenants itself), counters on the server's own metric set.
func (s *Server) wrapAdmin(endpoint string, h func(http.ResponseWriter, *http.Request, *reqInfo)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.mets.HTTPRequests.Inc()
		sw := &statusWriter{ResponseWriter: w}
		ri := &reqInfo{endpoint: endpoint, program: r.PathValue("name")}
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				ri.outcome = "panic"
				s.log.Error("handler panic",
					"endpoint", endpoint, "program", ri.program,
					"panic", p, "stack", string(debug.Stack()))
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError, "internal", "internal server error")
				}
			}
			status := ri.status
			if status == 0 {
				status = sw.status
			}
			if status == 0 {
				status = http.StatusOK
			}
			if ri.outcome == "" {
				ri.outcome = "ok"
			}
			s.log.Info("request",
				"endpoint", endpoint,
				"program", ri.program,
				"status", status,
				"outcome", ri.outcome,
				"elapsed_ms", float64(time.Since(start).Microseconds())/1000,
			)
		}()
		h(sw, r, ri)
	}
}

// refuse writes the response for an admission failure.
func (s *Server) refuse(w http.ResponseWriter, ri *reqInfo, err error) {
	retry := retryAfter
	switch {
	case errors.Is(err, errShed):
		ri.outcome = "shed"
		w.Header().Set("Retry-After", retry)
		writeError(w, http.StatusTooManyRequests, "shed",
			"program at capacity: evaluation slots and admission queue are full")
	case errors.Is(err, tenant.ErrOverMemory):
		ri.outcome = "over_memory"
		w.Header().Set("Retry-After", retry)
		writeError(w, http.StatusServiceUnavailable, "over_memory",
			"program over its memory quota: "+err.Error())
	case errors.Is(err, errDraining), errors.Is(err, hypo.ErrPoolClosed):
		ri.outcome = "draining"
		w.Header().Set("Retry-After", retry)
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining")
	case errors.Is(err, context.DeadlineExceeded):
		ri.outcome = "deadline"
		writeError(w, http.StatusGatewayTimeout, "deadline",
			"request deadline expired while waiting for an evaluation slot")
	default: // context.Canceled: the client went away while queued
		ri.outcome = "canceled"
		ri.status = statusClientClosed
	}
}

// statusWriter records the status and whether anything was written.
// Unwrap lets http.ResponseController reach net/http's own writer, whose
// Flush reports a client that went away.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.status = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
