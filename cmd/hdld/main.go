// Command hdld is the hypothetical-Datalog query daemon: it loads one
// program and serves queries against it over HTTP/JSON (see
// internal/server for the API and curl examples in the README).
//
// Usage:
//
//	hdld [flags] program.hdl [more.hdl ...]
//
// Flags:
//
//	-addr a         listen address (default :8080; use 127.0.0.1:0 for an ephemeral port)
//	-debug-addr a   serve the net/http/pprof profiles under /debug/pprof/
//	                on this separate listener, never on -addr (default
//	                empty = off); it closes with the drain
//	-mode m         auto | uniform | cascade (default auto)
//	-pool n         engine pool size = max concurrent evaluations (0 = GOMAXPROCS)
//	-queue n        admission queue beyond the pool (0 = 4 × pool)
//	-max n          per-query goal budget (0 = unlimited)
//	-max-memory n   per-query memory budget in bytes: a query whose memo
//	                tables, interner and hypothesis growth exceed it
//	                aborts with 422 kind "memory" (0 = unlimited)
//	-tenant-memory-quota n  per-program memory ceiling in bytes: past it,
//	                idle engines are trimmed, then requests shed with
//	                503 "over_memory" (0 = unlimited)
//	-tenant-disk-quota n  per-program WAL+snapshot ceiling in bytes:
//	                past it, writes answer 503 "over_disk" while reads
//	                keep serving (0 = unlimited)
//	-cache-bytes n  versioned answer cache budget in bytes (0 = disabled);
//	                repeated identical queries at one data version are
//	                served from memory and concurrent identical misses
//	                coalesce onto one evaluation (X-Hdl-Cache: hit|miss|coalesced)
//	-timeout d      default per-request evaluation deadline (default 10s)
//	-max-timeout d  clamp on request-supplied timeouts (default 60s)
//	-max-body n     request body cap in bytes (default 1 MiB)
//	-drain d        grace period for in-flight queries on SIGTERM/SIGINT
//	                before their contexts are canceled (default 10s)
//	-log f          access-log format: json | text (default json)
//	-wal FILE       enable the live EDB: mutations from POST /v1/facts are
//	                WAL-logged here and replayed on restart
//	-snapshot FILE  compact the fact set into this HDLSNAP file (loaded in
//	                preference to the program's facts on startup)
//	-snapshot-every n  compact after n commits (default 1024; 0 = only on
//	                clean shutdown)
//	-role r         replication role: primary | replica (default standalone)
//	-primary URL    the primary's base URL (required with -role replica;
//	                writes landing on the replica proxy there)
//	-replicate-addr a  serve the replication endpoints on a separate
//	                listener instead of -addr (primary only)
//	-min-version-wait d  longest a read carrying X-Hdl-Min-Version waits
//	                for replication before 503 "stale" (default 2s)
//	-programs-dir DIR  serve many programs from one daemon: each tenant
//	                lives in DIR/<name>/ (program.hdl + wal.log +
//	                snapshot.hdlsnap), every tenant found on disk is
//	                recovered before the listener opens, and the admin
//	                API (PUT|GET|DELETE /v1/programs/{name}) manages
//	                them at runtime. Incompatible with -wal, -snapshot
//	                and -role (replication is single-program).
//	-default-program NAME  the tenant the un-prefixed /v1/* routes alias
//	                (default "default"; only meaningful with -programs-dir)
//
// With -role primary the daemon streams its WAL to followers
// (GET /v1/repl/snapshot + /v1/repl/stream); with -role replica it tails
// the primary at -primary, applies each commit to its own durable store,
// serves reads at the applied version, and proxies POST /v1/facts to the
// primary. Clients get read-your-writes on any node by echoing a write's
// committed version in the X-Hdl-Min-Version header of later reads. See
// README, "Scaling reads with replicas".
//
// With -programs-dir the positional program.hdl arguments seed the
// default program on first boot; on later boots the on-disk rulebase
// wins (it owns the WAL's identity) and a differing CLI program only
// logs a warning. Each tenant gets its own pool, answer cache,
// admission quota and expvar metric prefix, so one hot program cannot
// shed or slow another. See README, "Serving many programs".
//
// Without -wal the base database is frozen at startup and /v1/facts
// answers 501. With it, the daemon recovers snapshot + WAL tail before
// listening, so an acknowledged commit survives kill -9.
//
// If the disk under the WAL fails at runtime (a failed fsync or rename),
// the daemon degrades instead of dying: queries keep serving the last
// committed version, POST /v1/facts answers 503 with error kind
// "read_only", /healthz stays 200 but reports status "degraded" (reason
// "read_only"), and the live_readonly expvar gauge goes to 1. A
// transient cause (ENOSPC/EDQUOT with a clean rollback) starts a
// background recovery prober that re-enables writes once a probe write
// fsyncs cleanly — healthz shows "recovering": true meanwhile. Any other
// cause is sticky: restart the daemon once the disk is healthy and it
// recovers from the snapshot + WAL tail. See README, "What happens when
// the disk fails".
//
// On SIGTERM or SIGINT the daemon stops accepting connections, fails
// /readyz, lets in-flight queries finish for the drain grace period,
// then cancels their contexts and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	hypo "hypodatalog"
	"hypodatalog/internal/repl"
	"hypodatalog/internal/server"
	"hypodatalog/internal/tenant"
)

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", ":8080", "listen address")
	debugAddr := flag.String("debug-addr", "", "extra listener serving only net/http/pprof under /debug/pprof/ (empty = off)")
	mode := flag.String("mode", "auto", "evaluation mode: auto | uniform | cascade")
	pool := flag.Int("pool", 0, "engine pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue length (0 = 4 × pool)")
	maxGoals := flag.Int64("max", 0, "goal budget per query, in every mode (0 = unlimited); bottom-up Δ-part work is not goals: -timeout and -max-memory bound it")
	maxMemory := flag.Int64("max-memory", 0, "memory budget per query in bytes (0 = unlimited)")
	tenantMemQuota := flag.Int64("tenant-memory-quota", 0, "per-program memory ceiling in bytes (0 = unlimited)")
	tenantDiskQuota := flag.Int64("tenant-disk-quota", 0, "per-program WAL+snapshot ceiling in bytes (0 = unlimited)")
	cacheBytes := flag.Int64("cache-bytes", 0, "answer cache byte budget (0 = disabled)")
	timeout := flag.Duration("timeout", 10*time.Second, "default per-request evaluation deadline")
	maxTimeout := flag.Duration("max-timeout", 60*time.Second, "clamp on request-supplied timeouts")
	maxBody := flag.Int64("max-body", 1<<20, "request body cap in bytes")
	drain := flag.Duration("drain", 10*time.Second, "shutdown grace for in-flight queries")
	logFormat := flag.String("log", "json", "log format: json | text")
	wal := flag.String("wal", "", "WAL file enabling runtime fact mutation (empty = read-only EDB)")
	snapshot := flag.String("snapshot", "", "HDLSNAP compaction target (and preferred fact source on startup)")
	snapshotEvery := flag.Int("snapshot-every", 1024, "compact after this many commits (0 = only on clean shutdown)")
	role := flag.String("role", "", "replication role: primary | replica (empty = standalone)")
	primaryURL := flag.String("primary", "", "primary's base URL (required with -role replica; writes proxy there)")
	replicateAddr := flag.String("replicate-addr", "", "extra listener serving only the replication endpoints (primary; empty = share -addr)")
	minVersionWait := flag.Duration("min-version-wait", 2*time.Second, "max wait for X-Hdl-Min-Version before 503 stale")
	programsDir := flag.String("programs-dir", "", "multi-tenant state directory (one program per subdirectory; empty = single program)")
	defaultProgram := flag.String("default-program", "default", "program the un-prefixed /v1/* routes alias (with -programs-dir)")
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "hdld: unknown -log format %q\n", *logFormat)
		return 2
	}
	logger := slog.New(handler)

	if flag.NArg() == 0 && *programsDir == "" {
		fmt.Fprintln(os.Stderr, "usage: hdld [flags] program.hdl ...")
		flag.PrintDefaults()
		return 2
	}
	var src strings.Builder
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			logger.Error("read program", "err", err)
			return 1
		}
		src.Write(data)
		src.WriteByte('\n')
	}
	var prog *hypo.Program
	var err error
	if flag.NArg() > 0 {
		prog, err = hypo.Parse(src.String())
		if err != nil {
			logger.Error("parse program", "err", err)
			return 1
		}
	}
	opts := hypo.Options{MaxGoals: *maxGoals, MaxMemoryBytes: *maxMemory, PoolSize: *pool, CacheBytes: *cacheBytes}
	switch *mode {
	case "auto":
		opts.Mode = hypo.ModeAuto
	case "uniform":
		opts.Mode = hypo.ModeUniform
	case "cascade":
		opts.Mode = hypo.ModeCascade
	default:
		logger.Error("unknown mode", "mode", *mode)
		return 2
	}
	switch *role {
	case "", "primary", "replica":
	default:
		logger.Error("unknown role", "role", *role)
		return 2
	}
	var reg *tenant.Registry
	var listenAttrs []any
	var mountPrimary *repl.Primary
	var replicaStatus func() repl.Status
	if *programsDir != "" {
		if *role != "" {
			logger.Error("-programs-dir is incompatible with -role: replication is single-program")
			return 2
		}
		if *wal != "" || *snapshot != "" {
			logger.Error("-programs-dir owns the per-tenant WAL/snapshot layout; drop -wal and -snapshot")
			return 2
		}
		var code int
		reg, code = openRegistry(logger, tenant.Config{
			Dir:         *programsDir,
			DefaultName: *defaultProgram,
			Options:     opts,
			LiveConfig:  hypo.LiveConfig{SnapshotEvery: *snapshotEvery},
			MaxQueue:    *queue,
			MemoryQuota: *tenantMemQuota,
			DiskQuota:   *tenantDiskQuota,
			Logger:      logger,
		}, prog, src.String())
		if reg == nil {
			return code
		}
		// Close compacts every tenant (snapshot paths are always configured
		// in registry mode) so a clean restart replays nothing.
		defer reg.Close()
		listenAttrs = []any{
			"programs", len(reg.List()),
			"default", *defaultProgram,
			"pool", reg.Default().Pool().Size(),
		}
	} else {
		if *role == "replica" && (*wal == "" || *primaryURL == "") {
			logger.Error("-role replica requires both -wal (local durable store) and -primary (who to tail)")
			return 2
		}
		if *role == "primary" && *wal == "" {
			logger.Error("-role primary requires -wal (followers tail the WAL)")
			return 2
		}

		var pl *hypo.Pool
		var lv *hypo.Live
		if *wal != "" {
			lv, err = hypo.OpenLive(prog, hypo.LiveConfig{
				WALPath:       *wal,
				SnapshotPath:  *snapshot,
				SnapshotEvery: *snapshotEvery,
				Logger:        logger,
			}, opts)
			if err != nil {
				logger.Error("open live store", "err", err)
				return 1
			}
			// Close compacts (when -snapshot is set) so a clean restart
			// replays nothing.
			defer lv.Close()
			rec := lv.Recovery()
			logger.Info("live EDB recovered",
				"wal", *wal,
				"version", rec.Version,
				"replayed", rec.Replayed,
				"torn_bytes", rec.TornBytes,
				"from_snapshot", rec.FromSnapshot,
			)
			pl = lv.Pool()
		} else {
			if *snapshot != "" {
				logger.Warn("-snapshot has no effect without -wal; serving the program's facts read-only")
			}
			pl, err = hypo.NewPool(prog, opts)
			if err != nil {
				logger.Error("build pool", "err", err)
				return 1
			}
			defer pl.Close()
		}

		// Any node with a live store can be tailed — a standalone or replica
		// node serving the endpoints costs nothing until a follower
		// connects, and makes promotion (point followers at a former
		// replica) a pure config change.
		var rp *repl.Primary
		if lv != nil {
			rp = repl.NewPrimary(repl.PrimaryConfig{
				Source:    lv,
				RulesHash: prog.RulesHash(),
				Logger:    logger,
			})
		}

		if *role == "replica" {
			rep, err := repl.Start(repl.ReplicaConfig{
				Primary:   *primaryURL,
				Target:    lv,
				RulesHash: prog.RulesHash(),
				Logger:    logger,
			})
			if err != nil {
				logger.Error("start replication", "err", err)
				return 1
			}
			defer rep.Close()
			replicaStatus = rep.Status
		}

		mountPrimary = rp
		if *replicateAddr != "" {
			// Replication gets its own listener (own port, own firewall
			// rules); the query listener then does not serve the repl
			// endpoints.
			mountPrimary = nil
			if rp == nil {
				logger.Error("-replicate-addr requires -wal (there is no WAL to ship)")
				return 2
			}
			rmux := http.NewServeMux()
			rp.Mount(rmux)
			rln, err := net.Listen("tcp", *replicateAddr)
			if err != nil {
				logger.Error("listen (replication)", "err", err)
				return 1
			}
			rs := &http.Server{Handler: rmux, ReadHeaderTimeout: 10 * time.Second}
			defer rs.Close()
			go func() {
				if err := rs.Serve(rln); err != nil && !errors.Is(err, http.ErrServerClosed) {
					logger.Error("serve (replication)", "err", err)
				}
			}()
			logger.Info("replication listener", "addr", rln.Addr().String())
		}

		// One program is served as a registry with one tenant, the
		// default, reporting into the process-wide "hypo" metrics.
		reg = tenant.NewStatic("default", pl, lv, nil, *queue)
		reg.Default().SetQuotas(*tenantMemQuota, *tenantDiskQuota)
		st := prog.Stratification()
		listenAttrs = []any{"pool", pl.Size(), "linear", st.Linear, "strata", st.Strata}
	}

	srv, err := server.New(server.Config{
		Registry:       reg,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxBodyBytes:   *maxBody,
		Logger:         logger,
		Role:           *role,
		ReplPrimary:    mountPrimary,
		ReplicaStatus:  replicaStatus,
		PrimaryURL:     *primaryURL,
		MinVersionWait: *minVersionWait,
	})
	if err != nil {
		logger.Error("build server", "err", err)
		return 1
	}
	return serveLoop(logger, *addr, *debugAddr, *drain, srv, listenAttrs...)
}

// serveLoop runs the HTTP listener until SIGTERM/SIGINT, then executes
// the two-phase drain: BeginDrain (readyz fails, new requests 503),
// wait out the grace period, then cancel the BaseContext so queries
// still evaluating abort with ErrCanceled. A non-empty debugAddr opens the profiling
// listener first; it closes when serveLoop returns, after the drain.
func serveLoop(logger *slog.Logger, addr, debugAddr string, drainGrace time.Duration, srv *server.Server, listenAttrs ...any) int {
	if debugAddr != "" {
		dln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			logger.Error("listen (debug)", "err", err)
			return 1
		}
		ds := &http.Server{Handler: debugMux(), ReadHeaderTimeout: 10 * time.Second}
		defer ds.Close()
		go func() {
			if err := ds.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("serve (debug)", "err", err)
			}
		}()
		logger.Info("debug listener", "addr", dln.Addr().String())
	}

	// root is the BaseContext of every request: canceling it after the
	// drain grace period force-aborts queries still evaluating.
	root, cancelRoot := context.WithCancel(context.Background())
	defer cancelRoot()
	hs := &http.Server{
		Handler:           srv.Handler(),
		BaseContext:       func(net.Listener) context.Context { return root },
		ReadHeaderTimeout: 10 * time.Second,
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		logger.Error("listen", "err", err)
		return 1
	}

	// Catch the signals before announcing the address: a SIGTERM sent as
	// soon as "listening" is logged must drain, not kill.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	logger.Info("listening", append([]any{"addr", ln.Addr().String()}, listenAttrs...)...)

	select {
	case err := <-errCh:
		logger.Error("serve", "err", err)
		return 1
	case got := <-sig:
		logger.Info("draining", "signal", got.String(), "grace", drainGrace.String())
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), drainGrace)
		err := hs.Shutdown(ctx)
		cancel()
		if err != nil {
			// Grace expired with queries still in flight: cancel their
			// contexts so they abort with ErrCanceled, then close.
			logger.Warn("drain grace expired; canceling in-flight queries", "err", err)
			cancelRoot()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
				logger.Error("forced shutdown", "err", err)
			}
			cancel()
			_ = hs.Close()
		}
		logger.Info("exiting")
		return 0
	}
}

// debugMux serves the net/http/pprof handlers on a mux of its own.
// Importing net/http/pprof also registers them on http.DefaultServeMux,
// which no listener of this daemon serves.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
