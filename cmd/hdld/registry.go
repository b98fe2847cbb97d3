package main

import (
	"log/slog"
	"time"

	hypo "hypodatalog"
	"hypodatalog/internal/server"
	"hypodatalog/internal/tenant"
)

// registryServeConfig carries the serving flags into -programs-dir
// mode; the single-program-only flags (wal, snapshot, role, ...) are
// rejected before this point.
type registryServeConfig struct {
	addr           string
	debugAddr      string
	queue          int
	timeout        time.Duration
	maxTimeout     time.Duration
	maxBody        int64
	drain          time.Duration
	snapshotEvery  int
	minVersionWait time.Duration
	memQuota       int64
	diskQuota      int64
}

// runRegistry is -programs-dir mode: recover every program under dir,
// seed the default program from the CLI rulebase if it is not on disk
// yet, and serve the multi-tenant API. The startup scan completes
// before the listener opens, so the first request already sees every
// tenant.
func runRegistry(logger *slog.Logger, dir, defaultName string, prog *hypo.Program, src string, opts hypo.Options, sc registryServeConfig) int {
	reg, err := tenant.Open(tenant.Config{
		Dir:         dir,
		DefaultName: defaultName,
		Options:     opts,
		LiveConfig:  hypo.LiveConfig{SnapshotEvery: sc.snapshotEvery},
		MaxQueue:    sc.queue,
		MemoryQuota: sc.memQuota,
		DiskQuota:   sc.diskQuota,
		Logger:      logger,
	})
	if err != nil {
		logger.Error("open program registry", "err", err)
		return 1
	}
	// Close compacts every tenant (snapshot paths are always configured
	// in registry mode) so a clean restart replays nothing.
	defer reg.Close()

	def := reg.Default()
	switch {
	case def == nil && prog == nil:
		logger.Error("no default program on disk and none given on the command line",
			"dir", dir, "default", defaultName)
		return 2
	case def == nil:
		if _, _, err := reg.Create(defaultName, src); err != nil {
			logger.Error("create default program", "err", err)
			return 1
		}
		def = reg.Default()
		logger.Info("default program created", "program", defaultName)
	case prog != nil && def.RulesHash() != prog.RulesHash():
		// The on-disk rulebase owns the WAL's identity; a differing CLI
		// program is almost certainly a stale start script.
		logger.Warn("command-line program differs from the on-disk default; serving the on-disk rules",
			"program", defaultName)
	}

	srv, err := server.New(server.Config{
		Registry:       reg,
		DefaultTimeout: sc.timeout,
		MaxTimeout:     sc.maxTimeout,
		MaxBodyBytes:   sc.maxBody,
		Logger:         logger,
		MinVersionWait: sc.minVersionWait,
	})
	if err != nil {
		logger.Error("build server", "err", err)
		return 1
	}
	return serveLoop(logger, sc.addr, sc.debugAddr, sc.drain, srv,
		"programs", len(reg.List()),
		"default", defaultName,
		"pool", def.Pool().Size(),
	)
}
