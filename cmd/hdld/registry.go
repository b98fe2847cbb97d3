package main

import (
	"log/slog"

	hypo "hypodatalog"
	"hypodatalog/internal/tenant"
)

// openRegistry is -programs-dir mode's boot: recover every program
// under cfg.Dir and seed the default program from the command-line
// rulebase if it is not on disk yet. The startup scan completes before
// the listener opens, so the first request already sees every tenant.
// On failure it returns a nil registry and the exit code.
func openRegistry(logger *slog.Logger, cfg tenant.Config, prog *hypo.Program, src string) (*tenant.Registry, int) {
	reg, err := tenant.Open(cfg)
	if err != nil {
		logger.Error("open program registry", "err", err)
		return nil, 1
	}
	def := reg.Default()
	switch {
	case def == nil && prog == nil:
		logger.Error("no default program on disk and none given on the command line",
			"dir", cfg.Dir, "default", reg.DefaultName())
		reg.Close()
		return nil, 2
	case def == nil:
		if _, _, err := reg.Create(reg.DefaultName(), src); err != nil {
			logger.Error("create default program", "err", err)
			reg.Close()
			return nil, 1
		}
		logger.Info("default program created", "program", reg.DefaultName())
	case prog != nil && def.RulesHash() != prog.RulesHash():
		// The on-disk rulebase owns the WAL's identity; a differing CLI
		// program is almost certainly a stale start script.
		logger.Warn("command-line program differs from the on-disk default; serving the on-disk rules",
			"program", reg.DefaultName())
	}
	return reg, 0
}
