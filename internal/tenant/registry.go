package tenant

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"

	hypo "hypodatalog"
	"hypodatalog/internal/metrics"
)

// Per-tenant state files inside <dir>/<name>/.
const (
	programFile  = "program.hdl"
	walFile      = "wal.log"
	snapshotFile = "snapshot.hdlsnap"
)

// nameRE is the accepted shape of a program name: DNS-label-ish, safe
// as a directory name and an URL path segment, bounded at 64 bytes.
var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9_-]{0,63}$`)

// ValidName reports whether name is an acceptable program name.
func ValidName(name string) bool { return nameRE.MatchString(name) }

// Config parameterises a dynamic registry. Options and LiveConfig are
// templates applied to every tenant: the registry overrides
// Options.Metrics with the tenant's own set and derives
// LiveConfig.WALPath / SnapshotPath inside the tenant's directory.
type Config struct {
	// Dir is the programs directory; each tenant lives in <Dir>/<name>/.
	// Required for Open; created if absent.
	Dir string

	// DefaultName is the tenant the un-prefixed /v1/* routes alias.
	// Default: "default". It reports into metrics.Default (the legacy
	// "hypo" expvar names) and cannot be deleted.
	DefaultName string

	// Options is the per-tenant engine/pool template (PoolSize,
	// CacheBytes, MaxGoals, ...). Metrics is ignored and replaced.
	Options hypo.Options

	// LiveConfig is the per-tenant store template (SnapshotEvery,
	// NoSync, StreamTailLen, FS). WALPath and SnapshotPath are ignored
	// and derived per tenant.
	LiveConfig hypo.LiveConfig

	// MaxQueue bounds requests waiting for a slot per tenant; beyond it
	// requests are shed. A tenant has one evaluation slot per engine of
	// its pool (Options.PoolSize). Default: 4 × the pool size.
	MaxQueue int

	// MemoryQuota bounds each tenant's tracked memory footprint (idle
	// engines + answer cache) in bytes. Over it, idle engines are
	// trimmed; if still over, requests are shed with ErrOverMemory.
	// 0 = unlimited.
	MemoryQuota int64

	// DiskQuota bounds each tenant's on-disk footprint (WAL + snapshot)
	// in bytes. Over it, mutations are refused with ErrOverDisk; reads
	// keep serving. 0 = unlimited.
	DiskQuota int64

	// Logger receives registry lifecycle logs. Default: slog.Default().
	Logger *slog.Logger
}

// Registry is a set of named tenants. All methods are safe for
// concurrent use.
type Registry struct {
	cfg     Config
	static  bool
	defName string
	log     *slog.Logger

	mu      sync.RWMutex
	tenants map[string]*Tenant
	closed  bool
}

// Open creates a dynamic registry over cfg.Dir, loading every tenant
// already on disk (its program.hdl is parsed and its WAL replayed)
// before returning, so a restarted server serves all programs from the
// first request. A state directory without a program.hdl — the residue
// of a crash between mkdir and the program write, before any WAL
// existed — is skipped with a warning rather than failing boot.
func Open(cfg Config) (*Registry, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("tenant: Config.Dir is required")
	}
	if cfg.DefaultName == "" {
		cfg.DefaultName = "default"
	}
	if !ValidName(cfg.DefaultName) {
		return nil, fmt.Errorf("%w: %q", ErrBadName, cfg.DefaultName)
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("tenant: creating programs dir: %w", err)
	}
	r := &Registry{
		cfg:     cfg,
		defName: cfg.DefaultName,
		log:     cfg.Logger,
		tenants: make(map[string]*Tenant),
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("tenant: scanning programs dir: %w", err)
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		name := ent.Name()
		if !ValidName(name) {
			r.log.Warn("skipping programs-dir entry with invalid name", "entry", name)
			continue
		}
		src, err := os.ReadFile(filepath.Join(cfg.Dir, name, programFile))
		if os.IsNotExist(err) {
			r.log.Warn("skipping program dir without program.hdl (incomplete create?)", "program", name)
			continue
		}
		if err != nil {
			r.closeAllLocked()
			return nil, fmt.Errorf("tenant: reading program %q: %w", name, err)
		}
		t, err := r.openTenant(name, string(src))
		if err != nil {
			r.closeAllLocked()
			return nil, fmt.Errorf("tenant: recovering program %q: %w", name, err)
		}
		r.tenants[name] = t
		r.log.Info("program recovered", "program", name,
			"data_version", t.Version(), "rules_hash", fmt.Sprintf("%016x", t.rulesHash))
	}
	register(r)
	return r, nil
}

// NewStatic wraps one pre-built pool (and optional live store) as a
// registry whose only tenant is the default, with one evaluation slot
// per pool engine and up to maxQueue requests waiting for one (0 = 4 ×
// the pool size). It is how a single-program server is served; Create
// and Delete fail with ErrStatic. A nil mets means metrics.Default.
func NewStatic(name string, pool *hypo.Pool, live *hypo.Live, mets *metrics.Set, maxQueue int) *Registry {
	if name == "" {
		name = "default"
	}
	if mets == nil {
		mets = metrics.Default
	}
	r := &Registry{
		static:  true,
		defName: name,
		log:     slog.Default(),
		tenants: map[string]*Tenant{name: newTenant(name, "", "", 0, pool, live, mets, maxQueue)},
	}
	register(r)
	return r
}

// Static reports whether the registry was built by NewStatic (admin
// operations unavailable).
func (r *Registry) Static() bool { return r.static }

// DefaultName returns the name of the default tenant.
func (r *Registry) DefaultName() string { return r.defName }

// Default returns the default tenant, or nil if it has not been
// created yet (dynamic registries start empty on a fresh directory).
func (r *Registry) Default() *Tenant {
	t, _ := r.Get(r.defName)
	return t
}

// Get returns the tenant registered under name, or ErrUnknown.
func (r *Registry) Get(name string) (*Tenant, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tenants[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	return t, nil
}

// List returns all tenants sorted by name.
func (r *Registry) List() []*Tenant {
	r.mu.RLock()
	out := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, t)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Create registers a new program under name with the given rulebase,
// creating its state directory and an empty WAL. It is idempotent: a
// PUT of the exact same rules (by RulesHash) returns the existing
// tenant with created=false; different rules fail with ErrConflict
// (programs are replaced by delete + create, never silently swapped
// under live traffic).
func (r *Registry) Create(name, source string) (t *Tenant, created bool, err error) {
	if r.static {
		return nil, false, ErrStatic
	}
	if !ValidName(name) {
		return nil, false, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	prog, perr := hypo.Parse(source)
	if perr != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrBadProgram, perr)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, false, ErrClosed
	}
	if existing, ok := r.tenants[name]; ok {
		if existing.rulesHash == prog.RulesHash() {
			return existing, false, nil
		}
		return nil, false, fmt.Errorf("%w: %q", ErrConflict, name)
	}
	dir := filepath.Join(r.cfg.Dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, false, fmt.Errorf("tenant: creating program dir: %w", err)
	}
	// Write program.hdl atomically (tmp + rename) so boot recovery
	// never sees a torn rulebase.
	tmp := filepath.Join(dir, programFile+".tmp")
	if err := os.WriteFile(tmp, []byte(source), 0o644); err != nil {
		return nil, false, fmt.Errorf("tenant: writing program: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, programFile)); err != nil {
		return nil, false, fmt.Errorf("tenant: writing program: %w", err)
	}
	t, err = r.openTenant(name, source)
	if err != nil {
		return nil, false, fmt.Errorf("tenant: opening program %q: %w", name, err)
	}
	r.tenants[name] = t
	r.log.Info("program created", "program", name,
		"rules_hash", fmt.Sprintf("%016x", t.rulesHash))
	return t, true, nil
}

// openTenant builds the full per-tenant stack (metrics set, live store
// over the tenant's WAL/snapshot, pool, admission gate) for a program
// whose directory already holds program.hdl. Caller holds r.mu or is
// single-threaded boot.
func (r *Registry) openTenant(name, source string) (*Tenant, error) {
	prog, err := hypo.Parse(source)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProgram, err)
	}
	mets := r.metricsFor(name)
	opts := r.cfg.Options
	opts.Metrics = mets
	lc := r.cfg.LiveConfig
	dir := filepath.Join(r.cfg.Dir, name)
	lc.WALPath = filepath.Join(dir, walFile)
	lc.SnapshotPath = filepath.Join(dir, snapshotFile)
	if lc.Logger == nil {
		lc.Logger = r.log
	}
	lc.Logger = lc.Logger.With("program", name)
	lv, err := hypo.OpenLive(prog, lc, opts)
	if err != nil {
		return nil, err
	}
	t := newTenant(name, dir, source, prog.RulesHash(), lv.Pool(), lv,
		mets, r.cfg.MaxQueue)
	t.SetQuotas(r.cfg.MemoryQuota, r.cfg.DiskQuota)
	return t, nil
}

// metricsFor picks the tenant's metric set: the default tenant aliases
// metrics.Default so the legacy "hypo" expvar keeps reporting it; every
// other tenant gets a fresh set named hypo_<name>, visible through the
// dynamic "hypo_programs" expvar (per-tenant expvar.Publish would leak
// names forever — expvar cannot unpublish).
func (r *Registry) metricsFor(name string) *metrics.Set {
	if name == r.defName {
		return metrics.Default
	}
	return metrics.NewSet("hypo_" + name)
}

// Delete tears a program down with the server's two-phase drain: the
// tenant is unregistered and flipped to draining (new requests refused
// with 503), then Delete waits — bounded by ctx — for in-flight
// evaluations to finish before closing the stores and removing the
// state directory. If the drain deadline expires the stores are closed
// anyway (in-flight queries finish on their leased engines; see
// Pool.Close) and the directory is still removed.
func (r *Registry) Delete(ctx context.Context, name string) error {
	if r.static {
		return ErrStatic
	}
	if name == r.defName {
		return fmt.Errorf("%w: %q", ErrProtected, name)
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	t, ok := r.tenants[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	delete(r.tenants, name)
	r.mu.Unlock()

	t.BeginDrain()
	if err := t.drain(ctx); err != nil {
		r.log.Warn("program drain deadline expired; closing with evaluations in flight",
			"program", name, "err", err)
	}
	if err := t.closeStores(); err != nil {
		r.log.Warn("closing program stores", "program", name, "err", err)
	}
	if err := os.RemoveAll(t.dir); err != nil {
		return fmt.Errorf("tenant: removing program dir: %w", err)
	}
	r.log.Info("program deleted", "program", name)
	return nil
}

// BeginDrain flips every tenant into draining mode. Idempotent.
func (r *Registry) BeginDrain() {
	for _, t := range r.List() {
		t.BeginDrain()
	}
}

// Close closes every tenant's stores (WALs are synced and final
// snapshots written where configured) and marks the registry closed.
// State directories are left on disk for the next boot.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closeAllLocked()
}

func (r *Registry) closeAllLocked() error {
	if r.closed {
		return nil
	}
	r.closed = true
	var first error
	for _, t := range r.tenants {
		t.BeginDrain()
		if err := t.closeStores(); err != nil && first == nil {
			first = err
		}
	}
	unregister(r)
	return first
}

// The one process-wide export: a dynamic "hypo_programs" expvar whose
// snapshot walks every tenant of every live registry. Deleted tenants
// simply stop appearing — unlike per-tenant expvar.Publish names, which
// could never be removed.
var (
	pubOnce sync.Once
	regsMu  sync.Mutex
	regs    = make(map[*Registry]struct{})
)

func register(r *Registry) {
	regsMu.Lock()
	regs[r] = struct{}{}
	regsMu.Unlock()
	pubOnce.Do(func() {
		metrics.PublishFunc("hypo_programs", programsSnapshot)
	})
}

func unregister(r *Registry) {
	regsMu.Lock()
	delete(regs, r)
	regsMu.Unlock()
}

func programsSnapshot() any {
	out := make(map[string]any)
	regsMu.Lock()
	live := make([]*Registry, 0, len(regs))
	for r := range regs {
		live = append(live, r)
	}
	regsMu.Unlock()
	for _, r := range live {
		for _, t := range r.List() {
			snap := t.mets.Snapshot()
			snap["data_version"] = t.Version()
			out[t.name] = snap
		}
	}
	return out
}
