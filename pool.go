package hypo

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/cache"
	"hypodatalog/internal/metrics"
	"hypodatalog/internal/symbols"
	"hypodatalog/internal/topdown"
)

// ErrPoolClosed is returned by every query method of a Pool after Close
// has been called. Test with errors.Is.
var ErrPoolClosed = errors.New("hypo: pool is closed")

// Pool evaluates queries against one program from many goroutines.
//
// The single-engine API is deliberately not safe for concurrent use (the
// memo tables and interners are lock-free); a Pool keeps a bounded free
// list of independent engines — each with its own ground-atom interner
// and tables — and leases one to each in-flight query. The free list is a
// channel rather than a sync.Pool so that idle engines are never dropped
// by the garbage collector: warm memo tables survive across queries, and
// the engine count (and hence memory) is bounded by Options.PoolSize.
//
// When all engines are busy, callers block until one frees up — or until
// their context is done, in which case they fail with ErrCanceled or
// ErrDeadline without having consumed an engine.
//
// # Lifecycle
//
// A Pool is live from NewPool until Close. Close is idempotent and safe
// to call concurrently with queries: new leases fail fast with
// ErrPoolClosed (including callers already blocked waiting for a free
// engine), in-flight queries run to completion, and every engine —
// whether idle at Close time or returned by an in-flight query
// afterwards — is dropped so its memo tables and interner become
// garbage. A closed pool stays closed.
//
// # Data versions
//
// The pool keeps one base — an interner and database holding its facts
// at its current data version — which every engine clones when it is
// built. A Live commit changes the base in place and records its delta;
// an idle engine drawn after it catches up by applying the deltas it
// missed to its own clone (see fresh), and in-flight queries keep the
// engines, and so the facts, they leased: snapshot isolation.
type Pool struct {
	prog *Program // the rules every engine shares
	opts Options
	dom  *domain      // computed once: every version ranges over it
	mets *metrics.Set // metric set for pool traffic (never nil)

	// cache is the pool-wide versioned answer cache (nil when
	// Options.CacheBytes is zero). It sits ABOVE the engine lease:
	// coalesced callers of one in-flight query and callers served from a
	// stored entry never draw an engine at all.
	cache *cache.Cache

	// free holds idle engines; its capacity is the pool size. Engines are
	// created lazily up to that capacity, so created only grows and a put
	// can never block.
	free    chan *Engine
	closing chan struct{} // closed by Close; wakes blocked getters
	mu      sync.Mutex    // guards created, closed
	created int
	closed  bool

	// idleBytes is the summed tracked footprint of the engines currently
	// on the free list: put adds an engine's footprint, get subtracts it.
	// An idle engine's footprint cannot change (nothing touches it), so
	// the two reads agree and the sum never drifts.
	idleBytes atomic.Int64

	// version is the data version new leases evaluate at. It moves only
	// under hmu, together with base and history; leases read it without
	// the lock to tell a current engine from a stale one.
	version atomic.Uint64

	// hmu guards base and history. A Live writes the base only under its
	// own mu too, so it also reads the base under that mu alone. history
	// holds the commits since the last reset, oldest first and at most
	// maxDeltaHistory of them, with no gap: history[i] leads from version
	// histFrom+i to histFrom+i+1, and the last one to version.
	hmu      sync.Mutex
	base     *substrate
	history  []commitDelta
	histFrom uint64
}

// commitDelta is one commit's effective base-fact change, kept so stale
// idle engines can catch up by mutating their state in place instead of
// rebuilding.
type commitDelta struct {
	added, removed []ast.CAtom
	cone           map[symbols.Pred]bool
}

const (
	// maxDeltaHistory bounds how many commits the pool retains for
	// catch-up; an engine idle for longer rebuilds.
	maxDeltaHistory = 64
	// maxDeltaAtoms bounds one commit's recorded delta; a bulk load
	// bigger than this is cheaper to rebuild into than to propagate.
	maxDeltaAtoms = 1024
)

// NewPool builds an engine pool. It constructs one engine eagerly so that
// configuration errors (e.g. cascade mode without a linear
// stratification) surface immediately. The pool holds at most
// Options.PoolSize engines (GOMAXPROCS when zero).
func NewPool(p *Program, opts Options) (*Pool, error) {
	return newPool(p, opts, newDomain(p, opts.ExtraDomain), p.comp.Facts, 0)
}

// newPool builds a pool over p's rules whose base holds fs at version.
func newPool(p *Program, opts Options, dom *domain, fs []ast.CAtom, version uint64) (*Pool, error) {
	mets := opts.metricSet()
	size := opts.PoolSize
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	pl := &Pool{
		prog:    p,
		opts:    opts,
		dom:     dom,
		mets:    mets,
		free:    make(chan *Engine, size),
		closing: make(chan struct{}),
	}
	if err := pl.reset(fs, version); err != nil {
		return nil, err
	}
	first, err := pl.build()
	if err != nil {
		return nil, err
	}
	if opts.CacheBytes > 0 {
		pl.cache = cache.New(opts.CacheBytes, mets)
	}
	pl.created = 1
	pl.idleBytes.Add(first.MemBytes())
	pl.free <- first
	mets.PoolNews.Inc()
	return pl, nil
}

// reset replaces the pool's base with a fresh one holding fs at version,
// and clears the commit history: every engine already built rebuilds on
// its next lease. Boot recovery and Live.InstallSnapshot use it; the
// store refuses a snapshot version that does not advance, so the answer
// cache's floor rises to version and every older entry goes.
func (pl *Pool) reset(fs []ast.CAtom, version uint64) error {
	sub, err := loadSubstrate(pl.prog, fs)
	if err != nil {
		return err
	}
	pl.mets.LiveSubstrateBuilds.Inc()
	pl.hmu.Lock()
	pl.base, pl.history, pl.histFrom = sub, nil, version
	pl.version.Store(version)
	pl.hmu.Unlock()
	pl.supersede(version)
	return nil
}

// publish moves the pool to version, one past its current one, by a
// commit's effective, compiled base-fact change: it applies the change to
// the base in place and records it, with its affected predicate cone, in
// the catch-up history, so stale idle engines drawn afterwards apply it
// too — keeping memo tables and materialisations outside the cone —
// instead of rebuilding. An oversized batch clears the history, and so
// does a version that does not follow the current one; engines then
// rebuild from the base. In-flight queries keep the engines they leased;
// every lease that starts after publish returns evaluates at version.
// Earlier clones of the base are unaffected: Insert appends past every
// clone's clipped lists and Remove builds fresh ones. Insert fails only
// on an atom whose arity disagrees with its predicate's, which
// compileGroundAtom rules out. Once the version has moved, no reader
// keys a cached answer of an older one again, so the cache's floor
// rises to version and those answers are freed.
func (pl *Pool) publish(version uint64, added, removed []ast.CAtom) error {
	if err := pl.advance(version, added, removed); err != nil {
		return err
	}
	pl.supersede(version)
	return nil
}

// advance is publish's part under hmu: the base, the history and the
// version move together.
func (pl *Pool) advance(version uint64, added, removed []ast.CAtom) error {
	pl.hmu.Lock()
	defer pl.hmu.Unlock()
	in, db := pl.base.in, pl.base.db
	for _, ca := range removed {
		db.Remove(in.Ground(ca, nil))
	}
	for _, ca := range added {
		if _, err := db.Insert(in.Ground(ca, nil)); err != nil {
			return err
		}
	}
	switch {
	case version != pl.version.Load()+1 || len(added)+len(removed) > maxDeltaAtoms:
		pl.history, pl.histFrom = nil, version
	default:
		if len(pl.history) == maxDeltaHistory {
			pl.history, pl.histFrom = pl.history[1:], pl.histFrom+1
		}
		pl.history = append(pl.history, commitDelta{added: added, removed: removed, cone: pl.prog.rel.Affected(added, removed)})
	}
	pl.version.Store(version)
	return nil
}

// supersede raises the answer cache's floor to version, the pool's new
// one, freeing every answer keyed below it. It runs after hmu is
// released, so no lease or catch-up waits on the sweep; a read that
// began before the commit and stores its answer afterwards is refused
// by the floor.
func (pl *Pool) supersede(version uint64) {
	if pl.cache != nil {
		pl.cache.Raise(version)
	}
}

// since returns the recorded commits from version v to the pool's
// current version, oldest first, and that version; ok is false when the
// history does not reach back to v. Appends never write into the
// returned slice, so it stays valid after the lock is released.
func (pl *Pool) since(v uint64) (ds []commitDelta, to uint64, ok bool) {
	pl.hmu.Lock()
	defer pl.hmu.Unlock()
	if v < pl.histFrom {
		return nil, 0, false
	}
	return pl.history[v-pl.histFrom:], pl.version.Load(), true
}

// clone copies the base and reads its version under one lock, so an
// engine's version stamp always matches its facts.
func (pl *Pool) clone() (*substrate, uint64) {
	pl.hmu.Lock()
	defer pl.hmu.Unlock()
	return pl.base.clone(), pl.version.Load()
}

// Version reports the data version new leases evaluate at.
func (pl *Pool) Version() uint64 { return pl.version.Load() }

// Size reports the maximum number of engines (= concurrent queries).
func (pl *Pool) Size() int { return cap(pl.free) }

// Close shuts the pool down: subsequent leases — and getters already
// blocked waiting for an engine — fail with ErrPoolClosed, idle engines
// are released immediately, and engines still leased to in-flight
// queries are released when those queries return them. Close does not
// cancel in-flight queries; use their contexts for that. It is
// idempotent and always returns nil.
func (pl *Pool) Close() error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.closed {
		return nil
	}
	pl.closed = true
	close(pl.closing)
	for {
		select {
		case <-pl.free:
			pl.created--
		default:
			pl.idleBytes.Store(0)
			return nil
		}
	}
}

// get leases an engine: reuse an idle one, grow up to capacity, or block
// until an engine frees, the pool closes, or ctx is done. Engines are
// always handed out at the current data version (stale idle engines are
// rebuilt first — see fresh).
func (pl *Pool) get(ctx context.Context) (*Engine, error) {
	select {
	case <-pl.closing:
		return nil, ErrPoolClosed
	default:
	}
	select {
	case e := <-pl.free:
		pl.idleBytes.Add(-e.MemBytes())
		pl.mets.PoolGets.Inc()
		return pl.fresh(e)
	default:
	}
	pl.mu.Lock()
	if pl.closed {
		pl.mu.Unlock()
		return nil, ErrPoolClosed
	}
	if pl.created < cap(pl.free) {
		pl.created++
		pl.mu.Unlock()
		e, err := pl.build()
		if err != nil {
			// New succeeded once with identical inputs in NewPool; roll the
			// slot back so the pool stays usable anyway.
			pl.mu.Lock()
			pl.created--
			pl.mu.Unlock()
			return nil, fmt.Errorf("hypo: Pool engine construction failed: %w", err)
		}
		pl.mets.PoolNews.Inc()
		return e, nil
	}
	pl.mu.Unlock()
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case e := <-pl.free:
		pl.idleBytes.Add(-e.MemBytes())
		pl.mets.PoolGets.Inc()
		return pl.fresh(e)
	case <-pl.closing:
		return nil, ErrPoolClosed
	case <-ctx.Done():
		return nil, topdown.ContextAbort(ctx.Err())
	}
}

// build constructs an engine at the current data version over a clone
// of the pool's base.
func (pl *Pool) build() (*Engine, error) {
	sub, version := pl.clone()
	e, err := assemble(pl.prog, pl.opts, pl.dom, sub)
	if err != nil {
		return nil, err
	}
	e.version = version
	return e, nil
}

// fresh returns e if it matches the current data version. A stale engine
// first tries to catch up in place: if the pool's history reaches back to
// the engine's version, each commit since is applied incrementally —
// derived state outside the commits' affected cones survives, warm. Only
// when the history does not reach back (engine idle past the history
// bound, bulk load, reset) or an application fails is the engine dropped
// and rebuilt from a clone of the base. A rebuild failure — New already
// succeeded with the same rules in NewPool — releases the engine slot so
// the pool keeps serving.
func (pl *Pool) fresh(e *Engine) (*Engine, error) {
	if e.version == pl.version.Load() {
		return e, nil
	}
	if pl.catchUp(e) {
		return e, nil
	}
	pl.mets.LiveIncrementalFallbacks.Inc()
	ne, err := pl.build()
	if err != nil {
		pl.mu.Lock()
		pl.created--
		pl.mu.Unlock()
		return nil, fmt.Errorf("hypo: Pool engine rebuild failed: %w", err)
	}
	pl.mets.LiveRebuilds.Inc()
	return ne, nil
}

// catchUp applies the commits since e's version to e in place, reporting
// whether it could; on false e may be half-mutated and must be dropped.
func (pl *Pool) catchUp(e *Engine) bool {
	ds, to, ok := pl.since(e.version)
	if !ok {
		return false
	}
	atoms := 0
	for _, d := range ds {
		if err := e.applyDeltaCompiled(d.added, d.removed, d.cone); err != nil {
			return false
		}
		atoms += len(d.added) + len(d.removed)
	}
	e.version = to
	pl.mets.LiveIncrementalApplies.Inc()
	pl.mets.LiveIncrementalAtoms.Add(int64(atoms))
	return true
}

// put returns a leased engine; never blocks since created ≤ cap(free).
// Engines returned after Close are dropped so their memory is released.
func (pl *Pool) put(e *Engine) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.closed {
		pl.created--
		return
	}
	pl.mets.PoolPuts.Inc()
	pl.idleBytes.Add(e.MemBytes())
	pl.free <- e
}

// MemBytes reports the pool's tracked resident footprint: the summed
// accounted bytes (interned symbols, base facts, memo tables,
// materialisations) of its idle engines plus the answer cache's stored
// bytes. Engines currently leased to in-flight queries are not counted —
// their footprint is attributed to the query holding them. The figure is
// an accounting estimate, not an RSS measurement.
func (pl *Pool) MemBytes() int64 {
	n := pl.idleBytes.Load()
	if pl.cache != nil {
		n += pl.cache.Stats().Bytes
	}
	return n
}

// CacheMemBytes reports the answer cache's share of MemBytes (0 when the
// pool has no cache).
func (pl *Pool) CacheMemBytes() int64 {
	if pl.cache == nil {
		return 0
	}
	return pl.cache.Stats().Bytes
}

// TrimMemory brings the pool's tracked footprint to at most target:
// it drops idle engines until the footprint is there or none remain,
// then evicts least-recently-used cached answers (counted as cache
// evictions) until it is there or the cache is empty. It returns the
// number of engines released. Dropped slots are recreated lazily on
// demand, so a trim trades warm memo tables and cached answers for
// memory — it never shrinks the pool's capacity. In-flight leases are
// untouched.
func (pl *Pool) TrimMemory(target int64) int {
	dropped := 0
	for pl.MemBytes() > target {
		select {
		case e := <-pl.free:
			pl.idleBytes.Add(-e.MemBytes())
			pl.mu.Lock()
			pl.created--
			pl.mu.Unlock()
			dropped++
			continue
		default:
		}
		if pl.cache != nil {
			pl.cache.Trim(target - pl.idleBytes.Load())
		}
		break
	}
	return dropped
}

// AskInfoCtx is Read of a ground premise answered yes or no. It stays
// only while benchmark/ladder.go calls it, and goes when the ladder does.
func (pl *Pool) AskInfoCtx(ctx context.Context, query string) (ok bool, info ReadInfo, err error) {
	info, err = pl.Read(ctx, Request{Kind: ReadAsk, Query: query}, holds(&ok))
	return ok, info, err
}

// Do leases an engine, calls fn with it, and returns the engine to the
// pool — even if fn panics (the panic is re-raised after the engine is
// back on the free list). It is the escape hatch for callers that need
// several operations on one lease (e.g. a batch of queries that should
// not interleave with other traffic, or the work of several reads
// together as the change in Engine.Stats, the engine's ledger). The
// engine must not be retained or used after fn returns. The context
// bounds only the wait for a free engine; pass it to Engine.Read inside
// fn to bound evaluation too.
func (pl *Pool) Do(ctx context.Context, fn func(*Engine) error) error {
	e, err := pl.get(ctx)
	if err != nil {
		return err
	}
	defer pl.put(e)
	return fn(e)
}

// QueryEachInfoCtx is Read of a premise that may contain variables,
// filling info as Request.Info describes. It stays only while
// benchmark/ladder.go calls it, and goes when the ladder does.
func (pl *Pool) QueryEachInfoCtx(ctx context.Context, query string, info *ReadInfo, yield func(Binding) error) error {
	_, err := pl.Read(ctx, Request{Kind: ReadQuery, Query: query, Info: info}, yield)
	return err
}

// ExplainCtx returns a rendered derivation tree for a provable ground
// query ("" when it does not hold) plus the data version it was computed
// at; see Engine.Explain. Explanations always run on a uniform engine:
// when the pool's engines are uniform the leased engine's warm memo
// tables answer directly; when they run the cascade, a one-off uniform
// engine is built from a clone of the pool's base (an
// explanation is a diagnostic read — one extra engine build is the price
// of a proof tree, not a hot-path cost). Answers bypass the cache: the
// proof tree, not the boolean, is the product. ctx bounds both the wait
// for a free engine and the proof search, like a Read's: a search past
// the deadline aborts with ErrDeadline (ErrCanceled on cancellation), and
// Options.MaxGoals and MaxMemoryBytes bound it as they bound a query.
func (pl *Pool) ExplainCtx(ctx context.Context, query string) (out string, info ReadInfo, err error) {
	w := trackQuery(pl.mets)
	// The lease is kept even when a throwaway engine does the work, for
	// its admission effect: at most PoolSize explanations run at once.
	err = pl.Do(ctx, func(e *Engine) (err error) {
		info = ReadInfo{DataVersion: e.version, Cache: CacheBypass}
		if !e.uniform {
			sub, version := pl.clone()
			opts := pl.opts
			opts.Mode = ModeUniform
			if e, err = assemble(pl.prog, opts, pl.dom, sub); err != nil {
				return fmt.Errorf("hypo: building uniform engine for Explain: %w", err)
			}
			info.DataVersion = version
		}
		info.Stats, err = e.measured(ctx, func() (err error) {
			out, err = e.explain(query)
			return err
		})
		return err
	})
	w.done(err)
	return out, info, err
}

// AskUnderInfoCtx is Read of a ground premise under outer adds,
// answered yes or no. It stays only while benchmark/ladder.go calls it,
// and goes when the ladder does.
func (pl *Pool) AskUnderInfoCtx(ctx context.Context, query string, added ...string) (ok bool, info ReadInfo, err error) {
	info, err = pl.Read(ctx, Request{Kind: ReadAskUnder, Query: query, Add: added}, holds(&ok))
	return ok, info, err
}
