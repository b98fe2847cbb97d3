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
// verProgram pairs a program with its data version so both swap
// atomically under setProgram. It also owns the version's fact
// substrate — the interner and base database holding the program's
// facts — built at most once per version no matter how many engines
// rebuild at it: after a commit invalidates every idle engine, K
// concurrent leases would otherwise each re-intern the whole fact set
// (the thundering herd); with the singleflight they share one build and
// pay only a clone each.
type verProgram struct {
	prog    *Program
	version uint64
	mets    *metrics.Set // the owning pool's set (never nil)

	subOnce sync.Once
	sub     *substrate
	subErr  error
}

// substrate builds the version's fact substrate on first use; concurrent
// callers block on the one build.
func (v *verProgram) substrate() (*substrate, error) {
	v.subOnce.Do(func() {
		v.mets.LiveSubstrateBuilds.Inc()
		v.sub, v.subErr = buildSubstrate(v.prog)
	})
	return v.sub, v.subErr
}

// commitDelta is one commit's effective base-fact change, kept so stale
// idle engines can catch up from version `from` to `to` by mutating
// their state in place instead of rebuilding.
type commitDelta struct {
	from, to uint64
	added    []ast.CAtom
	removed  []ast.CAtom
	cone     map[symbols.Pred]bool
}

const (
	// maxDeltaHistory bounds how many commits the pool retains for
	// catch-up; an engine idle for longer rebuilds.
	maxDeltaHistory = 64
	// maxDeltaAtoms bounds one commit's recorded delta; a bulk load
	// bigger than this is cheaper to rebuild into than to propagate.
	maxDeltaAtoms = 1024
)

type Pool struct {
	prog   *Program // the seed program; syms and domSet are version-stable
	opts   Options
	domSet map[symbols.Const]bool
	mets   *metrics.Set // metric set for pool traffic (never nil)

	// cache is the pool-wide versioned answer cache (nil when
	// Options.CacheBytes is zero). It sits ABOVE the engine lease:
	// coalesced callers of one in-flight query and callers served from a
	// stored entry never draw an engine at all.
	cache *cache.Cache

	// cur is the program/version engines must be built against. Leases
	// check it on every get: an idle engine carrying an older version is
	// discarded — memo tables keyed to a stale base DB must never answer
	// for a newer one — and rebuilt from cur before being handed out.
	cur atomic.Pointer[verProgram]

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

	// hmu guards the commit-delta history.
	hmu     sync.Mutex
	history []commitDelta
}

// NewPool builds an engine pool. It constructs one engine eagerly so that
// configuration errors (e.g. cascade mode without a linear
// stratification) surface immediately. The pool holds at most
// Options.PoolSize engines (GOMAXPROCS when zero).
func NewPool(p *Program, opts Options) (*Pool, error) {
	mets := opts.metricSet()
	var ac *cache.Cache
	if opts.CacheBytes > 0 {
		ac = cache.New(opts.CacheBytes, mets)
	}
	first, err := New(p, opts)
	if err != nil {
		return nil, err
	}
	size := opts.PoolSize
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	pl := &Pool{
		prog:    p,
		opts:    opts,
		domSet:  first.domSet,
		mets:    mets,
		cache:   ac,
		free:    make(chan *Engine, size),
		closing: make(chan struct{}),
		created: 1,
	}
	pl.cur.Store(&verProgram{prog: p, mets: mets})
	pl.idleBytes.Add(first.MemBytes())
	pl.free <- first
	mets.PoolNews.Inc()
	return pl, nil
}

// setProgram swaps the pool to a new data version of its program. The
// swap is a hot one: in-flight queries keep the engines (and hence the
// exact base DB and memo state) they leased — snapshot isolation — while
// every lease that starts after setProgram returns evaluates at the new
// version, rebuilding any stale idle engine it draws. The program must
// share the seed program's symbol table (Pool compiles queries against
// it before leasing), which holds for every Program.withFacts
// derivative. Versions are monotonic: a swap carrying a version older
// than the current one is dropped, so delayed or racing swaps (e.g. a
// slow commit finishing after a newer one already published) can never
// roll the served data version back. Used by Live; a static pool never
// calls it.
func (pl *Pool) setProgram(p *Program, version uint64) {
	next := &verProgram{prog: p, version: version, mets: pl.mets}
	for {
		cur := pl.cur.Load()
		if cur != nil && version < cur.version {
			return
		}
		if pl.cur.CompareAndSwap(cur, next) {
			return
		}
	}
}

// setProgramDelta is setProgram for commits whose effective base-fact
// change is known: it records the delta (with its affected predicate
// cone) in the pool's catch-up history before publishing the new
// version, so stale idle engines drawn after the swap apply the change
// in place — keeping memo tables and materialisations outside the cone —
// instead of rebuilding from scratch. Oversized batches and deltas that
// fail to compile are published without history; engines then rebuild
// exactly as under setProgram, sharing the version's substrate build.
// Cached answers of the old version are not carried: they age out under
// LRU like any other entry.
func (pl *Pool) setProgramDelta(p *Program, version uint64, added, removed []ast.Atom) {
	if len(added)+len(removed) <= maxDeltaAtoms {
		if cadd, crem, err := compileDelta(added, removed, p.syms); err == nil {
			cone := p.rel.Affected(cadd, crem)
			pl.hmu.Lock()
			if from := pl.cur.Load().version; version > from {
				pl.history = append(pl.history, commitDelta{from: from, to: version, added: cadd, removed: crem, cone: cone})
				if len(pl.history) > maxDeltaHistory {
					pl.history = append([]commitDelta(nil), pl.history[len(pl.history)-maxDeltaHistory:]...)
				}
			}
			pl.hmu.Unlock()
		}
	}
	pl.setProgram(p, version)
}

// deltasBetween returns the contiguous chain of recorded commit deltas
// leading from version `from` to version `to`, or ok=false when the
// history has a gap (evicted entry, oversized batch, plain setProgram).
func (pl *Pool) deltasBetween(from, to uint64) ([]commitDelta, bool) {
	pl.hmu.Lock()
	defer pl.hmu.Unlock()
	var out []commitDelta
	v := from
	for v < to {
		found := false
		for i := range pl.history {
			if pl.history[i].from == v {
				out = append(out, pl.history[i])
				v = pl.history[i].to
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	if v != to {
		return nil, false
	}
	return out, true
}

// Version reports the data version new leases evaluate at.
func (pl *Pool) Version() uint64 { return pl.cur.Load().version }

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

// build constructs an engine at the current data version, cloning the
// version's singleflighted fact substrate instead of re-interning the
// facts per engine.
func (pl *Pool) build() (*Engine, error) {
	cur := pl.cur.Load()
	sub, err := cur.substrate()
	if err != nil {
		return nil, err
	}
	e, err := assemble(cur.prog, pl.opts, sub.clone())
	if err != nil {
		return nil, err
	}
	e.version = cur.version
	return e, nil
}

// fresh returns e if it matches the current data version. A stale engine
// first tries to catch up in place: if the pool's history holds a
// contiguous chain of commit deltas from the engine's version to the
// current one, each is applied incrementally — derived state outside the
// commits' affected cones survives, warm. Only when the chain is missing
// (engine idle past the history bound, bulk load, plain setProgram) or
// an application fails is the engine dropped and rebuilt from the
// version's substrate. A rebuild failure — only possible if a withFacts
// derivative fails to construct, which New already succeeded on at
// setProgram time — releases the engine slot so the pool keeps serving.
func (pl *Pool) fresh(e *Engine) (*Engine, error) {
	cur := pl.cur.Load()
	if e.version == cur.version {
		return e, nil
	}
	if ds, ok := pl.deltasBetween(e.version, cur.version); ok {
		applied := true
		atoms := 0
		for _, d := range ds {
			if err := e.applyDeltaCompiled(d.added, d.removed, d.cone); err != nil {
				// The engine is half-mutated; fall through to a rebuild.
				applied = false
				break
			}
			atoms += len(d.added) + len(d.removed)
		}
		if applied {
			e.prog = cur.prog
			e.version = cur.version
			pl.mets.LiveIncrementalApplies.Inc()
			pl.mets.LiveIncrementalAtoms.Add(int64(atoms))
			return e, nil
		}
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

// CacheMemBytes reports the answer cache's share of MemBytes — the
// part TrimMemory cannot reclaim (0 when the pool has no cache).
func (pl *Pool) CacheMemBytes() int64 {
	if pl.cache == nil {
		return 0
	}
	return pl.cache.Stats().Bytes
}

// TrimMemory drops idle engines until the pool's tracked footprint is at
// or below target (or no idle engines remain), returning the number of
// engines released. Dropped slots are recreated lazily on demand, so a
// trim trades warm memo tables for memory — it never shrinks the pool's
// capacity. In-flight leases are untouched.
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
		default:
			return dropped
		}
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
// engine is built from the current version's fact substrate (an
// explanation is a diagnostic read — one extra engine build is the price
// of a proof tree, not a hot-path cost). Answers bypass the cache: the
// proof tree, not the boolean, is the product. ctx bounds both the wait
// for a free engine and the proof search, like a Read's: a search past
// the deadline aborts with ErrDeadline (ErrCanceled on cancellation), and
// Options.MaxGoals and MaxMemoryBytes bound it as they bound a query.
func (pl *Pool) ExplainCtx(ctx context.Context, query string) (out string, info ReadInfo, err error) {
	fin := trackQuery(pl.mets)
	// The lease is kept even when a throwaway engine does the work, for
	// its admission effect: at most PoolSize explanations run at once.
	err = pl.Do(ctx, func(e *Engine) (err error) {
		info = ReadInfo{DataVersion: e.version, Cache: CacheBypass}
		if !e.uniform {
			cur := pl.cur.Load()
			sub, err := cur.substrate()
			if err != nil {
				return err
			}
			opts := pl.opts
			opts.Mode = ModeUniform
			if e, err = assemble(cur.prog, opts, sub.clone()); err != nil {
				return fmt.Errorf("hypo: building uniform engine for Explain: %w", err)
			}
			info.DataVersion = cur.version
		}
		info.Stats, err = e.measured(ctx, func() (err error) {
			out, err = e.explain(query)
			return err
		})
		return err
	})
	fin(err)
	return out, info, err
}

// AskUnderInfoCtx is Read of a ground premise under outer adds,
// answered yes or no. It stays only while benchmark/ladder.go calls it,
// and goes when the ladder does.
func (pl *Pool) AskUnderInfoCtx(ctx context.Context, query string, added ...string) (ok bool, info ReadInfo, err error) {
	info, err = pl.Read(ctx, Request{Kind: ReadAskUnder, Query: query, Add: added}, holds(&ok))
	return ok, info, err
}
