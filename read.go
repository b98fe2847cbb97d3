package hypo

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/cache"
	"hypodatalog/internal/metrics"
	"hypodatalog/internal/parser"
	"hypodatalog/internal/symbols"
	"hypodatalog/internal/topdown"
)

// The one read path. Definition 3 of the paper has a single judgement,
// R, DB+{B̄} ⊢ ψσ; a Request is that judgement with zero-or-more bindings
// σ and zero-or-more outer adds B̄, and Engine.Read and Pool.Read are its
// only two entry points. Both are built on three functions:
//
//   - compileRead: parse, validate read-only, then intern. Nothing a
//     rejected read mentions reaches the shared symbol table.
//   - (*Engine).eval: state = empty + adds, then the premise run as a
//     one-premise rule body, which enumerates σ; a ground read yields one
//     empty binding when it holds.
//   - (*Pool).read: data-version pinning, the answer cache above the
//     lease, the lease itself, per-query measurement and replay.

// ReadKind selects the judgement's shape. Its value is the first byte of
// the read's answer-cache key.
type ReadKind byte

const (
	// ReadAsk decides a ground premise: one empty binding when it holds,
	// none otherwise.
	ReadAsk ReadKind = 'a'
	// ReadQuery enumerates every binding of the premise's variables over
	// dom(R, DB) that makes it hold; a ground premise reads like ReadAsk.
	ReadQuery ReadKind = 'q'
	// ReadAskUnder decides a ground premise in the database
	// hypothetically extended with Request.Add — the programmatic form of
	// nesting everything under one [add: ...].
	ReadAskUnder ReadKind = 'u'
)

func (k ReadKind) String() string {
	switch k {
	case ReadAsk:
		return "Ask"
	case ReadAskUnder:
		return "AskUnder"
	case ReadQuery:
		return "Query"
	default:
		return fmt.Sprintf("ReadKind(%d)", byte(k))
	}
}

// Request is one read: a premise in surface syntax, e.g. "grad(tony)",
// "not yes", "grad(S)[add: take(S, c1)]", of the given kind.
type Request struct {
	Kind  ReadKind
	Query string
	// Add holds the outer hypothetical adds, ground atoms in surface
	// syntax. Only ReadAskUnder takes them.
	Add []string
	// Info, when non-nil, is filled in two phases as the read runs:
	// DataVersion and Cache before the first yield (so a streaming
	// caller can send them ahead of the bindings), Stats on return. Read
	// returns the same value.
	Info *ReadInfo
}

// compiledRead is one read, validated and interned.
type compiledRead struct {
	kind ReadKind
	body ast.CRule   // the premise as a one-premise body; VarNames in slot order
	adds []ast.CAtom // outer hypothetical adds (AskUnder)

	// key is the canonical answer-cache key: the kind, the parsed premise
	// rendered back to surface syntax (so formatting differences collapse)
	// and, for AskUnder, the sorted adds (so one hypothetical state reached
	// in a different add order shares an entry). Ask and AskUnder keep
	// distinct prefixes even when semantically equivalent — a little
	// duplication for keys that are trivially correct.
	key string
}

// compileRead parses and validates a read on its surface form — ground
// adds, every constant inside dom(R, DB) (variable enumeration and
// negation-as-failure range over the engine's fixed domain, so a fresh
// constant would silently be excluded from them and could produce wrong
// answers), a ground premise unless the kind enumerates — using read-only
// symbol lookups, and only then interns it. A stream of bad reads against
// one Program therefore cannot leak interned garbage into every engine
// sharing its symbol table.
func compileRead(req Request, syms *symbols.Table, domSet map[symbols.Const]bool) (*compiledRead, error) {
	kind, added := req.Kind, req.Add
	switch {
	case kind != ReadAsk && kind != ReadQuery && kind != ReadAskUnder:
		return nil, fmt.Errorf("hypo: unknown read kind %v", kind)
	case kind != ReadAskUnder && len(added) > 0:
		return nil, fmt.Errorf("hypo: %s takes no outer adds; use AskUnder", kind)
	}
	adds := make([]ast.Atom, len(added))
	sorted := make([]string, len(added))
	for i, src := range added {
		a, err := parser.ParseAtom(src)
		if err != nil {
			return nil, err
		}
		if !a.IsGround() {
			return nil, fmt.Errorf("hypo: added atom %q is not ground", src)
		}
		if err := checkAtomDomain(a, syms, domSet); err != nil {
			return nil, err
		}
		adds[i], sorted[i] = a, a.String()
	}
	pr, err := parser.ParsePremise(req.Query)
	if err != nil {
		return nil, err
	}
	if err := checkQueryDomain(pr, syms, domSet); err != nil {
		return nil, err
	}
	if pr.Kind == ast.NegHyp {
		return nil, fmt.Errorf("hypo: query %s: negated hypotheticals are not supported", pr)
	}
	if kind != ReadQuery && len(pr.Vars(nil)) > 0 {
		return nil, fmt.Errorf("hypo: %s needs a ground query; use Query for %q", kind, req.Query)
	}

	r := &compiledRead{kind: kind, key: string(kind) + "\x1f" + pr.String()}
	if kind == ReadAskUnder {
		sort.Strings(sorted)
		r.key += "\x1f" + strings.Join(sorted, "\x1f")
	}
	for _, a := range adds {
		ca, err := compileGroundAtom(a, syms)
		if err != nil {
			return nil, err
		}
		r.adds = append(r.adds, ca)
	}
	cpr, err := ast.CompilePremise(pr, syms, map[string]int{}, &r.body.VarNames)
	if err != nil {
		return nil, err
	}
	r.body.Body, r.body.NumVars = []ast.CPremise{cpr}, len(r.body.VarNames)
	return r, nil
}

// eval decides the read on this engine: it extends the base state with
// the outer adds and streams every binding of the premise's variables
// over dom(R, DB) that makes it hold — for a ground premise, one empty
// binding if it holds and none otherwise. It never touches the shared
// symbol table. A non-nil error from yield stops the enumeration and is
// returned verbatim.
func (e *Engine) eval(r *compiledRead, yield func(Binding) error) error {
	st := e.ev.EmptyState()
	for _, ca := range r.adds {
		st = st.Add(e.ev.Interner().Ground(ca, nil))
	}
	return e.ev.Read(&r.body, st, func(s []symbols.Const) error {
		b := make(Binding, len(s))
		for slot, name := range r.body.VarNames {
			b[name] = e.prog.syms.ConstName(s[slot])
		}
		return yield(b)
	})
}

// measured runs fn as one query on the engine. It is the one place a
// query begins: the engine's Budget starts afresh under ctx — a context
// already done runs nothing — and every component polls it until fn
// returns. The query's work, read off the Budget's ledger, is charged to
// the engine's metric set and returned, and it is what an abort — raised
// by any component — reports. Hot evaluation loops never touch the
// metrics package: all accounting happens here and in
// applyDeltaCompiled, once per query or commit.
func (e *Engine) measured(ctx context.Context, fn func() error) (Stats, error) {
	err := e.budget.Begin(ctx)
	defer e.budget.End()
	if err == nil {
		err = fn()
	}
	work := e.budget.Work()
	e.charge(work)
	var ae *AbortError
	if errors.As(err, &ae) {
		// Keep a memory abort's own reading of the growth that tripped it.
		mem := ae.Stats.MemBytes
		ae.Stats = work
		if mem != 0 {
			ae.Stats.MemBytes = mem
		}
	}
	return work, err
}

// charge adds an evaluator-work delta to the engine's metric set.
func (e *Engine) charge(work Stats) {
	e.mets.GoalExpansions.Add(work.Goals)
	e.mets.TableHits.Add(work.TableHits)
	e.mets.DeltaMaterialisations.Add(work.Materialisations)
	e.mets.DeltaMaterialisationsDerived.Add(work.DerivedModels)
	e.mets.LiveIncrementalStates.Add(work.IncStates)
	e.mets.LiveIncrementalDropped.Add(work.IncDropped)
}

// Read decides req on this engine, streaming each binding to yield in
// enumeration order as soon as its proof succeeds; a ground read yields
// one empty binding when it holds and none otherwise. A non-nil error
// from yield stops the enumeration and is returned verbatim. When ctx is
// canceled or its deadline expires mid-evaluation, Read returns an
// *AbortError wrapping ErrCanceled or ErrDeadline within a bounded number
// of goal expansions. An Engine is single-flight — the context governs
// the one running read. The ReadInfo carries the engine's data version,
// CacheBypass, and the evaluation work this read performed.
func (e *Engine) Read(ctx context.Context, req Request, yield func(Binding) error) (ReadInfo, error) {
	info := req.Info
	if info == nil {
		info = new(ReadInfo)
	}
	*info = ReadInfo{DataVersion: e.version, Cache: CacheBypass}
	fin := trackQuery(e.mets)
	r, err := compileRead(req, e.prog.syms, e.dom.set)
	if err == nil {
		info.Stats, err = e.measured(ctx, func() error { return e.eval(r, yield) })
	}
	fin(err)
	return *info, err
}

// holds is the yield of a ground read whose caller wants only the
// answer: it records that a binding arrived.
func holds(ok *bool) func(Binding) error {
	return func(Binding) error {
		*ok = true
		return nil
	}
}

// collectInto is the yield that materialises a binding stream.
func collectInto(out *[]Binding) func(Binding) error {
	return func(b Binding) error {
		*out = append(*out, b)
		return nil
	}
}

// read serves one compiled read from the pool, streaming its bindings to
// yield and describing how it was served in info: DataVersion and Cache
// are set before the first yield, Stats on return. It is the only place
// that knows the serving protocol:
//
//   - Version pinning: the cache key carries the data version current at
//     entry. If a hot swap lands before the lease, the (correct, newer)
//     answer is returned but not stored, so an entry's version always
//     equals its key's.
//   - Cache above lease: a hit, or a caller coalesced onto an identical
//     in-flight miss, replays the stored bindings in their original
//     enumeration order and never draws an engine.
//   - A miss streams each binding as it is proved while materialising the
//     set; an enumeration cut short — by yield or by an abort — surfaces
//     its error verbatim and caches nothing, the set being partial.
func (pl *Pool) read(ctx context.Context, r *compiledRead, info *ReadInfo, yield func(Binding) error) error {
	lease := func(status CacheStatus, sink func(Binding) error) error {
		return pl.Do(ctx, func(e *Engine) (err error) {
			info.DataVersion, info.Cache = e.version, status
			info.Stats, err = e.measured(ctx, func() error { return e.eval(r, sink) })
			return err
		})
	}
	if pl.cache == nil {
		return lease(CacheBypass, yield)
	}
	key := cache.Key{Version: pl.Version(), Query: r.key}
	v, st, err := pl.cache.Do(ctx, key, func() (cache.Computed, error) {
		var acc []Binding
		err := lease(CacheMiss, func(b Binding) error {
			acc = append(acc, b)
			return yield(b)
		})
		if err != nil {
			return cache.Computed{}, err
		}
		return cache.Computed{
			Val:   &cachedAnswer{bindings: acc, version: info.DataVersion},
			Bytes: answerBytes(acc),
			Store: info.DataVersion == key.Version,
		}, nil
	})
	var we *cache.WaitError
	switch {
	case errors.As(err, &we):
		// The caller's context ended while it waited on another caller's
		// evaluation: report it like every other ctx-bounded wait.
		return topdown.ContextAbort(we.Err)
	case err != nil || st == cache.Miss:
		return err // a miss's yield already saw every binding
	}
	ca := v.(*cachedAnswer)
	info.DataVersion, info.Cache = ca.version, CacheHit
	if st == cache.Coalesced {
		info.Cache = CacheCoalesced
	}
	for _, b := range ca.bindings {
		if err := yield(b); err != nil {
			return err
		}
	}
	return nil
}

// Read is Engine.Read served from the pool: the context also bounds the
// wait for a free engine, and the read is compiled (interning into the
// shared, concurrency-safe symbol table) before it draws one, so a
// malformed read never occupies — or blocks waiting for — an evaluation
// slot. With the answer cache enabled a miss streams each binding as it
// is proved while materialising the set for later hits, which replay in
// the original enumeration order and lease no engine. The ReadInfo says
// how the read was served: the data version the answer is valid at,
// whether the cache was hit, missed, coalesced onto another caller's
// identical in-flight evaluation, or bypassed, and the evaluation work
// this call performed.
func (pl *Pool) Read(ctx context.Context, req Request, yield func(Binding) error) (ReadInfo, error) {
	info := req.Info
	if info == nil {
		info = new(ReadInfo)
	}
	*info = ReadInfo{}
	fin := trackQuery(pl.mets)
	r, err := compileRead(req, pl.prog.syms, pl.dom.set)
	if err == nil {
		err = pl.read(ctx, r, info, yield)
	}
	fin(err)
	return *info, err
}

// trackQuery opens a metrics window for one top-level query; the
// returned func closes it, classifying the outcome — queries_started
// always equals succeeded + failed + canceled.
func trackQuery(m *metrics.Set) func(error) {
	m.QueriesStarted.Inc()
	start := time.Now()
	return func(err error) {
		m.QueryLatency.Observe(time.Since(start).Seconds())
		switch {
		case err == nil:
			m.QueriesSucceeded.Inc()
		case errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadline):
			m.QueriesCanceled.Inc()
		default:
			if errors.Is(err, ErrMemory) {
				m.MemQueryAborts.Inc()
			}
			m.QueriesFailed.Inc()
		}
	}
}
