package hypo

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
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

// compiledRead is one read, validated and interned. Its parts are the
// domain's memo entries, shared with every other read of the same text.
type compiledRead struct {
	kind ReadKind
	prem *memoPremise
	adds []*memoAtom // outer hypothetical adds (AskUnder), in request order
}

// key is the canonical answer-cache key: the kind, the parsed premise
// rendered back to surface syntax (so formatting differences collapse)
// and, for AskUnder, the sorted adds (so one hypothetical state reached
// in a different add order shares an entry). Ask and AskUnder keep
// distinct prefixes even when semantically equivalent — a little
// duplication for keys that are trivially correct.
func (r *compiledRead) key() string {
	var buf [8]*memoAtom
	sorted := append(buf[:0], r.adds...)
	slices.SortFunc(sorted, func(a, b *memoAtom) int { return strings.Compare(a.text, b.text) })
	n := 3 + len(r.prem.text)
	for _, a := range sorted {
		n += 1 + len(a.text)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteByte(byte(r.kind))
	b.WriteByte('\x1f')
	b.WriteString(r.prem.text)
	if r.kind == ReadAskUnder {
		b.WriteByte('\x1f')
		for i, a := range sorted {
			if i > 0 {
				b.WriteByte('\x1f')
			}
			b.WriteString(a.text)
		}
	}
	return b.String()
}

// readMemo holds the compiled parts of the reads a domain has accepted,
// by their text: premises, and ground adds. The domain fixes which texts
// are valid for as long as it lives, so an entry never goes stale; a
// read whose parts are all held skips lexing, parsing, validation and
// the String() of its cache key.
type readMemo struct {
	premises memoMap[*memoPremise]
	atoms    memoMap[*memoAtom]
}

// maxMemoEntries and maxMemoBytes bound each memoMap.
const (
	maxMemoEntries = 4096
	maxMemoBytes   = 1 << 20
)

// memoMap is one of a readMemo's maps, by the text a request carries. It
// holds at most maxMemoEntries entries and maxMemoBytes bytes of text,
// counting the text looked up and the text rendered back; one that would
// go past either is emptied before the insert, so a stream of one-off
// texts cannot keep the hot ones out for good, and a text over
// maxMemoBytes on its own is not held. Its zero value is empty and ready
// to use.
type memoMap[V any] struct {
	mu    sync.RWMutex
	m     map[string]V
	bytes int
}

func (mm *memoMap[V]) get(src string) V {
	mm.mu.RLock()
	defer mm.mu.RUnlock()
	return mm.m[src]
}

// put holds v, compiled from src and rendered back as text.
func (mm *memoMap[V]) put(src, text string, v V) {
	n := len(src) + len(text)
	if n > maxMemoBytes {
		return
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if mm.m == nil || len(mm.m) >= maxMemoEntries || mm.bytes+n > maxMemoBytes {
		mm.m, mm.bytes = map[string]V{}, 0
	}
	mm.m[src] = v
	mm.bytes += n
}

// memoPremise is a compiled, validated read premise.
type memoPremise struct {
	body ast.CRule // the premise as a one-premise body; VarNames in slot order
	text string    // the premise rendered back to surface syntax
}

// memoAtom is a compiled, validated ground add.
type memoAtom struct {
	atom ast.CAtom
	text string // the atom rendered back to surface syntax
}

// compileRead validates a read on its surface form — ground adds, every
// constant inside dom(R, DB) (variable enumeration and
// negation-as-failure range over the engine's fixed domain, so a fresh
// constant would silently be excluded from them and could produce wrong
// answers), a ground premise unless the kind enumerates — using the
// domain's memo and read-only symbol lookups, and only then compiles,
// interning, the parts the memo did not hold. A stream of bad reads
// against one Program therefore cannot leak interned garbage into every
// engine sharing its symbol table.
func compileRead(req Request, syms *symbols.Table, dom *domain) (*compiledRead, error) {
	kind := req.Kind
	switch {
	case kind != ReadAsk && kind != ReadQuery && kind != ReadAskUnder:
		return nil, fmt.Errorf("hypo: unknown read kind %v", kind)
	case kind != ReadAskUnder && len(req.Add) > 0:
		return nil, fmt.Errorf("hypo: %s takes no outer adds; use AskUnder", kind)
	}
	r := &compiledRead{kind: kind}
	var fresh []ast.Atom // the parsed adds the memo lacked, by position
	if len(req.Add) > 0 {
		r.adds = make([]*memoAtom, len(req.Add))
	}
	for i, src := range req.Add {
		if r.adds[i] = dom.memo.atoms.get(src); r.adds[i] != nil {
			continue
		}
		a, err := parser.ParseAtom(src)
		if err != nil {
			return nil, err
		}
		if !a.IsGround() {
			return nil, fmt.Errorf("hypo: added atom %q is not ground", src)
		}
		if err := checkAtomDomain(a, syms, dom.set); err != nil {
			return nil, err
		}
		if fresh == nil {
			fresh = make([]ast.Atom, len(req.Add))
		}
		fresh[i] = a
	}
	var pr *ast.Premise // parsed when the memo lacked the premise
	open := false
	if r.prem = dom.memo.premises.get(req.Query); r.prem != nil {
		open = r.prem.body.NumVars > 0
	} else {
		p, err := parser.ParsePremise(req.Query)
		if err != nil {
			return nil, err
		}
		if err := checkQueryDomain(p, syms, dom.set); err != nil {
			return nil, err
		}
		if p.Kind == ast.NegHyp {
			return nil, fmt.Errorf("hypo: query %s: negated hypotheticals are not supported", p)
		}
		pr, open = &p, len(p.Vars(nil)) > 0
	}
	if kind != ReadQuery && open {
		return nil, fmt.Errorf("hypo: %s needs a ground query; use Query for %q", kind, req.Query)
	}

	// Every part is valid: compile what the memo lacked, interning it.
	for i, a := range fresh {
		if r.adds[i] != nil {
			continue
		}
		ca, err := compileGroundAtom(a, syms)
		if err != nil {
			return nil, err
		}
		r.adds[i] = &memoAtom{atom: ca, text: a.String()}
		dom.memo.atoms.put(req.Add[i], r.adds[i].text, r.adds[i])
	}
	if pr != nil {
		p := &memoPremise{text: pr.String()}
		cpr, err := ast.CompilePremise(*pr, syms, map[string]int{}, &p.body.VarNames)
		if err != nil {
			return nil, err
		}
		p.body.Body, p.body.NumVars = []ast.CPremise{cpr}, len(p.body.VarNames)
		r.prem = p
		dom.memo.premises.put(req.Query, p.text, p)
	}
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
	for _, a := range r.adds {
		st = st.Add(e.ev.Interner().Ground(a.atom, nil))
	}
	return e.ev.Read(&r.prem.body, st, func(s []symbols.Const) error {
		b := make(Binding, len(s))
		for slot, name := range r.prem.body.VarNames {
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
	if err != nil && errors.As(err, &ae) {
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
	w := trackQuery(e.mets)
	r, err := compileRead(req, e.prog.syms, e.dom)
	if err == nil {
		info.Stats, err = e.measured(ctx, func() error { return e.eval(r, yield) })
	}
	w.done(err)
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
	key := cache.Key{Version: pl.Version(), Query: r.key()}
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
	w := trackQuery(pl.mets)
	r, err := compileRead(req, pl.prog.syms, pl.dom)
	if err == nil {
		err = pl.read(ctx, r, info, yield)
	}
	w.done(err)
	return *info, err
}

// queryWindow is the metrics window of one top-level query, opened by
// trackQuery and closed by done, which classifies the outcome —
// queries_started always equals succeeded + failed + canceled.
type queryWindow struct {
	m     *metrics.Set
	start time.Time
}

func trackQuery(m *metrics.Set) queryWindow {
	m.QueriesStarted.Inc()
	return queryWindow{m: m, start: time.Now()}
}

func (w queryWindow) done(err error) {
	m := w.m
	m.QueryLatency.Observe(time.Since(w.start).Seconds())
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
