// Package hypo is a hypothetical Datalog engine: Datalog extended with
// premises of the form B[add: C1, ..., Cm], meaning "B would be provable
// if the facts Ci were inserted into the database", plus stratified
// negation-as-failure. It implements the language and results of
//
//	Anthony J. Bonner, "Hypothetical Datalog: Negation and Linear
//	Recursion", PODS 1989.
//
// # Quick start
//
//	prog, err := hypo.Parse(`
//	    take(tony, his101).
//	    take(tony, eng201).
//	    grad(S) :- take(S, his101), take(S, eng201).
//	`)
//	eng, err := hypo.New(prog, hypo.Options{})
//	ok, err := eng.Ask("grad(mary)[add: take(mary, his101), take(mary, eng201)]")
//
// Every read is one method, Engine.Read or Pool.Read, of a Request; Ask,
// Query and AskUnder are conveniences over it.
//
// # Syntax
//
// Programs are lists of clauses terminated by periods. Constants and
// predicate names start lower-case (or are integers, or 'quoted');
// variables start upper-case. Rules use ":-"; negation is "not" or "~";
// hypothetical premises append "[add: atom, ...]" and/or "[del: atom,
// ...]" to an atom (deletion is the EXPTIME extension mentioned in the
// paper's introduction). Comments run from "%" or "//" to end of line.
//
// # Semantics
//
// Inference follows Definition 3 of the paper with negation-as-failure:
// an atom holds if it is in the (hypothetically extended) database or
// follows from a rule instance over the domain dom(R, DB). Programs must
// have stratified negation — recursion through negation is rejected. A
// variable occurring only in negated premises is quantified inside the
// negation ("not p(X)" with X unused elsewhere reads "no instance of p is
// provable"), which is the reading the paper's EVEN and Hamiltonian-path
// examples require.
//
// # Complexity
//
// Deciding a query is PSPACE-complete in general. Programs that are
// linearly stratified with k strata (section 4 of the paper) are
// data-complete for Σ_k^P; Stratification reports the analysis. Two
// evaluators are provided: the default uniform top-down tabled engine,
// and the paper's PROVE cascade (ModeCascade), which requires a linear
// stratification.
package hypo

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"sync"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/depgraph"
	"hypodatalog/internal/engine"
	"hypodatalog/internal/facts"
	"hypodatalog/internal/metrics"
	"hypodatalog/internal/parser"
	"hypodatalog/internal/ref"
	"hypodatalog/internal/storage"
	"hypodatalog/internal/strat"
	"hypodatalog/internal/symbols"
	"hypodatalog/internal/topdown"
)

// Sentinel errors for aborted evaluations, re-exported from the
// evaluation layer. Test with errors.Is; recover the abort's work
// snapshot with errors.As on *AbortError.
var (
	// ErrBudget means Options.MaxGoals expansions were spent without an
	// answer.
	ErrBudget = topdown.ErrBudget
	// ErrCanceled means the query's context was canceled mid-evaluation.
	ErrCanceled = topdown.ErrCanceled
	// ErrDeadline means the query's context deadline expired
	// mid-evaluation.
	ErrDeadline = topdown.ErrDeadline
	// ErrMemory means the query grew the engine's tracked memory
	// footprint past Options.MaxMemoryBytes.
	ErrMemory = topdown.ErrMemory
)

// AbortError wraps ErrBudget, ErrCanceled or ErrDeadline with the
// configured limit (for ErrBudget) and a Stats snapshot of the work done
// before the abort.
type AbortError = topdown.AbortError

// Stats is the evaluation-work snapshot reported by Engine.Stats and
// carried by AbortError, re-exported so callers (e.g. internal/server's
// access logs) need not import the evaluation layer.
type Stats = topdown.Stats

// Program is a parsed, validated, compiled hypothetical Datalog program.
type Program struct {
	src  *ast.Program
	comp *ast.CProgram
	syms *symbols.Table
	strt *strat.Stratification // nil if not linearly stratifiable
	serr error                 // why strt is nil

	// graph returns the rules' dependency graph, which commit cones are
	// computed against. It is built once, on first use, and depends only
	// on the rules, so every data version derived by withFacts shares it.
	graph func() *depgraph.Graph
	// rel is the rules' relevance classes, which every engine's interner
	// projects states onto. Like strt it is computed when the program is
	// built, not per engine, and shared by every data version.
	rel *facts.Relevance

	// pinDom, when non-nil, overrides dom(R, DB) computation: every engine
	// built from this Program enumerates exactly these constants. Live
	// pools pin the domain at OpenLive so that all data versions of one
	// program agree on what "for all constants" means — recomputing dom
	// per version would let a retraction silently shrink the range of
	// negation-as-failure between two queries.
	pinDom []symbols.Const
}

// Parse parses, validates and compiles a program from source text.
// Negated-hypothetical premises (~A[add:B]) are rewritten away using the
// paper's section 3.1 transformation. Recursion through negation is an
// error; failing to be *linearly* stratifiable is not (the program is
// still evaluable, just without a Σ_k^P complexity bound or cascade
// support).
func Parse(src string) (*Program, error) {
	p, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return FromAST(p)
}

// ParseFile is Parse over the contents of a file.
func ParseFile(path string) (*Program, error) {
	p, err := parser.ParseFile(path)
	if err != nil {
		return nil, err
	}
	return FromAST(p)
}

// FromAST builds a Program from an already-constructed AST. The AST is
// modified in place by the negated-hypothetical rewrite.
func FromAST(p *ast.Program) (*Program, error) {
	ast.RewriteNegHyp(p)
	if errs := ast.Validate(p); len(errs) > 0 {
		msgs := make([]string, len(errs))
		for i, e := range errs {
			msgs[i] = e.Error()
		}
		return nil, errors.New(strings.Join(msgs, "; "))
	}
	if err := strat.CheckNegation(p); err != nil {
		return nil, err
	}
	syms := symbols.NewTable()
	cp, err := ast.Compile(p, syms)
	if err != nil {
		return nil, err
	}
	out := &Program{src: p, comp: cp, syms: syms}
	out.strt, out.serr = strat.Stratify(p)
	out.graph = sync.OnceValue(func() *depgraph.Graph {
		return depgraph.Build(&ast.Program{Rules: p.Rules})
	})
	out.rel = facts.NewRelevance(cp)
	return out, nil
}

// String renders the program back in surface syntax.
func (p *Program) String() string { return p.src.String() }

// WriteSnapshot serialises the program to a compact, checksummed binary
// snapshot (rules as canonical text, facts as interned binary blocks).
func (p *Program) WriteSnapshot(w io.Writer) error {
	return storage.Write(w, p.src)
}

// ReadSnapshot loads a program from a snapshot written by WriteSnapshot,
// running the same validation pipeline as Parse.
func ReadSnapshot(r io.Reader) (*Program, error) {
	prog, err := storage.Read(r)
	if err != nil {
		return nil, err
	}
	return FromAST(prog)
}

// withFacts derives a Program with the same rules, queries, symbol table
// and stratification but a different base fact set — one data version of
// a live program. Only the facts are recompiled: rules, head indexes and
// the IDB set are shared structurally with the receiver, so deriving a
// version is O(|facts|), not O(|program|). The caller passes the pinned
// domain every version must enumerate (see Program.pinDom).
func (p *Program) withFacts(fs []ast.Atom, pinDom []symbols.Const) (*Program, error) {
	cfacts := make([]ast.CAtom, 0, len(fs))
	maxAr := p.comp.MaxArity
	for _, f := range fs {
		ca, err := compileGroundAtom(f, p.syms)
		if err != nil {
			return nil, err
		}
		cfacts = append(cfacts, ca)
		if n := len(ca.Args); n > maxAr {
			maxAr = n
		}
	}
	src := &ast.Program{Rules: p.src.Rules, Facts: fs, Queries: p.src.Queries}
	comp := &ast.CProgram{
		Syms:     p.comp.Syms,
		Rules:    p.comp.Rules,
		Facts:    cfacts,
		Queries:  p.comp.Queries,
		ByHead:   p.comp.ByHead,
		IDB:      p.comp.IDB,
		MaxArity: maxAr,
	}
	return &Program{src: src, comp: comp, syms: p.syms, strt: p.strt, serr: p.serr, pinDom: pinDom, graph: p.graph, rel: p.rel}, nil
}

// AST returns the underlying syntax tree (after the section 3.1 rewrite).
func (p *Program) AST() *ast.Program { return p.src }

// RulesHash is a fingerprint of the program's rule set (canonical text,
// facts excluded). Replication uses it as a compatibility check: a
// replica may only apply a primary's WAL stream when both run the same
// rules, since validation, stratification and the pinned base domain all
// derive from them.
func (p *Program) RulesHash() uint64 {
	h := fnv.New64a()
	for _, r := range p.src.Rules {
		_, _ = io.WriteString(h, r.String())
		_, _ = h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// Compiled returns the interned form used by the engines.
func (p *Program) Compiled() *ast.CProgram { return p.comp }

// Queries returns the "?-" queries embedded in the source, rendered back
// to surface syntax.
func (p *Program) Queries() []string {
	out := make([]string, len(p.src.Queries))
	for i, q := range p.src.Queries {
		out[i] = q.String()
	}
	return out
}

// Stratification describes the linear-stratification analysis of a
// program (section 4 of the paper).
type Stratification struct {
	// Linear reports whether the program is linearly stratifiable.
	Linear bool
	// Strata is k, the number of strata; by Theorem 1 the program's
	// data-complexity is in Σ_k^P. Zero when Linear is false.
	Strata int
	// Reason is the failure explanation when Linear is false.
	Reason string
	// Partition maps "pred/arity" to its partition number (odd = Δ part,
	// even = Σ part of its stratum).
	Partition map[string]int
}

// Stratification runs the Lemma 1 analysis.
func (p *Program) Stratification() Stratification {
	if p.strt == nil {
		return Stratification{Linear: false, Reason: p.serr.Error()}
	}
	defined := map[string]bool{}
	for _, r := range p.src.Rules {
		defined[ast.PredSig{Name: r.Head.Pred, Arity: r.Head.Arity()}.String()] = true
	}
	part := make(map[string]int, len(p.strt.Part))
	for sig, n := range p.strt.Part {
		if defined[sig.String()] {
			part[sig.String()] = n
		}
	}
	return Stratification{Linear: true, Strata: p.strt.NumStrata, Partition: part}
}

// Mode selects the evaluation architecture.
type Mode int

const (
	// ModeAuto uses the cascade when the program is linearly stratified
	// and the uniform engine otherwise.
	ModeAuto Mode = iota
	// ModeUniform always uses the top-down tabled engine.
	ModeUniform
	// ModeCascade uses the paper's PROVE_Σ/PROVE_Δ cascade; New fails if
	// the program is not linearly stratifiable.
	ModeCascade
)

// Options configure an Engine.
type Options struct {
	Mode Mode
	// MaxGoals aborts a query after this many goal expansions with an
	// *AbortError wrapping ErrBudget (0 = unlimited). The budget is per
	// query and enforced in every mode: a cascade's PROVE_Σ engines draw on
	// one shared allowance, so it bounds their sum. Δ-part work (bottom-up
	// materialisation in the cascade) is not goal expansion; the query's
	// deadline and MaxMemoryBytes bound it.
	MaxGoals int64
	// MaxMemoryBytes aborts a query once it has grown the engine's
	// tracked memory footprint (interner, base database, memo tables,
	// cached Δ materialisations) by more than this many bytes, surfaced
	// as an *AbortError wrapping ErrMemory. The budget is per query: a
	// warm engine's existing footprint never counts against it. Zero
	// means unlimited (accounting stays on, so Pool.MemBytes and tenant
	// quotas still see the footprint). Enforced in both modes.
	MaxMemoryBytes int64
	// NoTabling disables the uniform engine's memo table, for ablations
	// and for tests that need a query to stay intractable.
	NoTabling bool
	// ExtraDomain adds constants to dom(R, DB) so that queries may
	// mention symbols absent from the program.
	ExtraDomain []string
	// PoolSize bounds the number of engines a Pool keeps alive (and hence
	// its maximum concurrency). Zero means GOMAXPROCS. Ignored by New.
	PoolSize int
	// CacheBytes enables a Pool's versioned answer cache: Ask/Query/
	// AskUnder answers are memoised keyed by (data version, canonical
	// query, sorted hypothetical adds) up to this byte budget, with
	// singleflight coalescing of concurrent identical misses. Entries from
	// older data versions are never served after a hot swap (the version
	// is part of the key); they expire lazily under LRU pressure. Zero
	// disables caching. Ignored by New.
	CacheBytes int64
	// Metrics selects the metric set this engine (and any Pool, Live or
	// cache built from these options) reports into. Nil means
	// metrics.Default — the process-wide set published under the legacy
	// "hypo" expvar name. A multi-tenant process gives each tenant its own
	// set so one tenant's counters never mix with another's.
	Metrics *metrics.Set
}

// metricSet resolves Options.Metrics, defaulting to the process-wide set.
func (o Options) metricSet() *metrics.Set {
	if o.Metrics != nil {
		return o.Metrics
	}
	return metrics.Default
}

// Engine answers queries against a program.
type Engine struct {
	prog   *Program
	asker  engine.Asker
	uni    *topdown.Engine // non-nil in uniform mode (for stats)
	cas    *engine.Cascade // non-nil in cascade mode
	domSet map[symbols.Const]bool

	// version is the data version of the program this engine was built
	// against; set by Pool on engines serving a live program, zero
	// otherwise. Memo tables, interner and base DB are all private to the
	// engine, so an engine never observes facts from any other version.
	version uint64

	// mets is the metric set this engine reports into (never nil; defaults
	// to metrics.Default).
	mets *metrics.Set

	// mem tracks the engine's approximate heap footprint and enforces
	// Options.MaxMemoryBytes per query. Always non-nil for engines built
	// by assemble; shared by every component of a cascade.
	mem *topdown.MemTracker

	// goals enforces Options.MaxGoals per query (nil = unlimited); shared
	// by every Σ engine of a cascade.
	goals *topdown.GoalBudget
}

// MemBytes returns the engine's tracked heap footprint: interner, base
// database, memo tables and cached Δ materialisations. It is an
// estimator (linear in the real footprint), the quantity per-tenant
// memory quotas account idle pooled engines at.
func (e *Engine) MemBytes() int64 { return e.mem.Current() }

// newMemTracker assembles the per-engine footprint tracker: explicit
// charges land in it directly, and the substrate counters are polled as
// sources. One tracker serves a whole cascade — its components share a
// single interner and database, so the sources are registered here once.
func newMemTracker(max int64, in *facts.Interner, base *facts.DB) *topdown.MemTracker {
	t := topdown.NewMemTracker(max)
	t.AddSource(in.MemBytes)
	t.AddSource(base.MemBytes)
	t.Begin()
	return t
}

// DataVersion reports the data version of the base database this engine
// was built against (0 for engines outside a live pool). During a
// Pool.Do lease it is stable: a concurrent commit produces new engines
// at the new version rather than mutating leased ones.
func (e *Engine) DataVersion() uint64 { return e.version }

// ApplyDelta mutates the engine's base fact set in place — asserts are
// inserted, retracts removed, both validated like Live mutations (ground,
// extensional predicate, constants inside dom(R, DB)) — and incrementally
// maintains the engine's derived state instead of rebuilding it: memo
// entries and Δ-part materialisations outside the affected cone of the
// changed predicates survive untouched, those inside it are updated
// semi-naively (additions) and by delete-and-rederive (retractions), or
// dropped for lazy recomputation where in-place maintenance is unsound.
//
// Mutations apply in batch order against the current base, and only the
// effective changes (facts whose membership actually flips) propagate —
// asserting a present fact or retracting an absent one is a no-op.
// The engine's Program() still reports the fact set it was built with;
// queries answer against the mutated base. Like every Engine method,
// ApplyDelta must not run concurrently with queries on the same engine.
func (e *Engine) ApplyDelta(asserts, retracts []string) error {
	ms, err := ParseMutations(asserts, retracts)
	if err != nil {
		return err
	}
	for _, m := range ms {
		if err := validateMutation(m, e.prog, e.domSet); err != nil {
			return err
		}
	}
	base := e.asker.EmptyState().Base
	in := e.asker.Interner()
	added, removed := effectiveDelta(ms, func(a ast.Atom) bool {
		ca, cerr := compileGroundAtom(a, e.prog.syms)
		if cerr != nil {
			return false
		}
		args := make([]symbols.Const, len(ca.Args))
		for i, t := range ca.Args {
			args[i] = t.ConstID()
		}
		id, ok := in.Lookup(ca.Pred, args)
		return ok && base.Has(id)
	})
	cadd, crem, seeds, err := compileDelta(added, removed, e.prog.syms)
	if err != nil {
		return err
	}
	if len(cadd)+len(crem) == 0 {
		return nil
	}
	return e.applyDeltaCompiled(cadd, crem, e.prog.coneOf(seeds))
}

// applyDeltaCompiled applies an effective, already-compiled base-fact
// delta to the engine in place. On error the engine may be half-mutated
// and must be discarded (Pool rebuilds; the public ApplyDelta surfaces
// the error).
func (e *Engine) applyDeltaCompiled(added, removed []ast.CAtom, cone map[symbols.Pred]bool) error {
	in := e.asker.Interner()
	addIDs := make([]facts.AtomID, len(added))
	for i, ca := range added {
		addIDs[i] = in.InternGround(ca)
	}
	remIDs := make([]facts.AtomID, len(removed))
	for i, ca := range removed {
		remIDs[i] = in.InternGround(ca)
	}
	// Maintenance is evaluator work like a query's: charge what it did
	// (models maintained, dropped, rematerialised) to this engine's set.
	before := e.Stats()
	defer func() { e.charge(e.Stats().Sub(before)) }()
	if e.cas != nil {
		return e.cas.ApplyDelta(addIDs, remIDs, cone)
	}
	return e.uni.ApplyDelta(addIDs, remIDs, cone)
}

// compileDelta compiles effective surface-level delta atoms and collects
// their distinct predicate signatures — the seeds of the affected cone.
func compileDelta(added, removed []ast.Atom, syms *symbols.Table) (cadd, crem []ast.CAtom, seeds []ast.PredSig, err error) {
	seen := map[ast.PredSig]bool{}
	note := func(a ast.Atom) {
		sig := ast.PredSig{Name: a.Pred, Arity: a.Arity()}
		if !seen[sig] {
			seen[sig] = true
			seeds = append(seeds, sig)
		}
	}
	for _, a := range added {
		ca, cerr := compileGroundAtom(a, syms)
		if cerr != nil {
			return nil, nil, nil, cerr
		}
		cadd = append(cadd, ca)
		note(a)
	}
	for _, a := range removed {
		ca, cerr := compileGroundAtom(a, syms)
		if cerr != nil {
			return nil, nil, nil, cerr
		}
		crem = append(crem, ca)
		note(a)
	}
	return cadd, crem, seeds, nil
}

// coneOf translates the dependency-graph cone of the seed predicates into
// interned predicates. Cone members never interned (mentioned by no
// compiled rule or fact) are dropped — no evaluation can reference them.
func (p *Program) coneOf(seeds []ast.PredSig) map[symbols.Pred]bool {
	sigCone := p.graph().Cone(seeds)
	cone := make(map[symbols.Pred]bool, len(sigCone))
	for sig := range sigCone {
		if pr, ok := p.syms.LookupPred(sig.Name, sig.Arity); ok {
			cone[pr] = true
		}
	}
	return cone
}

// New builds an engine for a program.
func New(p *Program, opts Options) (*Engine, error) {
	sub, err := buildSubstrate(p)
	if err != nil {
		return nil, err
	}
	return assemble(p, opts, sub)
}

// substrate is an interner + base database pair holding a program's
// facts: what an engine is assembled over. New builds a private one; a
// Pool builds one per data version and hands each engine a clone.
type substrate struct {
	in *facts.Interner
	db *facts.DB
}

func buildSubstrate(p *Program) (*substrate, error) {
	in := facts.NewInterner(p.syms)
	in.SetRelevance(p.rel)
	db := facts.NewDB(in)
	for _, f := range p.comp.Facts {
		if _, err := db.Insert(in.InternGround(f)); err != nil {
			return nil, err
		}
	}
	return &substrate{in: in, db: db}, nil
}

// clone copies the substrate keeping its atom-id assignment, so deltas
// interned against one clone's interner carry over to any sibling.
func (s *substrate) clone() *substrate {
	in := s.in.Clone()
	return &substrate{in: in, db: s.db.CloneFor(in)}
}

// assemble is the one engine constructor: it builds the evaluator the
// options select over a substrate the engine takes ownership of.
func assemble(p *Program, opts Options, sub *substrate) (*Engine, error) {
	dom, domSet := domainInfo(p, opts)
	e := &Engine{
		prog:   p,
		domSet: domSet,
		mets:   opts.metricSet(),
		mem:    newMemTracker(opts.MaxMemoryBytes, sub.in, sub.db),
	}
	if opts.MaxGoals > 0 {
		e.goals = &topdown.GoalBudget{Max: opts.MaxGoals}
	}
	mode := opts.Mode
	if mode == ModeAuto {
		mode = ModeUniform
		if p.strt != nil {
			mode = ModeCascade
		}
	}
	switch mode {
	case ModeUniform:
		e.uni = topdown.NewWithBase(p.comp, sub.db, dom, topdown.Options{NoTabling: opts.NoTabling})
		e.uni.SetMem(e.mem)
		e.uni.SetGoals(e.goals)
		e.asker = e.uni
	case ModeCascade:
		if p.strt == nil {
			return nil, fmt.Errorf("hypo: cascade mode needs a linear stratification: %w", p.serr)
		}
		cas, err := engine.NewCascadeWithBase(p.comp, p.strt, dom, sub.db)
		if err != nil {
			return nil, err
		}
		cas.SetBudgets(e.mem, e.goals)
		e.cas, e.asker = cas, cas
	default:
		return nil, fmt.Errorf("hypo: unknown mode %d", mode)
	}
	return e, nil
}

// domainInfo computes dom(R, DB) plus Options.ExtraDomain, as both the
// slice the engines enumerate over and the set the query validator uses.
// A pinned domain (live programs) is used verbatim — it was computed once
// at OpenLive and must stay identical across data versions.
func domainInfo(p *Program, opts Options) ([]symbols.Const, map[symbols.Const]bool) {
	dom := p.pinDom
	if dom == nil {
		var extra []symbols.Const
		for _, name := range opts.ExtraDomain {
			extra = append(extra, p.syms.Const(name))
		}
		dom = ref.Domain(p.comp, extra...)
	}
	domSet := make(map[symbols.Const]bool, len(dom))
	for _, c := range dom {
		domSet[c] = true
	}
	return dom, domSet
}

// Program returns the engine's program.
func (e *Engine) Program() *Program { return e.prog }

// Binding is one answer to a non-ground query: variable name to constant.
type Binding map[string]string

// Ask is Read of a ground premise, e.g. "grad(tony)", "not yes" or
// "grad(s)[add: take(s, c1)]", answered yes or no.
func (e *Engine) Ask(query string) (ok bool, err error) {
	_, err = e.Read(context.Background(), Request{Kind: ReadAsk, Query: query}, holds(&ok))
	return ok, err
}

// Query is Read of a premise that may contain variables, returning all
// bindings over dom(R, DB) that make it hold. A ground query returns one
// empty binding if it holds and none otherwise.
func (e *Engine) Query(query string) (out []Binding, err error) {
	if _, err = e.Read(context.Background(), Request{Kind: ReadQuery, Query: query}, collectInto(&out)); err != nil {
		return nil, err
	}
	return out, nil
}

// QueryEach is Query streaming each binding to yield. It stays only
// while benchmark/ladder.go calls it, and goes when the ladder does.
func (e *Engine) QueryEach(query string, yield func(Binding) error) error {
	_, err := e.Read(context.Background(), Request{Kind: ReadQuery, Query: query}, yield)
	return err
}

// AskUnder is Ask in the database hypothetically extended with the given
// ground atoms (surface syntax).
func (e *Engine) AskUnder(query string, added ...string) (ok bool, err error) {
	_, err = e.Read(context.Background(), Request{Kind: ReadAskUnder, Query: query, Add: added}, holds(&ok))
	return ok, err
}

// Explain returns a rendered derivation tree for a provable ground query
// — a plain atom, or an atom under hypothetical adds and deletions such
// as "grad(mary)[add: take(mary, eng201)]" — or "" when the query does
// not hold. Only the uniform engine supports explanations.
func (e *Engine) Explain(query string) (string, error) {
	if e.uni == nil {
		return "", fmt.Errorf("hypo: Explain requires ModeUniform")
	}
	r, err := compileRead(Request{Kind: ReadQuery, Query: query}, e.prog.syms, e.domSet)
	if err != nil {
		return "", err
	}
	if len(r.names) > 0 {
		return "", fmt.Errorf("hypo: Explain needs a ground query")
	}
	pr := r.premise
	st := e.uni.EmptyState()
	switch pr.Kind {
	case ast.Plain:
		// proceed below
	case ast.Hyp:
		for _, a := range pr.Adds {
			st = st.Add(e.uni.Interner().InternGround(a))
		}
		for _, a := range pr.Dels {
			st = st.Del(e.uni.Interner().InternGround(a))
		}
	default:
		return "", fmt.Errorf("hypo: Explain supports plain and hypothetical queries")
	}
	proof, err := e.uni.Explain(e.uni.Interner().InternGround(pr.Atom), st)
	if err != nil {
		return "", err
	}
	if proof == nil {
		return "", nil
	}
	return proof.String(), nil
}

// Stats reports evaluation counters summed over every component of the
// evaluator: the uniform engine or the cascade's PROVE_Σ engines and
// PROVE_Δ provers.
func (e *Engine) Stats() topdown.Stats {
	var sum topdown.Stats
	if e.uni != nil {
		sum = e.uni.Stats()
	} else {
		sum = e.cas.Stats()
	}
	// Every component shares one tracker, so the growth is read once, not
	// summed per component.
	sum.MemBytes = e.mem.Grown()
	return sum
}

// checkQueryDomain rejects queries mentioning constants outside
// dom(R, DB): variable enumeration and negation-as-failure range over the
// engine's fixed domain, so a fresh constant would silently be excluded
// from them and could produce wrong answers. Declare such constants up
// front with Options.ExtraDomain.
func checkQueryDomain(pr ast.Premise, syms *symbols.Table, domSet map[symbols.Const]bool) error {
	if err := checkAtomDomain(pr.Atom, syms, domSet); err != nil {
		return err
	}
	for _, a := range pr.Adds {
		if err := checkAtomDomain(a, syms, domSet); err != nil {
			return err
		}
	}
	for _, a := range pr.Dels {
		if err := checkAtomDomain(a, syms, domSet); err != nil {
			return err
		}
	}
	return nil
}

func checkAtomDomain(a ast.Atom, syms *symbols.Table, domSet map[symbols.Const]bool) error {
	for _, t := range a.Args {
		if t.IsVar {
			continue
		}
		if c, ok := syms.LookupConst(t.Name); !ok || !domSet[c] {
			return fmt.Errorf("hypo: query constant %q is outside dom(R, DB); list it in Options.ExtraDomain", t.Name)
		}
	}
	return nil
}

func compileGroundAtom(a ast.Atom, syms *symbols.Table) (ast.CAtom, error) {
	vars := map[string]int{}
	var names []string
	pr, err := ast.CompilePremise(ast.PlainP(a), syms, vars, &names)
	if err != nil {
		return ast.CAtom{}, err
	}
	if len(names) > 0 {
		return ast.CAtom{}, fmt.Errorf("hypo: atom %s is not ground", a)
	}
	return pr.Atom, nil
}
