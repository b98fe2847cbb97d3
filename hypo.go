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

	"hypodatalog/internal/ast"
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

// AbortError wraps ErrBudget, ErrCanceled, ErrDeadline or ErrMemory with
// the configured limit (for ErrBudget and ErrMemory) and a Stats snapshot
// of the work the aborted query did before the abort.
type AbortError = topdown.AbortError

// Stats is the evaluation-work snapshot reported by Engine.Stats and
// carried by AbortError, re-exported so callers (e.g. internal/server's
// access logs) need not import the evaluation layer.
type Stats = topdown.Stats

// Program is a parsed, validated, compiled hypothetical Datalog program:
// the rules every engine built from it shares, and the facts a standalone
// engine or a Pool starts from. A Live's later data versions change only
// the facts, in its pool's base (see Pool), never the Program.
type Program struct {
	src  *ast.Program  // as the user wrote it
	comp *ast.CProgram // src after ast.RewriteNegation, compiled
	syms *symbols.Table
	strt *strat.Stratification // nil if not linearly stratifiable
	serr error                 // why strt is nil

	// rel is the rewritten rules' dependency analysis: the cones a
	// commit's affected predicates and a Δ part's token effects are read
	// from, and the keying stage derived from them — the relevance classes
	// every engine's interner projects states onto and the must-add sets
	// it normalises them by. Like strt it is computed when the program is
	// built, not per engine.
	rel *facts.Relevance
}

// Parse parses, validates and compiles a program from source text.
// Negated-hypothetical premises (~A[add:B]) and negations with a variable
// of their own are evaluated through the paper's section 3.1
// transformation (see FromAST). Recursion through negation is an
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

// FromAST builds a Program from an already-constructed AST, which it does
// not modify. The engines run the program the section 3.1 rewrite makes
// of it (ast.RewriteNegation): validation, stratification, compilation
// and the dependency analysis see the rewritten rules, and String, AST,
// WriteSnapshot and RulesHash the user's. Recursion through negation is
// the one stratification failure that is an error.
func FromAST(p *ast.Program) (*Program, error) {
	rw := ast.RewriteNegation(p)
	if errs := ast.Validate(rw); len(errs) > 0 {
		msgs := make([]string, len(errs))
		for i, e := range errs {
			msgs[i] = e.Error()
		}
		return nil, errors.New(strings.Join(msgs, "; "))
	}
	strt, serr := strat.Stratify(rw)
	var nse *strat.NotStratifiableError
	if errors.As(serr, &nse) && nse.Negation {
		return nil, serr
	}
	syms := symbols.NewTable()
	cp, err := ast.Compile(rw, syms)
	if err != nil {
		return nil, err
	}
	return &Program{src: p, comp: cp, syms: syms, strt: strt, serr: serr, rel: facts.NewRelevance(cp)}, nil
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
	// is part of the key), and the commit that supersedes them frees
	// them. The budget is charged what an answer holds on the heap. Zero
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
	prog    *Program
	ev      *engine.Cascade // the evaluator; one stratum in uniform mode
	uniform bool            // built in ModeUniform, which Explain needs
	dom     *domain         // shared with the engine's pool, if any

	// version is the data version of the engine's base facts: the pool's
	// version when the engine cloned its base, moved on by each commit it
	// catches up with; zero outside a live pool. Memo tables, interner and
	// base DB are all private to the engine, so an engine never observes
	// facts from any other version.
	version uint64

	// mets is the metric set this engine reports into (never nil; defaults
	// to metrics.Default).
	mets *metrics.Set

	// budget is the evaluator's per-query limits, given to every component
	// when assemble builds them and begun by measured: the query's context,
	// Options.MaxGoals, and a meter of the engine's approximate heap
	// footprint enforcing Options.MaxMemoryBytes.
	budget *topdown.Budget
}

// MemBytes returns the engine's tracked heap footprint: interner, base
// database, memo tables and cached Δ materialisations. It is an
// estimator (linear in the real footprint), the quantity per-tenant
// memory quotas account idle pooled engines at.
func (e *Engine) MemBytes() int64 { return e.budget.Mem.Current() }

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

// DataVersion reports the data version of the engine's base database (0
// for engines outside a live pool). During a Pool.Do lease it is stable:
// a commit reaches an engine only when a later lease draws it.
func (e *Engine) DataVersion() uint64 { return e.version }

// ApplyDelta mutates the engine's base fact set in place — asserts are
// inserted, retracts removed, both validated like Live mutations (ground,
// extensional predicate, constants inside dom(R, DB)) — and maintains the
// engine's derived state instead of rebuilding it: memo entries and
// Δ-part materialisations outside the affected cone of the changed
// predicates survive untouched. Inside it, memo entries are pruned, and a
// Δ part's root model is extended semi-naively by a batch that only adds;
// a batch that retracts, or a part whose negated, oracle-answered or
// hypothetical premises the batch can move, drops it, and the next read
// rematerialises it.
//
// Mutations apply in batch order against the current base, and only the
// effective changes (facts whose membership actually flips) propagate —
// asserting a present fact or retracting an absent one is a no-op.
// Like every Engine method, ApplyDelta must not run concurrently with
// queries on the same engine.
func (e *Engine) ApplyDelta(asserts, retracts []string) error {
	ms, err := ParseMutations(asserts, retracts)
	if err != nil {
		return err
	}
	for _, m := range ms {
		if err := validateMutation(m, e.prog, e.dom.set); err != nil {
			return err
		}
	}
	cadd, crem, _, err := effectiveDelta(ms, e.ev.Base())
	if err != nil {
		return err
	}
	if len(cadd)+len(crem) == 0 {
		return nil
	}
	return e.applyDeltaCompiled(cadd, crem, e.prog.rel.Affected(cadd, crem))
}

// applyDeltaCompiled applies an effective, already-compiled base-fact
// delta to the engine in place. On error the engine may be half-mutated
// and must be discarded (Pool rebuilds; the public ApplyDelta surfaces
// the error).
func (e *Engine) applyDeltaCompiled(added, removed []ast.CAtom, cone map[symbols.Pred]bool) error {
	in := e.ev.Interner()
	addIDs := make([]facts.AtomID, len(added))
	for i, ca := range added {
		addIDs[i] = in.Ground(ca, nil)
	}
	remIDs := make([]facts.AtomID, len(removed))
	for i, ca := range removed {
		remIDs[i] = in.Ground(ca, nil)
	}
	// Maintenance is evaluator work like a query's: charge what it did
	// (models maintained, dropped, rematerialised) to this engine's set.
	before := e.Stats()
	defer func() { e.charge(e.Stats().Sub(before)) }()
	return e.ev.ApplyDelta(addIDs, remIDs, cone)
}

// compileAtoms compiles ground surface atoms.
func compileAtoms(as []ast.Atom, syms *symbols.Table) ([]ast.CAtom, error) {
	out := make([]ast.CAtom, 0, len(as))
	for _, a := range as {
		ca, err := compileGroundAtom(a, syms)
		if err != nil {
			return nil, err
		}
		out = append(out, ca)
	}
	return out, nil
}

// New builds an engine for a program.
func New(p *Program, opts Options) (*Engine, error) {
	sub, err := loadSubstrate(p, p.comp.Facts)
	if err != nil {
		return nil, err
	}
	return assemble(p, opts, newDomain(p, opts.ExtraDomain), sub)
}

// substrate is an interner + base database pair holding a set of facts:
// what an engine is assembled over. New builds a private one; a Pool
// keeps one base at its current version and hands each engine a clone.
type substrate struct {
	in *facts.Interner
	db *facts.DB
}

// loadSubstrate interns compiled facts into a fresh substrate keyed by
// p's dependency analysis.
func loadSubstrate(p *Program, fs []ast.CAtom) (*substrate, error) {
	db, err := facts.Load(&ast.CProgram{Syms: p.syms, Facts: fs}, p.rel)
	if err != nil {
		return nil, err
	}
	return &substrate{in: db.Interner(), db: db}, nil
}

// clone copies the substrate keeping its atom-id assignment, so deltas
// interned against one clone's interner carry over to any sibling.
func (s *substrate) clone() *substrate {
	in := s.in.Clone()
	return &substrate{in: in, db: s.db.CloneFor(in)}
}

// assemble is the one engine constructor: it builds the evaluator the
// options select — the cascade, or its one-stratum form, the uniform
// evaluator — over a substrate the engine takes over, ranging over dom.
func assemble(p *Program, opts Options, dom *domain, sub *substrate) (*Engine, error) {
	mode := opts.Mode
	if mode == ModeAuto {
		mode = ModeUniform
		if p.strt != nil {
			mode = ModeCascade
		}
	}
	s := p.strt
	switch {
	case mode == ModeUniform:
		s = nil
	case mode != ModeCascade:
		return nil, fmt.Errorf("hypo: unknown mode %d", mode)
	case s == nil:
		return nil, fmt.Errorf("hypo: cascade mode needs a linear stratification: %w", p.serr)
	}
	e := &Engine{
		prog:    p,
		uniform: s == nil,
		dom:     dom,
		mets:    opts.metricSet(),
		budget:  &topdown.Budget{Max: opts.MaxGoals, Mem: newMemTracker(opts.MaxMemoryBytes, sub.in, sub.db)},
	}
	var err error
	if e.ev, err = engine.NewCascadeWithBase(p.comp, s, dom.consts, sub.db, e.budget); err != nil {
		return nil, err
	}
	return e, nil
}

// domain is dom(R, DB) plus Options.ExtraDomain: the constants the
// evaluators range over, and the set reads and mutations are checked
// against. A pool computes it once, so that every data version ranges
// over the same constants, and with them which read texts are valid:
// memo keeps the compiled parts of those it has accepted.
type domain struct {
	consts []symbols.Const
	set    map[symbols.Const]bool
	memo   readMemo
}

// newDomain computes p's domain with the extra constants appended, in
// order, after those of p.
func newDomain(p *Program, extra []string) *domain {
	ext := make([]symbols.Const, len(extra))
	for i, name := range extra {
		ext[i] = p.syms.Const(name)
	}
	d := &domain{consts: ref.Domain(p.comp, ext...)}
	d.set = make(map[symbols.Const]bool, len(d.consts))
	for _, c := range d.consts {
		d.set[c] = true
	}
	return d
}

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
// not hold. Only the uniform engine supports explanations. It runs as one
// query, under the engine's Options.MaxGoals and MaxMemoryBytes.
func (e *Engine) Explain(query string) (out string, err error) {
	_, err = e.measured(context.Background(), func() (err error) {
		out, err = e.explain(query)
		return err
	})
	return out, err
}

// explain is Explain's body, run by Explain and Pool.ExplainCtx inside
// measured.
func (e *Engine) explain(query string) (string, error) {
	if !e.uniform {
		return "", fmt.Errorf("hypo: Explain requires ModeUniform")
	}
	r, err := compileRead(Request{Kind: ReadQuery, Query: query}, e.prog.syms, e.dom)
	if err != nil {
		return "", err
	}
	if r.prem.body.NumVars > 0 {
		return "", fmt.Errorf("hypo: Explain needs a ground query")
	}
	pr := &r.prem.body.Body[0]
	if pr.Kind != ast.Plain && pr.Kind != ast.Hyp {
		return "", fmt.Errorf("hypo: Explain supports plain and hypothetical queries")
	}
	proof, err := e.ev.Explain(e.ev.Interner().Instance(pr, nil, e.ev.EmptyState()))
	if err != nil {
		return "", err
	}
	if proof == nil {
		return "", nil
	}
	return proof.String(), nil
}

// Stats reports the evaluator's ledger: the work of the uniform engine or
// of every PROVE_Σ engine and PROVE_Δ prover of the cascade since the
// engine was built, with MemBytes the current query's footprint growth.
func (e *Engine) Stats() topdown.Stats {
	s := e.budget.Stats
	s.MemBytes = e.budget.Mem.Grown()
	return s
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
