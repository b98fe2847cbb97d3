package bottomup

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/facts"
	"hypodatalog/internal/parser"
	"hypodatalog/internal/ref"
	"hypodatalog/internal/symbols"
	"hypodatalog/internal/topdown"
)

// build compiles a source program and creates a prover over its rules (a
// single Δ part), with an optional oracle. The unary predicates named in
// below are marked as defined below the part: oracle-answered. Rules for
// them stay in the program, outside the part, where they state what the
// oracle's answers depend on.
func build(t *testing.T, src string, oracle Oracle, below ...string) (*Prover, *ast.CProgram, *facts.DB) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ast.Compile(ast.RewriteNegation(prog), symbols.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	isBelow := map[symbols.Pred]bool{}
	for _, name := range below {
		isBelow[cp.Syms.Pred(name, 1)] = true
		cp.IDB[cp.Syms.Pred(name, 1)] = true
	}
	base, _ := facts.Load(cp, facts.NewRelevance(cp))
	var rules []int
	for i := range cp.Rules {
		if !isBelow[cp.Rules[i].Head.Pred] {
			rules = append(rules, i)
		}
	}
	p, err := New(cp, base, ref.Domain(cp), rules, oracle, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p, cp, base
}

func holds(t *testing.T, p *Prover, cp *ast.CProgram, base *facts.DB, atom string) bool {
	t.Helper()
	a, err := parser.ParseAtom(atom)
	if err != nil {
		t.Fatal(err)
	}
	pr, ok := cp.Syms.LookupPred(a.Pred, a.Arity())
	if !ok {
		return false
	}
	args := make([]symbols.Const, a.Arity())
	for i, tm := range a.Args {
		c, ok := cp.Syms.LookupConst(tm.Name)
		if !ok {
			return false
		}
		args[i] = c
	}
	got, err := p.Holds(base.Interner().ID(pr, args), facts.NewState(base))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestHornFixpoint(t *testing.T) {
	p, cp, base := build(t, `
		edge(a, b). edge(b, c).
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- tc(X, Z), edge(Z, Y).
	`, nil)
	if !holds(t, p, cp, base, "tc(a, c)") {
		t.Error("tc(a,c) false")
	}
	if holds(t, p, cp, base, "tc(c, a)") {
		t.Error("tc(c,a) true")
	}
}

func TestStratifiedNegationLevels(t *testing.T) {
	p, cp, base := build(t, `
		node(a). node(b).
		edge(a, b).
		reach(a).
		reach(Y) :- reach(X), edge(X, Y).
		unreach(X) :- node(X), not reach(X).
		lonely :- not reach(X).
	`, nil)
	if holds(t, p, cp, base, "unreach(a)") || holds(t, p, cp, base, "unreach(b)") {
		t.Error("unreach wrong")
	}
	if holds(t, p, cp, base, "lonely") {
		t.Error("lonely should fail (reach is non-empty)")
	}
	if len(p.levels) < 2 {
		t.Errorf("negation levels = %d, want >= 2", len(p.levels))
	}
}

func TestRecursionThroughNegationRejected(t *testing.T) {
	prog, err := parser.Parse("a :- not b.\nb :- not a.\n")
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ast.Compile(prog, symbols.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	in := facts.NewInterner(cp.Syms)
	base := facts.NewDB(in)
	if _, err := New(cp, base, nil, []int{0, 1}, nil, nil); err == nil {
		t.Error("expected rejection")
	}
}

func TestOracleCalls(t *testing.T) {
	// q is "defined below" (not in the Δ part's rule set); the oracle
	// answers it, also under hypothetical additions.
	src := `
		p(a).
		r(X) :- p(X), q(X).
		w(X) :- s(X)[add: h(X)].
	`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ast.Compile(prog, symbols.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	// Mark q and s as intensional (they would be defined in lower strata).
	qPred := cp.Syms.Pred("q", 1)
	sPred := cp.Syms.Pred("s", 1)
	hPred := cp.Syms.Pred("h", 1)
	cp.IDB[qPred] = true
	cp.IDB[sPred] = true
	base, _ := facts.Load(cp, facts.NewRelevance(cp))
	in := base.Interner()
	oracleCalls := 0
	oracle := func(goal facts.AtomID, st facts.State) (bool, error) {
		oracleCalls++
		switch in.Pred(goal) {
		case qPred:
			return true, nil
		case sPred:
			// s(X) holds iff h(X) was hypothetically added.
			h := in.ID(hPred, in.Args(goal))
			return st.Has(h), nil
		}
		return false, nil
	}
	p, err := New(cp, base, ref.Domain(cp), []int{0, 1}, oracle, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !holds(t, p, cp, base, "r(a)") {
		t.Error("r(a) false")
	}
	if !holds(t, p, cp, base, "w(a)") {
		t.Error("w(a) false: hypothetical oracle call failed")
	}
	if oracleCalls == 0 {
		t.Error("oracle never called")
	}
}

func TestMissingOracleIsError(t *testing.T) {
	prog, err := parser.Parse("r(X) :- p(X), q(X).\np(a).")
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ast.Compile(prog, symbols.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	cp.IDB[cp.Syms.Pred("q", 1)] = true // q intensional, no oracle
	base, _ := facts.Load(cp, facts.NewRelevance(cp))
	in := base.Interner()
	p, err := New(cp, base, ref.Domain(cp), []int{0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rPred, _ := cp.Syms.LookupPred("r", 1)
	aConst, _ := cp.Syms.LookupConst("a")
	_, err = p.Holds(in.ID(rPred, []symbols.Const{aConst}), facts.NewState(base))
	if err == nil {
		t.Error("expected missing-oracle error")
	}
}

func TestMaterialisationCachePerState(t *testing.T) {
	p, cp, base := build(t, "q(X) :- w(X).\n", nil)
	wPred := cp.Syms.Pred("w", 1)
	aConst := cp.Syms.Const("a")
	in := base.Interner()
	st := facts.NewState(base)
	ext := st.Add(in.ID(wPred, []symbols.Const{aConst}))

	qPred, _ := cp.Syms.LookupPred("q", 1)
	qa := in.ID(qPred, []symbols.Const{aConst})
	got1, err := p.Holds(qa, st)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := p.Holds(qa, ext)
	if err != nil {
		t.Fatal(err)
	}
	if got1 || !got2 {
		t.Errorf("state separation wrong: base=%v ext=%v", got1, got2)
	}
	if len(p.cache) != 2 {
		t.Errorf("cache entries = %d, want 2", len(p.cache))
	}
}

func TestNewRefusesUnrewrittenNegation(t *testing.T) {
	for _, src := range []string{"empty :- not q(X).\n", "p :- not q(a)[add: w(a)].\n"} {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := ast.Compile(prog, symbols.NewTable())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := New(cp, facts.NewDB(facts.NewInterner(cp.Syms)), ref.Domain(cp), []int{0}, nil, nil); err == nil {
			t.Errorf("New accepts %q before the negation rewrite", src)
		}
	}
}

func TestNegationLocalVarInDelta(t *testing.T) {
	p, cp, base := build(t, "empty :- not q(X).\nd(a).\n", nil)
	if !holds(t, p, cp, base, "empty") {
		t.Error("empty should hold with no q facts")
	}
	p2, cp2, base2 := build(t, "empty :- not q(X).\nq(a).\n", nil)
	if holds(t, p2, cp2, base2, "empty") {
		t.Error("empty should fail when q(a) exists")
	}
}

// expiringCtx reports cancellation from its n-th Err poll on, so a
// materialisation is cut off part-way at a repeatable point.
type expiringCtx struct {
	context.Context
	polls int
}

func (c *expiringCtx) Done() <-chan struct{} { return make(chan struct{}) }

func (c *expiringCtx) Err() error {
	if c.polls--; c.polls < 0 {
		return context.Canceled
	}
	return nil
}

// closureSrc is the right-linear closure of an n-edge chain; every
// recursive step also asks live(X), which the tests leave to the oracle.
func closureSrc(n int) string {
	src := "reach(X, Y) :- edge(X, Y).\nreach(X, Y) :- edge(X, Z), reach(Z, Y), live(X).\n"
	for i := 0; i < n; i++ {
		src += fmt.Sprintf("edge(n%d, n%d).\n", i, i+1)
	}
	return src
}

func alwaysLive(facts.AtomID, facts.State) (bool, error) { return true, nil }

// TestAbortedMaterialisationLeavesNothing: whichever way a large
// materialisation is cut off — memory budget, cancellation, a failing
// oracle — its partial model, its index and their charges all go: no
// cache entry, zero net growth.
func TestAbortedMaterialisationLeavesNothing(t *testing.T) {
	const n = 80
	calls := 0
	cases := []struct {
		name   string
		max    int64
		ctx    context.Context
		oracle Oracle
		want   error
	}{
		{name: "memory", max: 32 << 10, oracle: alwaysLive, want: topdown.ErrMemory},
		{name: "canceled", ctx: &expiringCtx{Context: context.Background(), polls: 20}, oracle: alwaysLive, want: topdown.ErrCanceled},
		{name: "oracle", oracle: func(facts.AtomID, facts.State) (bool, error) {
			if calls++; calls > 500 {
				return false, errOracleDown
			}
			return true, nil
		}, want: errOracleDown},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, _, base := build(t, closureSrc(n), tc.oracle, "live")
			mem := topdown.NewMemTracker(tc.max)
			p.budget.Mem = mem
			if err := p.budget.Begin(tc.ctx); err != nil {
				t.Fatal(err)
			}
			goal := base.Interner().ID(p.rules[0].r.Head.Pred, []symbols.Const{0, 1})
			_, err := p.Holds(goal, facts.NewState(base))
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if p.budget.Stats.JoinProbes < 100 {
				t.Errorf("aborted after %d probes: the materialisation never got going", p.budget.Stats.JoinProbes)
			}
			if len(p.cache) != 0 {
				t.Errorf("aborted materialisation left %d cache entries", len(p.cache))
			}
			if g := mem.Grown(); g != 0 {
				t.Errorf("aborted materialisation left %d bytes charged", g)
			}
		})
	}
}

var errOracleDown = errors.New("oracle down")

// TestIndexChargedWhileLive: the index a materialisation builds counts
// against the query's memory budget while it exists and is released with
// it. On a warm interner a model costs its atoms plus the transient
// index, so a budget that covers the cached atoms alone must still
// refuse, and a finished materialisation must leave only the cache entry
// charged.
func TestIndexChargedWhileLive(t *testing.T) {
	p, _, base := build(t, closureSrc(80), alwaysLive, "live")
	in := base.Interner()
	st := facts.NewState(base)
	mem := topdown.NewMemTracker(0)
	p.budget.Mem = mem
	mem.Begin()
	m, err := p.materialise(st)
	if err != nil {
		t.Fatal(err)
	}
	if want := 80 * 81 / 2; len(m.atoms) != want {
		t.Fatalf("closure has %d atoms, want %d", len(m.atoms), want)
	}
	entry := matAtomBytes*int64(len(m.atoms)) + matEntryOverhead
	if g := mem.Grown(); g != entry {
		t.Errorf("finished materialisation holds %d bytes, want the cache entry's %d (index released)", g, entry)
	}

	// A new state over the same atoms: one hypothetical edge that adds no
	// new pair. Twice the entry covers the model, not model plus index.
	edge := p.rules[0].r.Body[0].Atom.Pred
	ext := st.Add(in.ID(edge, []symbols.Const{in.Args(base.ByPred(edge)[0])[0], in.Args(base.ByPred(edge)[5])[1]}))
	tight := topdown.NewMemTracker(2 * entry)
	p.budget.Mem = tight
	tight.Begin()
	if _, err := p.materialise(ext); !errors.Is(err, topdown.ErrMemory) {
		t.Fatalf("budget below atoms+index: err = %v, want ErrMemory", err)
	}
	if g := tight.Grown(); g != 0 || len(p.cache) != 1 {
		t.Errorf("after the refusal: %d bytes charged, %d cache entries; want 0 and 1", g, len(p.cache))
	}
}

// TestCancelEndsWithQuery: a Budget polls its context only between Begin
// and End. A materialisation after End — a commit's maintenance runs
// between queries — goes to the end although the last query's context
// has since been canceled, and a new query under that context stops
// before any work.
func TestCancelEndsWithQuery(t *testing.T) {
	p, _, base := build(t, closureSrc(80), alwaysLive, "live")
	ctx, cancel := context.WithCancel(context.Background())
	if err := p.budget.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	p.budget.End()
	cancel()
	goal := base.Interner().ID(p.rules[0].r.Head.Pred, []symbols.Const{0, 1})
	if _, err := p.Holds(goal, facts.NewState(base)); err != nil {
		t.Fatalf("materialisation after End = %v; the ended query's context is still polled", err)
	}
	if p.budget.Stats.JoinProbes < 1000 {
		t.Fatalf("the materialisation probed %d candidates: too few join steps for a poll", p.budget.Stats.JoinProbes)
	}
	if err := p.budget.Begin(ctx); !errors.Is(err, topdown.ErrCanceled) {
		t.Fatalf("Begin under a canceled context = %v, want ErrCanceled", err)
	}
}
