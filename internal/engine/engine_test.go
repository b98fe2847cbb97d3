package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/bottomup"
	"hypodatalog/internal/facts"
	"hypodatalog/internal/parser"
	"hypodatalog/internal/ref"
	"hypodatalog/internal/strat"
	"hypodatalog/internal/symbols"
	"hypodatalog/internal/topdown"
	"hypodatalog/internal/workload"
)

// buildBoth compiles a linearly stratifiable program and returns the
// uniform evaluator (the one-stratum cascade) and the cascade over it.
func buildBoth(t *testing.T, src string) (*Cascade, *Cascade, *ast.CProgram) {
	t.Helper()
	return buildBothWith(t, src, nil)
}

// buildBothWith is buildBoth with the cascade built around the budget b.
func buildBothWith(t *testing.T, src string, b *topdown.Budget) (*Cascade, *Cascade, *ast.CProgram) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog = ast.RewriteNegation(prog)
	s, err := strat.Stratify(prog)
	if err != nil {
		t.Fatalf("stratify: %v", err)
	}
	cp, err := ast.Compile(prog, symbols.NewTable())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	dom := ref.Domain(cp)
	uni, err := NewCascadeWithBase(cp, nil, dom, loadBase(t, cp), nil)
	if err != nil {
		t.Fatalf("uniform: %v", err)
	}
	cas, err := NewCascadeWithBase(cp, s, dom, loadBase(t, cp), b)
	if err != nil {
		t.Fatalf("cascade: %v", err)
	}
	return uni, cas, cp
}

// loadBase interns cp's facts into a base database keyed by cp's
// relevance stage, as the pool's base is.
func loadBase(t *testing.T, cp *ast.CProgram) *facts.DB {
	t.Helper()
	base, err := facts.Load(cp, facts.NewRelevance(cp))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return base
}

// compileQuery compiles a query premise against the program's symbols
// into the one-premise body a read runs.
func compileQuery(t *testing.T, cp *ast.CProgram, query string) *ast.CRule {
	t.Helper()
	pr, err := parser.ParsePremise(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	var names []string
	cpr, err := ast.CompilePremise(pr, cp.Syms, map[string]int{}, &names)
	if err != nil {
		t.Fatal(err)
	}
	return &ast.CRule{Body: []ast.CPremise{cpr}, NumVars: len(names), VarNames: names}
}

// holds decides a ground read in the empty state: it holds when Read
// yields its one empty binding.
func holds(c *Cascade, body *ast.CRule) (bool, error) {
	ok := false
	err := c.Read(body, c.EmptyState(), func([]symbols.Const) error {
		ok = true
		return nil
	})
	return ok, err
}

func askBoth(t *testing.T, uni, cas *Cascade, cp *ast.CProgram, query string) bool {
	t.Helper()
	body := compileQuery(t, cp, query)
	u, err := holds(uni, body)
	if err != nil {
		t.Fatalf("uniform %q: %v", query, err)
	}
	c, err := holds(cas, body)
	if err != nil {
		t.Fatalf("cascade %q: %v", query, err)
	}
	if u != c {
		t.Fatalf("query %q: uniform=%v cascade=%v", query, u, c)
	}
	return u
}

func TestCascadeParity(t *testing.T) {
	for n := 0; n <= 6; n++ {
		uni, cas, cp := buildBoth(t, workload.ParityProgram(n))
		if got := askBoth(t, uni, cas, cp, "even"); got != (n%2 == 0) {
			t.Errorf("n=%d: even=%v", n, got)
		}
	}
}

func TestCascadeHamiltonian(t *testing.T) {
	graphs := []workload.Digraph{
		{N: 1},
		{N: 3, Edges: [][2]int{{0, 1}, {1, 2}}},
		{N: 3, Edges: [][2]int{{0, 1}, {0, 2}}},
		{N: 4, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}},
		{N: 4, Edges: [][2]int{{0, 1}, {0, 2}, {0, 3}}},
	}
	for gi, g := range graphs {
		uni, cas, cp := buildBoth(t, workload.HamiltonianProgram(g))
		want := workload.HasHamiltonianPath(g)
		if got := askBoth(t, uni, cas, cp, "yes"); got != want {
			t.Errorf("graph %d: yes=%v want %v", gi, got, want)
		}
		if got := askBoth(t, uni, cas, cp, "no"); got != !want {
			t.Errorf("graph %d: no=%v want %v", gi, got, !want)
		}
	}
}

func TestCascadeChainAndOrderLoop(t *testing.T) {
	for _, n := range []int{1, 4, 8} {
		uni, cas, cp := buildBoth(t, workload.ChainProgram(n))
		if !askBoth(t, uni, cas, cp, "a1") {
			t.Errorf("chain n=%d: a1 false", n)
		}
		uni, cas, cp = buildBoth(t, workload.OrderLoopProgram(n))
		if !askBoth(t, uni, cas, cp, "a") {
			t.Errorf("orderloop n=%d: a false", n)
		}
	}
}

func TestCascadeKStrata(t *testing.T) {
	// In KStrataProgram with no b/c/d facts, a1 is false (d1 is not
	// derivable), so a2 :- d2, not a1 is still false (d2 missing), etc.
	// Add the d<i> facts for even i only and check the alternation:
	// a1 false -> a2 needs d2 and ~a1: with d2 present, a2 true;
	// a3 needs d3 (absent) -> false.
	src := workload.KStrataProgram(3, 1) + "d2.\n"
	uni, cas, cp := buildBoth(t, src)
	if askBoth(t, uni, cas, cp, "a1") {
		t.Error("a1 should be false (no d1)")
	}
	if !askBoth(t, uni, cas, cp, "a2") {
		t.Error("a2 should be true (d2 and not a1)")
	}
	if askBoth(t, uni, cas, cp, "a3") {
		t.Error("a3 should be false (no d3)")
	}
}

// TestCascadeAgainstReference cross-checks cascade, uniform engine and the
// naive interpreter on every atom of linearly stratifiable fuzz programs.
func TestCascadeAgainstReference(t *testing.T) {
	iters := 120
	if testing.Short() {
		iters = 20
	}
	checked := 0
	for seed := 0; seed < iters; seed++ {
		rng := rand.New(rand.NewSource(int64(seed + 5000)))
		src := workload.RandomStratifiedProgram(rng, workload.DefaultFuzz())
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		prog = ast.RewriteNegation(prog)
		s, err := strat.Stratify(prog)
		if err != nil {
			continue // fuzz can produce non-linear programs; skip those
		}
		checked++
		cp, err := ast.Compile(prog, symbols.NewTable())
		if err != nil {
			t.Fatal(err)
		}
		dom := ref.Domain(cp)
		ip := ref.New(cp)
		uni := topdown.New(cp, dom, topdown.Options{}, &topdown.Budget{Max: 5_000_000})
		cas, err := NewCascadeWithBase(cp, s, dom, loadBase(t, cp), nil)
		if err != nil {
			t.Fatalf("seed %d: cascade: %v\n%s", seed, err, src)
		}
		for p := symbols.Pred(0); int(p) < cp.Syms.NumPreds(); p++ {
			if cp.Syms.PredArity(p) != 1 {
				continue
			}
			for _, cst := range dom {
				args := []symbols.Const{cst}
				want := ip.Holds(ip.Interner().ID(p, args), ip.EmptyState())
				gu, err := uni.Ask(uni.Interner().ID(p, args), uni.EmptyState())
				if err != nil {
					t.Fatalf("seed %d: uniform: %v", seed, err)
				}
				gc, err := cas.Ask(cas.Interner().ID(p, args), cas.EmptyState())
				if err != nil {
					t.Fatalf("seed %d: cascade: %v\n%s", seed, err, src)
				}
				if gu != want || gc != want {
					t.Errorf("seed %d: %s(%s): ref=%v uniform=%v cascade=%v\n%s",
						seed, cp.Syms.PredName(p), cp.Syms.ConstName(cst), want, gu, gc, src)
				}
			}
		}
	}
	if checked < iters/4 {
		t.Errorf("only %d/%d fuzz programs were linearly stratifiable; generator too hot", checked, iters)
	}
}

// TestCascadeDeletionFuzz cross-checks cascade, uniform engine and the
// reference interpreter on programs with hypothetical deletions.
func TestCascadeDeletionFuzz(t *testing.T) {
	iters := 80
	if testing.Short() {
		iters = 15
	}
	opts := workload.DefaultFuzz()
	opts.DelProb = 0.5
	checked := 0
	for seed := 0; seed < iters; seed++ {
		rng := rand.New(rand.NewSource(int64(seed + 12000)))
		src := workload.RandomStratifiedProgram(rng, opts)
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		prog = ast.RewriteNegation(prog)
		s, err := strat.Stratify(prog)
		if err != nil {
			continue
		}
		checked++
		cp, err := ast.Compile(prog, symbols.NewTable())
		if err != nil {
			t.Fatal(err)
		}
		dom := ref.Domain(cp)
		ip := ref.New(cp)
		uni := topdown.New(cp, dom, topdown.Options{}, &topdown.Budget{Max: 5_000_000})
		cas, err := NewCascadeWithBase(cp, s, dom, loadBase(t, cp), nil)
		if err != nil {
			t.Fatalf("seed %d: cascade: %v\n%s", seed, err, src)
		}
		for p := symbols.Pred(0); int(p) < cp.Syms.NumPreds(); p++ {
			if cp.Syms.PredArity(p) != 1 {
				continue
			}
			for _, cst := range dom {
				args := []symbols.Const{cst}
				want := ip.Holds(ip.Interner().ID(p, args), ip.EmptyState())
				gu, err := uni.Ask(uni.Interner().ID(p, args), uni.EmptyState())
				if err != nil {
					t.Fatalf("seed %d: uniform: %v\n%s", seed, err, src)
				}
				gc, err := cas.Ask(cas.Interner().ID(p, args), cas.EmptyState())
				if err != nil {
					t.Fatalf("seed %d: cascade: %v\n%s", seed, err, src)
				}
				if gu != want || gc != want {
					t.Errorf("seed %d: %s(%s): ref=%v uniform=%v cascade=%v\n%s",
						seed, cp.Syms.PredName(p), cp.Syms.ConstName(cst), want, gu, gc, src)
				}
			}
		}
	}
	if checked < iters/4 {
		t.Errorf("only %d/%d deletion fuzz programs were linearly stratifiable", checked, iters)
	}
}

// TestSolutions: an open read streams every binding that makes its
// premise hold, on the uniform evaluator and on the cascade.
func TestSolutions(t *testing.T) {
	src := `
		take(tony, his101).
		take(tony, eng201).
		take(mary, his101).
		grad(S) :- take(S, his101), take(S, eng201).
	`
	uni, cas, cp := buildBoth(t, src)
	body := compileQuery(t, cp, "grad(S)[add: take(S, eng201)]")
	for _, c := range []*Cascade{uni, cas} {
		got := map[string]bool{}
		err := c.Read(body, c.EmptyState(), func(s []symbols.Const) error {
			got[cp.Syms.ConstName(s[0])] = true
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// Example 2's shape: everyone who could graduate with one more
		// course — tony (already can) and mary (his101 + hypothetical
		// eng201).
		if !got["tony"] || !got["mary"] || len(got) != 2 {
			t.Errorf("solutions = %v", got)
		}
	}
}

// TestSolutionsGroundQuery: a ground read that holds yields one empty
// binding.
func TestSolutionsGroundQuery(t *testing.T) {
	uni, _, cp := buildBoth(t, "p(a).\nq(X) :- p(X).")
	var sols [][]symbols.Const
	err := uni.Read(compileQuery(t, cp, "q(a)"), uni.EmptyState(), func(s []symbols.Const) error {
		sols = append(sols, slices.Clone(s))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 || len(sols[0]) != 0 {
		t.Errorf("ground query solutions = %v", sols)
	}
}

// TestStateNodesChargedAndReleased: interned hypothetical states are part
// of the tracked footprint (through Interner.MemBytes), so a depth-256
// chain under a budget smaller than its memo entries plus state nodes is
// refused even when every atom it touches is already interned; the engine
// keeps serving what fits; and the explicit charges — memo entries, cached
// Δ-models — come back exactly when their tables are dropped.
func TestStateNodesChargedAndReleased(t *testing.T) {
	const depth, budget = 256, 6 << 10 // the chain's 256 state nodes alone outgrow 6 KiB
	b := new(topdown.Budget)
	_, cas, cp := buildBothWith(t, workload.TaggedChainProgram(depth, 2), b)
	var mem *topdown.MemTracker
	track := func(max int64) {
		mem = topdown.NewMemTracker(max)
		mem.AddSource(cas.Interner().MemBytes)
		mem.AddSource(cas.Base().MemBytes)
		b.Mem = mem
	}
	ask := func(query string) (bool, error) {
		t.Helper()
		body := compileQuery(t, cp, query)
		mem.Begin()
		return holds(cas, body)
	}
	every := make(map[symbols.Pred]bool)
	for p := symbols.Pred(0); int(p) < cp.Syms.NumPreds(); p++ {
		every[p] = true
	}
	drop := func() {
		// An empty commit whose cone is every predicate: it prunes every
		// memo entry and drops every Δ-model of a hypothetical state.
		if err := cas.ApplyDelta(nil, nil, every); err != nil {
			t.Fatal(err)
		}
	}

	// Unbudgeted, one chain interns every atom the program can reach and
	// charges 256 state nodes beside its memo entries and Δ-models.
	track(0)
	if ok, err := ask("a1[add: note(t0)]"); err != nil || !ok {
		t.Fatalf("a1 under note(t0) = %v, %v; want true", ok, err)
	}
	if got, min := mem.Grown(), int64(depth*32); got < min {
		t.Fatalf("a depth-%d chain charged %d bytes, want at least its state nodes' %d", depth, got, min)
	}
	drop()

	// Budgeted, the same chain under another tag stands in 256 states no
	// ask has seen. It interns one atom, its tag, and is refused on the way
	// down — before the bottom state's Δ-model or any memo entry exists, so
	// by the state nodes alone.
	track(budget)
	// Atom ids are dense, so the id a fresh atom gets counts the atoms
	// interned before it.
	note, _ := cp.Syms.LookupPred("note", 1)
	probe := func(c string) int { return int(cas.Interner().ID(note, []symbols.Const{cp.Syms.Const(c)})) }
	atoms, goals := probe("probe0"), b.Stats.Goals
	if _, err := ask("a1[add: note(t1)]"); !errors.Is(err, topdown.ErrMemory) {
		t.Fatalf("fresh chain under a %d-byte budget: err = %v, want ErrMemory", budget, err)
	}
	if n, g := probe("probe1")-atoms-1, b.Stats.Goals-goals; n > 1 || g >= depth {
		t.Fatalf("the refused chain interned %d atoms and ran %d goals: the refusal does not show the state table's charge", n, g)
	}
	drop()

	// A short branch fits. Asked again on warm states, everything it grows
	// is explicit charges, and dropping the tables returns them all.
	const short = "a250[add: note(t1)]"
	if ok, err := ask(short); err != nil || ok {
		t.Fatalf("%s = %v, %v; want false within the budget", short, ok, err)
	}
	drop()
	if ok, err := ask(short); err != nil || ok {
		t.Fatalf("%s again = %v, %v; want false within the budget", short, ok, err)
	}
	if g := mem.Grown(); g <= 0 {
		t.Fatalf("a warm ask charged %d bytes; want its memo entries and Δ-models", g)
	}
	drop()
	if g := mem.Grown(); g != 0 {
		t.Fatalf("%d bytes still charged after an empty commit over every predicate", g)
	}
}

// TestApplyDeltaRetractRematerialises: a retract-only commit in a Δ
// prover's cone drops the prover's root model without a join, and the
// next read materialises it once; an add-only commit extends the root in
// place, and the next read materialises nothing.
func TestApplyDeltaRetractRematerialises(t *testing.T) {
	const src = `
node(a). node(b). node(c). node(d).
edge(a, b). edge(b, c). edge(c, d).
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
`
	b := new(topdown.Budget)
	_, cas, cp := buildBothWith(t, src, b)
	ground := func(qs []string) (ids []facts.AtomID, atoms []ast.CAtom) {
		for _, q := range qs {
			a := compileQuery(t, cp, q).Body[0].Atom
			ids, atoms = append(ids, cas.Interner().Ground(a, nil)), append(atoms, a)
		}
		return ids, atoms
	}
	commit := func(asserts, retracts []string) topdown.Stats {
		t.Helper()
		add, addAtoms := ground(asserts)
		rem, remAtoms := ground(retracts)
		before := b.Stats
		if err := cas.ApplyDelta(add, rem, cas.Interner().Relevance().Affected(addAtoms, remAtoms)); err != nil {
			t.Fatal(err)
		}
		return b.Stats.Sub(before)
	}
	read := compileQuery(t, cp, "reach(a, d)")
	ask := func(want bool) topdown.Stats {
		t.Helper()
		before := b.Stats
		if got, err := holds(cas, read); err != nil || got != want {
			t.Fatalf("reach(a, d) = %v, %v; want %v", got, err, want)
		}
		return b.Stats.Sub(before)
	}

	if w := ask(true); w.Materialisations != 1 {
		t.Fatalf("cold read: %d materialisations, want 1", w.Materialisations)
	}
	if w := commit(nil, []string{"edge(b, c)"}); w.IncDropped != 1 || w.IncStates != 0 || w.JoinProbes != 0 {
		t.Errorf("retract: %d dropped, %d extended, %d join probes; want 1, 0, 0", w.IncDropped, w.IncStates, w.JoinProbes)
	}
	if w := ask(false); w.Materialisations != 1 {
		t.Errorf("read after the retract: %d materialisations, want 1", w.Materialisations)
	}
	if w := commit([]string{"edge(b, d)"}, nil); w.IncStates != 1 || w.IncDropped != 0 {
		t.Errorf("add: %d extended, %d dropped; want 1, 0", w.IncStates, w.IncDropped)
	}
	if w := ask(true); w.Materialisations != 0 {
		t.Errorf("read after the add: %d materialisations, want 0", w.Materialisations)
	}
}

// TestCascadeAsksOneComponent: a Δ part whose predicates fall into two
// connected components gets one prover per component, and a goal of one
// materialises that component alone. Here Δ2 holds no :- not yes and
// neven :- not even; asking neven must not run the Hamiltonian search that
// no's materialisation would ask the Σ oracle for, so it costs exactly the
// Σ goals of asking even. Each ask runs on a cascade of its own, so its
// Budget's ledger holds that ask's work alone.
func TestCascadeAsksOneComponent(t *testing.T) {
	src := workload.ParityProgram(4) + workload.HamiltonianProgram(workload.Clique(4)) + "neven :- not even.\n"
	ask := func(query string) (*Cascade, *topdown.Budget, *ast.CProgram, bool) {
		t.Helper()
		b := new(topdown.Budget)
		_, cas, cp := buildBothWith(t, src, b)
		ok, err := holds(cas, compileQuery(t, cp, query))
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		return cas, b, cp, ok
	}
	cas, b, cp, holds := ask("neven")
	if holds {
		t.Fatal("neven holds over 4 items")
	}
	pred := func(name string) symbols.Pred {
		p, ok := cp.Syms.LookupPred(name, 0)
		if !ok {
			t.Fatalf("no predicate %s", name)
		}
		return p
	}
	neven, no := cas.deltaOf[pred("neven")], cas.deltaOf[pred("no")]
	if neven == nil || neven == no {
		t.Fatalf("neven and no share a Δ prover (%p, %p); want one per component", neven, no)
	}
	_, even, _, _ := ask("even")
	if got, want := b.Stats.Goals, even.Stats.Goals; got != want {
		t.Errorf("asking neven ran %d Σ goals, asking even %d", got, want)
	}
	if got, want := b.Stats.Materialisations, even.Stats.Materialisations+1; got != want {
		t.Errorf("asking neven materialised %d times, asking even %d: want neven's one more", got, want-1)
	}
	// The one materialisation was neven's: asked for the empty state's
	// model now, neven's component answers from its cache and no's
	// materialises.
	materialises := func(dp *bottomup.Prover) int64 {
		t.Helper()
		before := b.Stats.Materialisations
		if _, err := dp.Model(cas.EmptyState()); err != nil {
			t.Fatal(err)
		}
		return b.Stats.Materialisations - before
	}
	if m := materialises(neven); m != 0 {
		t.Errorf("neven's component materialised again (%d): asking neven did not cache its model", m)
	}
	if m := materialises(no); m == 0 {
		t.Error("no's component answered from its cache: asking neven materialised it")
	}
}

// TestCascadeDeadline: every component of a cascade draws on the Budget
// it was built with, so one Begin bounds the whole query. A Hamiltonian
// refutation over a complete 11-node core — Σ search and Δ
// materialisations alike — stops at its deadline, read as a ground
// premise or enumerated by an open read, and the Budget serves the next
// query unharmed.
func TestCascadeDeadline(t *testing.T) {
	g := workload.Digraph{N: 12} // v11 is isolated: there is no Hamiltonian path
	for i := 0; i < 11; i++ {
		for j := 0; j < 11; j++ {
			if i != j {
				g.Edges = append(g.Edges, [2]int{i, j})
			}
		}
	}
	b := new(topdown.Budget)
	_, cas, cp := buildBothWith(t, workload.HamiltonianProgram(g), b)
	yes, open := compileQuery(t, cp, "yes"), compileQuery(t, cp, "path(X)[add: pnode(X)]")
	for name, read := range map[string]func() error{
		"ground": func() error { _, err := holds(cas, yes); return err },
		"open": func() error {
			return cas.Read(open, cas.EmptyState(), func([]symbols.Const) error { return nil })
		},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		start := time.Now()
		err := b.Begin(ctx)
		if err == nil {
			err = read()
		}
		b.End()
		cancel()
		if !errors.Is(err, topdown.ErrDeadline) {
			t.Fatalf("%s = %v, want ErrDeadline", name, err)
		}
		if d := time.Since(start); d >= 500*time.Millisecond {
			t.Errorf("%s aborted after %v, want well under 500ms", name, d)
		}
	}
	if err := b.Begin(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ok, err := holds(cas, compileQuery(t, cp, "node(v0)")); err != nil || !ok {
		t.Fatalf("node(v0) after the aborts = %v, %v; want true", ok, err)
	}
}

// TestCascadeOpenDeltaReadDeadline: an open read of a Δ predicate asks
// the top Σ engine's resolver for every instance, and once the Δ model is
// materialised an instance counts no goal and runs no join, so only the
// read's own tick per root instance polls the context. Over 700
// constants, q(X, Y) has 490,000 instances and three answers; the read
// stops at its deadline without a goal.
func TestCascadeOpenDeltaReadDeadline(t *testing.T) {
	var src strings.Builder
	src.WriteString("e(c0, c1).\ne(c1, c2).\ne(c2, c0).\nq(X, Y) :- e(X, Y).\n")
	for i := 3; i < 700; i++ {
		fmt.Fprintf(&src, "pad(c%d).\n", i)
	}
	b := new(topdown.Budget)
	_, cas, cp := buildBothWith(t, src.String(), b)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := b.Begin(ctx)
	if err == nil {
		err = cas.Read(compileQuery(t, cp, "q(X, Y)"), cas.EmptyState(), func([]symbols.Const) error { return nil })
	}
	b.End()
	if !errors.Is(err, topdown.ErrDeadline) {
		t.Fatalf("q(X, Y) = %v, want ErrDeadline", err)
	}
	if d := time.Since(start); d >= 500*time.Millisecond {
		t.Errorf("aborted after %v, want well under 500ms", d)
	}
	if g := b.Work().Goals; g != 0 {
		t.Errorf("the read asked %d goals, want 0", g)
	}
}
