package topdown

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/facts"
	"hypodatalog/internal/symbols"
	"hypodatalog/internal/workload"
)

// explainGoal asks and explains a 0-ary or unary ground goal.
func explainGoal(t *testing.T, e *Engine, pred string, arity int, arg string) *Proof {
	t.Helper()
	syms := e.prog.Syms
	p, ok := syms.LookupPred(pred, arity)
	if !ok {
		t.Fatalf("no predicate %s/%d", pred, arity)
	}
	var args []symbols.Const
	if arity == 1 {
		c, ok := syms.LookupConst(arg)
		if !ok {
			t.Fatalf("no constant %s", arg)
		}
		args = []symbols.Const{c}
	}
	proof, err := e.Explain(e.Interner().ID(p, args), e.EmptyState())
	if err != nil {
		t.Fatal(err)
	}
	return proof
}

func TestExplainFact(t *testing.T) {
	e, _ := newEngine(t, "p(a).\n", Options{})
	proof := explainGoal(t, e, "p", 1, "a")
	if proof == nil || proof.Kind != ProofFact {
		t.Fatalf("proof = %v", proof)
	}
	if !strings.Contains(proof.String(), "[fact]") {
		t.Errorf("rendering: %s", proof.String())
	}
}

func TestExplainRuleChain(t *testing.T) {
	e, _ := newEngine(t, `
		edge(a, b). edge(b, c).
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- tc(X, Z), edge(Z, Y).
	`, Options{})
	p, okP := e.prog.Syms.LookupPred("tc", 2)
	if !okP {
		t.Fatal("no tc/2")
	}
	a, _ := e.prog.Syms.LookupConst("a")
	c, _ := e.prog.Syms.LookupConst("c")
	proof, err := e.Explain(e.Interner().ID(p, []symbols.Const{a, c}), e.EmptyState())
	if err != nil {
		t.Fatal(err)
	}
	if proof == nil || proof.Kind != ProofRule {
		t.Fatalf("proof = %v", proof)
	}
	out := proof.String()
	for _, want := range []string{"tc(a, c)", "edge(b, c)", "tc(a, b)"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "\n"); n < 4 { // one line per node
		t.Errorf("proof too small: %d nodes\n%s", n, out)
	}
}

func TestExplainHypothetical(t *testing.T) {
	e, _ := newEngine(t, `
		p(a).
		q(X) :- r(X)[add: s(X)].
		r(X) :- p(X), s(X).
	`, Options{})
	proof := explainGoal(t, e, "q", 1, "a")
	if proof == nil {
		t.Fatal("no proof")
	}
	out := proof.String()
	if !strings.Contains(out, "under add: s(a)") {
		t.Errorf("no hypothesis marker:\n%s", out)
	}
	// The added fact is usable inside the sub-proof.
	if !strings.Contains(out, "s(a)  [fact]") {
		t.Errorf("added fact not used:\n%s", out)
	}
}

func TestExplainNegation(t *testing.T) {
	e, _ := newEngine(t, `
		d(a).
		ok(X) :- d(X), not bad(X).
	`, Options{})
	proof := explainGoal(t, e, "ok", 1, "a")
	if proof == nil {
		t.Fatal("no proof")
	}
	if !strings.Contains(proof.String(), "no instance provable") {
		t.Errorf("no negation node:\n%s", proof.String())
	}
}

func TestExplainUnprovableIsNil(t *testing.T) {
	e, _ := newEngine(t, "p(a).\n", Options{})
	syms := e.prog.Syms
	p, _ := syms.LookupPred("p", 1)
	b := syms.Const("b")
	proof, err := e.Explain(e.Interner().ID(p, []symbols.Const{b}), e.EmptyState())
	if err != nil {
		t.Fatal(err)
	}
	if proof != nil {
		t.Fatalf("proof of unprovable goal: %v", proof)
	}
}

// TestExplainAgreesWithAsk: on the example workloads — alone, sharing
// E16's rulebase, and a cyclic transitive closure — with and without the
// planner, Explain returns a tree iff Ask returns true for every ground
// atom of arity ≤ 2, and the tree's root goal is the asked atom.
func TestExplainAgreesWithAsk(t *testing.T) {
	sources := map[string]string{
		"parity":      workload.ParityProgram(3),
		"chain":       workload.ChainProgram(4),
		"hamiltonian": workload.HamiltonianProgram(workload.Digraph{N: 3, Edges: [][2]int{{0, 1}, {1, 2}}}),
		"shared": workload.ChainProgram(16) + workload.ParityProgram(8) +
			workload.HamiltonianProgram(workload.Clique(6)) + "neven :- not even.\n",
		"cyclic-tc": `
			edge(a, b). edge(b, c). edge(c, a). edge(c, d).
			tc(X, Y) :- edge(X, Y).
			tc(X, Y) :- tc(X, Z), tc(Z, Y).
		`,
	}
	for _, opts := range []Options{{}, {NoPlanner: true}} {
		for name, src := range sources {
			e, _ := newEngine(t, src, opts)
			proved := 0
			forEachGroundAtom(e, func(id facts.AtomID) {
				ok, err := e.Ask(id, e.EmptyState())
				if err != nil {
					t.Fatal(err)
				}
				proof, err := e.Explain(id, e.EmptyState())
				if err != nil {
					t.Fatal(err)
				}
				goal := e.Interner().Format(id)
				if (proof != nil) != ok {
					t.Errorf("%s %+v %s: ask=%v explain=%v", name, opts, goal, ok, proof != nil)
				}
				if proof == nil {
					return
				}
				proved++
				if proof.Goal != goal {
					t.Errorf("%s %+v: root goal %q for %s", name, opts, proof.Goal, goal)
				}
			})
			if proved == 0 {
				t.Errorf("%s %+v: nothing explained", name, opts)
			}
		}
	}
}

// forEachGroundAtom calls fn with every ground atom of arity ≤ 2 over the
// engine's domain.
func forEachGroundAtom(e *Engine, fn func(facts.AtomID)) {
	syms := e.prog.Syms
	for p := symbols.Pred(0); int(p) < syms.NumPreds(); p++ {
		switch syms.PredArity(p) {
		case 0:
			fn(e.Interner().ID(p, nil))
		case 1:
			for _, c := range e.dom {
				fn(e.Interner().ID(p, []symbols.Const{c}))
			}
		case 2:
			for _, c1 := range e.dom {
				for _, c2 := range e.dom {
					fn(e.Interner().ID(p, []symbols.Const{c1, c2}))
				}
			}
		}
	}
}

// TestExplainFollowsProveSearch: an explanation is found by prove's own
// body evaluation, so the planner that binds Y and W from e/1 before the
// intensional r2/3 keeps explaining q2(a) as cheap as asking it. A search
// of its own in source order would try every |dom|² instance of r2 first.
func TestExplainFollowsProveSearch(t *testing.T) {
	var src strings.Builder
	for i := 0; i < 200; i++ { // ahead of c in the domain's order
		fmt.Fprintf(&src, "filler(k%d).\n", i)
	}
	src.WriteString(`
		q2(X) :- r2(X, Y, W), e(Y), e(W).
		r2(X, Y, W) :- s(X, Y, W).
		s(a, c, c).
		e(c).
	`)
	e, cp := newEngine(t, src.String(), Options{})
	q2, _ := cp.Syms.LookupPred("q2", 1)
	a, _ := cp.Syms.LookupConst("a")
	goal := e.Interner().ID(q2, []symbols.Const{a})

	ok, err := e.Ask(goal, e.EmptyState())
	if err != nil || !ok {
		t.Fatalf("Ask(q2(a)) = %v, %v", ok, err)
	}
	askGoals := e.budget.Stats.Goals
	proof, err := e.Explain(goal, e.EmptyState())
	if err != nil || proof == nil {
		t.Fatalf("Explain(q2(a)) = %v, %v", proof, err)
	}
	if spent := e.budget.Stats.Goals - askGoals; spent > 3*askGoals {
		t.Errorf("Explain spent %d goals, Ask %d", spent, askGoals)
	}
	if !strings.Contains(proof.String(), "s(a, c, c)  [fact]") {
		t.Errorf("proof:\n%s", proof)
	}
}

// TestExplainSkipsCyclicFirstInstance: the first instance of g's rule the
// engine's search offers, Y = a, holds, but h(a)'s only derivation goes
// back through g. Rejecting it sends the enumeration on to Y = b, whose
// derivation is acyclic; accepting the first instance given would leave g
// unexplained.
func TestExplainSkipsCyclicFirstInstance(t *testing.T) {
	src := `
		g :- e(Y), h(Y).
		h(a) :- g.
		h(b) :- f(b).
		e(a). e(b). f(b).
	`
	for _, opts := range []Options{{}, {NoPlanner: true}} {
		e, cp := newEngine(t, src, opts)
		gp, _ := cp.Syms.LookupPred("g", 0)
		goal := e.Interner().ID(gp, nil)
		if ok, err := e.Ask(goal, e.EmptyState()); err != nil || !ok {
			t.Fatalf("Ask(g) = %v, %v", ok, err)
		}

		// The instances the search offers, in its own order.
		rule := &e.prog.Rules[e.rules(gp)[0]]
		var offered []string
		binding := ast.NewBinding(rule.NumVars)
		if _, _, err := e.evalBody(rule, binding, fullMask(len(rule.Body)), e.EmptyState(), 0, func() (bool, error) {
			offered = append(offered, e.formatRuleInstance(rule, binding))
			return false, nil
		}); err != nil {
			t.Fatal(err)
		}
		if want := []string{"g :- e(a), h(a)", "g :- e(b), h(b)"}; !slices.Equal(offered, want) {
			t.Fatalf("%+v: instances offered %q, want %q", opts, offered, want)
		}

		proof, err := e.Explain(goal, e.EmptyState())
		if err != nil {
			t.Fatal(err)
		}
		if proof == nil {
			t.Fatalf("%+v: no proof of g", opts)
		}
		want := `g  [rule g :- e(b), h(b)]
  e(b)  [fact]
  h(b)  [rule h(b) :- f(b)]
    f(b)  [fact]
`
		if got := proof.String(); got != want {
			t.Errorf("%+v: got:\n%swant:\n%s", opts, got, want)
		}
	}
}

func TestExplainHamiltonianWitness(t *testing.T) {
	g := workload.Digraph{N: 3, Edges: [][2]int{{0, 1}, {1, 2}}}
	e, _ := newEngine(t, workload.HamiltonianProgram(g), Options{})
	proof := explainGoal(t, e, "yes", 0, "")
	if proof == nil {
		t.Fatal("no proof of yes")
	}
	out := proof.String()
	// The witness path v0 -> v1 -> v2 must appear as pnode additions.
	for _, want := range []string{"pnode(v0)", "pnode(v1)", "pnode(v2)"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %s in witness:\n%s", want, out)
		}
	}
}

// TestExplainRendersRewrittenNegations: a negation the rewrite turned
// into an auxiliary predicate is shown as the user wrote it, in the rule
// instance and in the negation leaf, with the variables bound outside it
// filled in and its own left as written.
func TestExplainRendersRewrittenNegations(t *testing.T) {
	e, _ := newEngine(t, `
		p(a).
		q(X) :- p(X), not r(X, Y)[add: w(Y)], not s(X, Z).
		r(X, Y) :- w(Y), blocked.
		s(X, X) :- blocked.
	`, Options{})
	proof := explainGoal(t, e, "q", 1, "a")
	if proof == nil {
		t.Fatal("q(a) has no proof")
	}
	want := `q(a)  [rule q(a) :- p(a), not r(a, Y)[add: w(Y)], not s(a, Z)]
  p(a)  [fact]
  not r(a, Y)[add: w(Y)]  [no instance provable]
  not s(a, Z)  [no instance provable]
`
	if got := proof.String(); got != want {
		t.Errorf("got:\n%swant:\n%s", got, want)
	}
}

// TestExplainStartsInEntryState: Explain proves its goal in the state Ask
// tables it in. Asked under outer marker(e_i) adds, Example 5's ap(e1) is
// proved without every i > 1, which its proof adds itself (its
// data-determined must-add set), so explaining after asking agrees with
// the ask and tables nothing new: every premise it reconstructs is a hit.
func TestExplainStartsInEntryState(t *testing.T) {
	const n = 6
	e, cp := newEngine(t, workload.OrderLoopProgram(n), Options{})
	in := e.Interner()
	marker, _ := cp.Syms.LookupPred("marker", 1)
	ap, _ := cp.Syms.LookupPred("ap", 1)
	elem := func(i int) []symbols.Const { return []symbols.Const{cp.Syms.Const(fmt.Sprintf("e%d", i))} }
	goal := in.ID(ap, elem(1))
	for _, outer := range [][]int{{1, 3}, {2, 1, 6}, {4}, {5, 6}, {1}} {
		st := e.EmptyState()
		for _, i := range outer {
			st = st.Add(in.ID(marker, elem(i)))
		}
		want := slices.Contains(outer, 1)
		if entry := e.entry(goal, st); entry.Delta.Len() != count(want) {
			t.Errorf("under %v ap(e1)'s entry state keeps %d atoms", outer, entry.Delta.Len())
		}
		ok, err := e.Ask(goal, st)
		if err != nil || ok != want {
			t.Fatalf("under %v ap(e1) = %v, %v; want %v", outer, ok, err, want)
		}
		entries := e.budget.Stats.TableSize
		proof, err := e.Explain(goal, st)
		if err != nil {
			t.Fatal(err)
		}
		if (proof != nil) != want {
			t.Errorf("under %v: ask=%v explain=%v", outer, want, proof != nil)
		}
		if got := e.budget.Stats.TableSize; got != entries {
			t.Errorf("under %v explaining tabled %d new entries: it started outside the entry state", outer, got-entries)
		}
	}
}

func count(b bool) int {
	if b {
		return 1
	}
	return 0
}
