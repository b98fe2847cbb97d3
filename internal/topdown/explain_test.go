package topdown

import (
	"strings"
	"testing"

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
	if proof.Size() < 4 {
		t.Errorf("proof too small: %d nodes\n%s", proof.Size(), out)
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

// TestExplainAgreesWithAsk: on the example workloads, Explain returns a
// tree iff Ask returns true, and the tree's root goal is the asked atom.
func TestExplainAgreesWithAsk(t *testing.T) {
	sources := []string{
		workload.ParityProgram(3),
		workload.ChainProgram(4),
		workload.HamiltonianProgram(workload.Digraph{N: 3, Edges: [][2]int{{0, 1}, {1, 2}}}),
	}
	for _, src := range sources {
		e, cp := newEngine(t, src, Options{})
		for p := symbols.Pred(0); int(p) < cp.Syms.NumPreds(); p++ {
			if cp.Syms.PredArity(p) != 0 {
				continue
			}
			id := e.Interner().ID(p, nil)
			ok, err := e.Ask(id, e.EmptyState())
			if err != nil {
				t.Fatal(err)
			}
			proof, err := e.Explain(id, e.EmptyState())
			if err != nil {
				t.Fatal(err)
			}
			if (proof != nil) != ok {
				t.Errorf("%s: ask=%v explain=%v", cp.Syms.PredName(p), ok, proof != nil)
			}
			if proof != nil && !strings.HasPrefix(proof.Goal, cp.Syms.PredName(p)) {
				t.Errorf("root goal %q for %s", proof.Goal, cp.Syms.PredName(p))
			}
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
