package facts

import (
	"fmt"
	"math/rand"
	"testing"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/parser"
	"hypodatalog/internal/symbols"
	"hypodatalog/internal/workload"
)

// coneSources are FuzzCone's fixed programs: the paper's examples, one
// with a [del:], and the shapes of the dependency-graph cases — a fork
// whose branches reach e through a plain, a negated and a hypothetical
// premise beside one that never does, and a recursive class.
var coneSources = []string{
	workload.ChainProgram(4),
	workload.OrderLoopProgram(3),
	workload.ParityProgram(3),
	workload.HamiltonianProgram(workload.Digraph{N: 3, Edges: [][2]int{{0, 1}, {1, 2}}}),
	workload.KStrataProgram(3, 2),
	workload.TokenGameProgram(workload.Chain(3), 0, 3),
	workload.ClosureProgram(workload.Chain(3), workload.LeftLinear),
	`top(X) :- mid(X).
	 mid(X) :- e(X).
	 aside(X) :- f(X).
	 neg(X) :- g(X), not e(X).
	 hy(X) :- e(X)[add: f(X)].`,
	`reach(X, Y) :- edge(X, Y).
	 reach(X, Y) :- edge(X, Z), reach(Z, Y).
	 iso(X) :- lonely(X).`,
}

// reaches is the oracle: the predicates from which one of the targets is
// reachable through the rewritten rules' premises, found by a DFS over
// the reversed head → premise edges.
func reaches(cp *ast.CProgram, targets ...symbols.Pred) map[symbols.Pred]bool {
	into := map[symbols.Pred][]symbols.Pred{}
	for _, r := range cp.Rules {
		for _, pr := range r.Body {
			into[pr.Atom.Pred] = append(into[pr.Atom.Pred], r.Head.Pred)
		}
	}
	seen := map[symbols.Pred]bool{}
	for stack := targets; len(stack) > 0; {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[q] {
			continue
		}
		seen[q] = true
		stack = append(stack, into[q]...)
	}
	return seen
}

// checkCone holds a program's cones to the oracle. A predicate reads q
// when it reaches q or an intensional predicate without a rule; with
// answered set, one extensional predicate is marked so before the
// analysis, as a Δ part's tests mark what an oracle answers. Two
// predicates are interned after the analysis: their cones are themselves.
func checkCone(t *testing.T, src string, rng *rand.Rand, answered bool) {
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	cp, err := ast.Compile(ast.RewriteNegation(p), symbols.NewTable())
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	n := cp.Syms.NumPreds()
	if answered {
		cp.IDB[symbols.Pred(rng.Intn(n))] = true // a no-op on a predicate with rules
	}
	rel := NewRelevance(cp)
	cp.Syms.Pred("fresh", 1)
	cp.Syms.Pred("fresh", 2)
	n = cp.Syms.NumPreds()

	var elsewhere []symbols.Pred // intensional with no rule
	for q := range cp.IDB {
		if len(cp.ByHead[q]) == 0 {
			elsewhere = append(elsewhere, q)
		}
	}
	name := func(q symbols.Pred) string {
		return fmt.Sprintf("%s/%d", cp.Syms.PredName(q), cp.Syms.PredArity(q))
	}
	for q := symbols.Pred(0); int(q) < n; q++ {
		want := reaches(cp, append([]symbols.Pred{q}, elsewhere...)...)
		for p := symbols.Pred(0); int(p) < n; p++ {
			if got := rel.Reads(p, q); got != want[p] {
				t.Errorf("Reads(%s, %s) = %v, want %v\n%s", name(p), name(q), got, want[p], src)
			}
		}
	}

	for k := 0; k < 4; k++ {
		var changed []ast.CAtom
		want := map[symbols.Pred]bool{}
		for m := 1 + rng.Intn(3); m > 0; m-- {
			q := symbols.Pred(rng.Intn(n))
			changed = append(changed, ast.CAtom{Pred: q})
			for p := range reaches(cp, append([]symbols.Pred{q}, elsewhere...)...) {
				want[p] = true
			}
		}
		got := rel.Affected(changed[:1], changed[1:])
		for p := symbols.Pred(0); int(p) < n; p++ {
			if got[p] != want[p] {
				t.Errorf("Affected(%v): %s in it is %v, want %v\n%s", changed, name(p), got[p], want[p], src)
			}
		}
	}
}

// FuzzCone holds the one dependency analysis the engines read —
// Relevance.Reads for a Δ part's token effects and Relevance.Affected for
// a commit's affected predicates — to a reverse-reachability DFS over the
// rewritten rules, on the paper's examples and on random stratified
// programs, with and without a predicate answered elsewhere, and for
// predicates interned after the program was analysed.
func FuzzCone(f *testing.F) {
	for kind := range coneSources {
		f.Add(uint8(kind), int64(kind))
	}
	for seed := int64(0); seed < 40; seed++ {
		f.Add(uint8(len(coneSources)), seed)
	}
	f.Fuzz(func(t *testing.T, kind uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		src := ""
		if int(kind) < len(coneSources) {
			src = coneSources[kind]
		} else {
			src = workload.RandomStratifiedProgram(rng, workload.DefaultFuzz())
		}
		checkCone(t, src, rng, false)
		checkCone(t, src, rng, true)
	})
}
