package facts

import (
	"slices"
	"testing"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/parser"
	"hypodatalog/internal/symbols"
	"hypodatalog/internal/workload"
)

// TestRelevanceClasses: on Examples 4, 6 and 7–8 side by side, the goals
// that build states fall into one class per example, each reading only its
// own example's tokens, and the Horn goals beneath them (the chain's d_i,
// whose cones differ pairwise) define none of their own.
func TestRelevanceClasses(t *testing.T) {
	g := workload.Digraph{N: 3, Edges: [][2]int{{0, 1}, {1, 2}}}
	src := workload.ChainProgram(4) + workload.ParityProgram(2) + workload.HamiltonianProgram(g) + "neven :- not even.\n"
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ast.Compile(p, symbols.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	rel := NewRelevance(cp)
	if rel == nil || slices.Max(rel.classOf) != 3 {
		t.Fatalf("relevance %+v, want 3 classes (chain, parity, Hamiltonian)", rel)
	}
	pred := func(name string, arity int) symbols.Pred {
		p, ok := cp.Syms.LookupPred(name, arity)
		if !ok {
			t.Fatalf("no predicate %s/%d", name, arity)
		}
		return p
	}
	class := func(name string, arity int) int {
		c, ok := rel.class(pred(name, arity))
		if !ok {
			return -1
		}
		return int(c)
	}
	for _, same := range [][]string{{"a1", "a4"}, {"even", "odd", "neven"}, {"yes", "no"}} {
		for _, q := range same {
			if class(q, 0) < 0 || class(q, 0) != class(same[0], 0) {
				t.Errorf("%s has class %d, want %s's %d", q, class(q, 0), same[0], class(same[0], 0))
			}
		}
	}
	if c := class("path", 1); c != class("yes", 0) {
		t.Errorf("path has class %d, want yes's %d", c, class("yes", 0))
	}
	// Horn goals define no class; each is tabled under the smallest class
	// that covers what it reads. The chain's d_i read only b atoms, and a1
	// reads every b too, so they share a1's class.
	for _, h := range []struct {
		pred  string
		arity int
		under string
	}{{"d2", 0, "a1"}, {"selectx", 1, "even"}, {"selecty", 1, "yes"}} {
		if c := class(h.pred, h.arity); c != class(h.under, 0) {
			t.Errorf("Horn predicate %s has class %d, want %s's %d", h.pred, c, h.under, class(h.under, 0))
		}
	}
	for _, tc := range []struct {
		pred  string
		arity int
		goal  string
	}{{"b2", 0, "a1"}, {"copied", 1, "even"}, {"pnode", 1, "yes"}} {
		mask := rel.tokenClasses(pred(tc.pred, tc.arity))
		if want := uint8(1) << class(tc.goal, 0); mask != want {
			t.Errorf("a %s token is relevant to classes %b, want only %s's (%b)", tc.pred, mask, tc.goal, want)
		}
	}
}
