package depgraph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/parser"
)

func build(t *testing.T, src string) *Graph {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return Build(p)
}

func TestEdgeKinds(t *testing.T) {
	g := build(t, "h(X) :- p(X), not q(X), r(X)[add: w(X)].")
	h := g.NodeOf[ast.PredSig{Name: "h", Arity: 1}]
	if len(g.Adj[h]) != 3 {
		t.Fatalf("edges = %d", len(g.Adj[h]))
	}
	kinds := map[string]EdgeKind{}
	for _, e := range g.Adj[h] {
		kinds[g.Nodes[e.To].Name] = e.Kind
	}
	if kinds["p"] != Pos || kinds["q"] != Neg || kinds["r"] != Hyp {
		t.Errorf("kinds = %v", kinds)
	}
	// w appears only as an added atom: node exists, no edge to it.
	if _, ok := g.NodeOf[ast.PredSig{Name: "w", Arity: 1}]; !ok {
		t.Error("added predicate has no node")
	}
}

func TestDefinedFlags(t *testing.T) {
	g := build(t, "h :- p.\np :- e.\n")
	for name, want := range map[string]bool{"h": true, "p": true, "e": false} {
		n := g.NodeOf[ast.PredSig{Name: name, Arity: 0}]
		if g.Defined[n] != want {
			t.Errorf("Defined[%s] = %v", name, g.Defined[n])
		}
	}
}

func TestSCCsMutualRecursion(t *testing.T) {
	g := build(t, `
		even :- odd[add: c].
		odd :- even[add: c].
		even :- not sel.
		sel :- base.
	`)
	comps, compOf := g.SCCs()
	even := g.NodeOf[ast.PredSig{Name: "even"}]
	odd := g.NodeOf[ast.PredSig{Name: "odd"}]
	sel := g.NodeOf[ast.PredSig{Name: "sel"}]
	if compOf[even] != compOf[odd] {
		t.Error("even and odd not mutually recursive")
	}
	if compOf[even] == compOf[sel] {
		t.Error("sel wrongly grouped with even")
	}
	// Reverse topological order: sel's component before even/odd's.
	if compOf[sel] > compOf[even] {
		t.Errorf("comp order: sel=%d even=%d (callees must come first)", compOf[sel], compOf[even])
	}
	total := 0
	for _, c := range comps {
		total += len(c)
	}
	if total != len(g.Nodes) {
		t.Errorf("components cover %d of %d nodes", total, len(g.Nodes))
	}
}

func TestSCCChain(t *testing.T) {
	g := build(t, "a :- b.\nb :- c.\nc :- d.\n")
	_, compOf := g.SCCs()
	a := g.NodeOf[ast.PredSig{Name: "a"}]
	d := g.NodeOf[ast.PredSig{Name: "d"}]
	if compOf[a] == compOf[d] {
		t.Error("chain collapsed into one SCC")
	}
	if compOf[d] > compOf[a] {
		t.Error("callee component after caller")
	}
}

// TestSCCPartitionProperty: on random graphs, SCCs partition the nodes and
// the reverse-topological property holds for every edge.
func TestSCCPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		prog := &ast.Program{}
		names := make([]string, n)
		for i := range names {
			names[i] = string(rune('a' + i))
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.2 {
					prog.Rules = append(prog.Rules, ast.Rule{
						Head: ast.Atom{Pred: names[i]},
						Body: []ast.Premise{ast.PlainP(ast.Atom{Pred: names[j]})},
					})
				}
			}
		}
		g := Build(prog)
		comps, compOf := g.SCCs()
		seen := map[int]bool{}
		for _, c := range comps {
			for _, v := range c {
				if seen[v] {
					return false
				}
				seen[v] = true
			}
		}
		if len(seen) != len(g.Nodes) {
			return false
		}
		for from, edges := range g.Adj {
			for _, e := range edges {
				// Callee's component index must be <= caller's.
				if compOf[e.To] > compOf[from] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
