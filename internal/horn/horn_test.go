package horn

import (
	"fmt"
	"slices"
	"testing"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/parser"
	"hypodatalog/internal/symbols"
)

func build(t *testing.T, src string) (*Engine, *ast.CProgram) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cp, err := ast.Compile(ast.RewriteNegation(prog), symbols.NewTable())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	e, err := New(cp)
	if err != nil {
		t.Fatalf("horn.New: %v", err)
	}
	return e, cp
}

func holds(t *testing.T, e *Engine, cp *ast.CProgram, atomSrc string) bool {
	t.Helper()
	a, err := parser.ParseAtom(atomSrc)
	if err != nil {
		t.Fatal(err)
	}
	args := make([]symbols.Const, a.Arity())
	for i, tm := range a.Args {
		if tm.IsVar {
			t.Fatalf("atom %q not ground", atomSrc)
		}
		c, ok := cp.Syms.LookupConst(tm.Name)
		if !ok {
			return false
		}
		args[i] = c
	}
	p, ok := cp.Syms.LookupPred(a.Pred, a.Arity())
	if !ok {
		return false
	}
	id := e.base.Interner().ID(p, args)
	if e.base.Has(id) {
		return true
	}
	model, err := e.Model()
	if err != nil {
		t.Fatal(err)
	}
	_, found := slices.BinarySearch(model, id)
	return found
}

func chainTC(n int) string {
	src := `
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- tc(X, Z), edge(Z, Y).
	`
	for i := 0; i < n; i++ {
		src += fmt.Sprintf("edge(v%d, v%d).\n", i, i+1)
	}
	return src
}

func TestTransitiveClosure(t *testing.T) {
	e, cp := build(t, chainTC(5))
	if !holds(t, e, cp, "tc(v0, v5)") {
		t.Error("tc(v0,v5) false")
	}
	if holds(t, e, cp, "tc(v5, v0)") {
		t.Error("tc(v5,v0) true")
	}
	m, err := e.Model()
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 15 {
		t.Errorf("model has %d derived atoms, want 15 (6·5/2 pairs)", len(m))
	}
	if e.JoinProbes() == 0 {
		t.Error("no join probes counted")
	}
}

func TestNonLinearTC(t *testing.T) {
	src := `
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- tc(X, Z), tc(Z, Y).
		edge(a, b). edge(b, c). edge(c, d).
	`
	e, cp := build(t, src)
	if !holds(t, e, cp, "tc(a, d)") {
		t.Error("non-linear tc(a,d) false")
	}
}

func TestStratifiedNegation(t *testing.T) {
	src := `
		node(a). node(b). node(c).
		edge(a, b).
		reach(a).
		reach(Y) :- reach(X), edge(X, Y).
		unreach(X) :- node(X), not reach(X).
	`
	e, cp := build(t, src)
	if !holds(t, e, cp, "unreach(c)") {
		t.Error("unreach(c) false")
	}
	if holds(t, e, cp, "unreach(b)") {
		t.Error("unreach(b) true")
	}
}

func TestNegationLocalVariable(t *testing.T) {
	// empty holds iff no p atom is derivable at all.
	src := "empty :- not p(X).\nq(a).\n"
	e, cp := build(t, src)
	if !holds(t, e, cp, "empty") {
		t.Error("empty should hold with no p facts")
	}
	src2 := "empty :- not p(X).\np(a).\n"
	e2, cp2 := build(t, src2)
	if holds(t, e2, cp2, "empty") {
		t.Error("empty should fail when p(a) exists")
	}
}

func TestRejectsHypothetical(t *testing.T) {
	prog, err := parser.Parse("a :- b[add: c].")
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ast.Compile(ast.RewriteNegation(prog), symbols.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(cp); err == nil {
		t.Error("expected hypothetical-premise rejection")
	}
}

func TestRejectsRecursionThroughNegation(t *testing.T) {
	prog, err := parser.Parse("a :- not b.\nb :- not a.\n")
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ast.Compile(ast.RewriteNegation(prog), symbols.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(cp); err == nil {
		t.Error("expected recursion-through-negation rejection")
	}
}

func TestRejectsNonRangeRestricted(t *testing.T) {
	prog, err := parser.Parse("p(X) :- q.\nq.\n")
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ast.Compile(ast.RewriteNegation(prog), symbols.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(cp); err == nil {
		t.Error("expected range-restriction rejection")
	}
}
