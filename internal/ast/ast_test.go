package ast

import (
	"strings"
	"testing"

	"hypodatalog/internal/symbols"
)

func TestAtomHelpers(t *testing.T) {
	a := Atom{Pred: "edge", Args: []Term{Const("a"), Var("X")}}
	if a.IsGround() {
		t.Error("edge(a, X) reported ground")
	}
	if got := a.String(); got != "edge(a, X)" {
		t.Errorf("String = %q", got)
	}
	vs := a.Vars(nil)
	if len(vs) != 1 || vs[0] != "X" {
		t.Errorf("Vars = %v", vs)
	}
	zero := Atom{Pred: "yes"}
	if zero.String() != "yes" || zero.Arity() != 0 {
		t.Errorf("zero-arity atom: %q/%d", zero.String(), zero.Arity())
	}
}

func TestPremiseString(t *testing.T) {
	p := Premise{Kind: Hyp, Atom: Atom{Pred: "grad", Args: []Term{Var("S")}}, Adds: []Atom{Atom{Pred: "take", Args: []Term{Var("S"), Var("C")}}}}
	if got := p.String(); got != "grad(S)[add: take(S, C)]" {
		t.Errorf("String = %q", got)
	}
	n := NegP(Atom{Pred: "p", Args: []Term{Var("X")}})
	if got := n.String(); got != "not p(X)" {
		t.Errorf("String = %q", got)
	}
}

func TestRuleVarsOrder(t *testing.T) {
	r := Rule{
		Head: Atom{Pred: "h", Args: []Term{Var("A"), Var("B")}},
		Body: []Premise{
			PlainP(Atom{Pred: "p", Args: []Term{Var("B"), Var("C")}}),
			Premise{Kind: Hyp, Atom: Atom{Pred: "q", Args: []Term{Var("D")}}, Adds: []Atom{Atom{Pred: "w", Args: []Term{Var("E")}}}},
		},
	}
	got := strings.Join(r.Vars(), ",")
	if got != "A,B,C,D,E" {
		t.Errorf("Vars = %s", got)
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	p := &Program{
		Facts: []Atom{Atom{Pred: "p", Args: []Term{Var("X")}}}, // non-ground fact
		Rules: []Rule{
			{Head: Atom{Pred: "q"}, Body: []Premise{{Kind: NegHyp, Atom: Atom{Pred: "r"}}}}, // no adds
			{Head: Atom{Pred: "s"}, Body: []Premise{{Kind: Hyp, Atom: Atom{Pred: "r"}}}},    // no adds
			{Head: Atom{Pred: "p", Args: []Term{Const("a"), Const("b")}}},                   // arity clash with p/1
		},
	}
	errs := Validate(p)
	if len(errs) < 4 {
		t.Fatalf("got %d errors, want >= 4: %v", len(errs), errs)
	}
}

func TestRewriteNegHyp(t *testing.T) {
	p := &Program{
		Rules: []Rule{{
			Head: Atom{Pred: "q", Args: []Term{Var("X")}},
			Body: []Premise{
				PlainP(Atom{Pred: "p", Args: []Term{Var("X")}}),
				{Kind: NegHyp, Atom: Atom{Pred: "r", Args: []Term{Var("X"), Var("Y")}}, Adds: []Atom{Atom{Pred: "w", Args: []Term{Var("X")}}}},
			},
		}},
	}
	before := p.String()
	rw := RewriteNegation(p)
	if p.String() != before {
		t.Errorf("input modified:\n%s", p)
	}
	if len(rw.Rules) != 2 {
		t.Fatalf("rules = %d", len(rw.Rules))
	}
	// The premise became a plain negation of the aux predicate, over the
	// variables that occur positively elsewhere: X, not Y.
	pr := rw.Rules[0].Body[1]
	if pr.Kind != Negated || !IsAux(pr.Atom.Pred) || len(pr.Atom.Args) != 1 || pr.Atom.Args[0] != Var("X") {
		t.Errorf("rewritten premise = %v", pr)
	}
	// The aux rule keeps the hypothetical body, Y free in it.
	aux := rw.Rules[1]
	if aux.Head.String() != pr.Atom.String() || aux.Body[0].Kind != Hyp || aux.Body[0].String() != "r(X, Y)[add: w(X)]" {
		t.Errorf("aux rule = %v", aux)
	}
	if errs := Validate(rw); len(errs) != 0 {
		t.Errorf("rewritten program invalid: %v", errs)
	}
	// Idempotent.
	if again := RewriteNegation(rw); again.String() != rw.String() {
		t.Errorf("second rewrite changed the program:\n%s", again)
	}
}

func TestRewriteNegationLocalVariable(t *testing.T) {
	p := &Program{
		Rules: []Rule{
			{ // Example 6: Y is local to the negation.
				Head: Atom{Pred: "even"},
				Body: []Premise{NegP(Atom{Pred: "selectx", Args: []Term{Var("Y")}})},
			},
			{ // Every variable of the negation is bound elsewhere: kept.
				Head: Atom{Pred: "q", Args: []Term{Var("X")}},
				Body: []Premise{PlainP(Atom{Pred: "p", Args: []Term{Var("X")}}), NegP(Atom{Pred: "r", Args: []Term{Var("X")}})},
			},
			{ // X is shared, Z local: the aux predicate keeps X.
				Head: Atom{Pred: "s", Args: []Term{Var("X")}},
				Body: []Premise{PlainP(Atom{Pred: "p", Args: []Term{Var("X")}}), NegP(Atom{Pred: "t", Args: []Term{Var("X"), Var("Z")}})},
			},
		},
	}
	rw := RewriteNegation(p)
	if len(rw.Rules) != 5 {
		t.Fatalf("rules = %d:\n%s", len(rw.Rules), rw)
	}
	if &rw.Rules[1].Body[0] != &p.Rules[1].Body[0] {
		t.Error("a rule the rewrite leaves alone was copied")
	}
	even, s := rw.Rules[0].Body[0], rw.Rules[2].Body[1]
	if even.Kind != Negated || !IsAux(even.Atom.Pred) || len(even.Atom.Args) != 0 {
		t.Errorf("even's premise = %v", even)
	}
	if s.Kind != Negated || !IsAux(s.Atom.Pred) || len(s.Atom.Args) != 1 || s.Atom.Args[0] != Var("X") {
		t.Errorf("s's premise = %v", s)
	}
	for i, want := range []string{"selectx(Y)", "t(X, Z)"} {
		aux := rw.Rules[3+i]
		if aux.Body[0].Kind != Plain || aux.Body[0].String() != want {
			t.Errorf("aux rule %d = %v, want body %s", i, aux, want)
		}
	}
	cp, err := Compile(rw, symbols.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.CheckRewritten(); err != nil {
		t.Errorf("rewritten program: %v", err)
	}
	raw, err := Compile(p, symbols.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	if raw.CheckRewritten() == nil {
		t.Error("CheckRewritten accepts a negation-local variable")
	}
}

func TestCompileInternsSlots(t *testing.T) {
	p := &Program{
		Facts: []Atom{Atom{Pred: "edge", Args: []Term{Const("a"), Const("b")}}},
		Rules: []Rule{{
			Head: Atom{Pred: "tc", Args: []Term{Var("X"), Var("Y")}},
			Body: []Premise{
				PlainP(Atom{Pred: "tc", Args: []Term{Var("X"), Var("Z")}}),
				PlainP(Atom{Pred: "edge", Args: []Term{Var("Z"), Var("Y")}}),
			},
		}},
	}
	cp, err := Compile(p, symbols.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	r := cp.Rules[0]
	if r.NumVars != 3 {
		t.Fatalf("NumVars = %d", r.NumVars)
	}
	// X is slot 0 in both head and body.
	if r.Head.Args[0] != r.Body[0].Atom.Args[0] {
		t.Error("X slots differ")
	}
	// Z is shared between the two body premises.
	if r.Body[0].Atom.Args[1] != r.Body[1].Atom.Args[0] {
		t.Error("Z slots differ")
	}
	if len(cp.ByHead) != 1 || !cp.IDB[r.Head.Pred] {
		t.Error("indexes wrong")
	}
	if cp.MaxArity != 2 {
		t.Errorf("MaxArity = %d", cp.MaxArity)
	}
}

func TestPosVarComputation(t *testing.T) {
	p := &Program{
		Rules: []Rule{{
			Head: Atom{Pred: "h", Args: []Term{Var("A")}},
			Body: []Premise{
				NegP(Atom{Pred: "n", Args: []Term{Var("B")}}), // B negation-local
				Premise{Kind: Hyp, Atom: Atom{Pred: "q", Args: []Term{Var("C")}}, Adds: []Atom{Atom{Pred: "w", Args: []Term{Var("D")}}}}, // C, D positive
				{Kind: Negated, Atom: Atom{Pred: "m", Args: []Term{Var("A"), Var("C")}}},                                                 // A, C already positive
			},
		}},
	}
	cp, err := Compile(p, symbols.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	r := cp.Rules[0]
	want := map[string]bool{"A": true, "B": false, "C": true, "D": true}
	for slot, name := range r.VarNames {
		if r.PosVar[slot] != want[name] {
			t.Errorf("PosVar[%s] = %v, want %v", name, r.PosVar[slot], want[name])
		}
	}
}

func TestRestrict(t *testing.T) {
	p := &Program{
		Rules: []Rule{
			{Head: Atom{Pred: "a"}, Body: []Premise{PlainP(Atom{Pred: "b"})}},
			{Head: Atom{Pred: "b"}, Body: []Premise{PlainP(Atom{Pred: "c"})}},
		},
	}
	cp, err := Compile(p, symbols.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	sub := cp.Restrict([]int{1})
	if len(sub.ByHead) != 1 {
		t.Fatalf("ByHead = %v", sub.ByHead)
	}
	bPred, _ := cp.Syms.LookupPred("b", 0)
	aPred, _ := cp.Syms.LookupPred("a", 0)
	if !sub.IDB[bPred] || sub.IDB[aPred] {
		t.Error("IDB wrong in restriction")
	}
	// Shares rule storage with the parent.
	if &sub.Rules[0] != &cp.Rules[0] {
		t.Error("rules were copied")
	}
}

func TestCompileRejectsNonGroundFact(t *testing.T) {
	p := &Program{Facts: []Atom{Atom{Pred: "p", Args: []Term{Var("X")}}}}
	if _, err := Compile(p, symbols.NewTable()); err == nil {
		t.Error("expected non-ground fact rejection")
	}
}
