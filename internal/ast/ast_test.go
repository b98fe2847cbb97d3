package ast

import (
	"strings"
	"testing"

	"hypodatalog/internal/symbols"
)

func TestAtomHelpers(t *testing.T) {
	a := NewAtom("edge", Const("a"), Var("X"))
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
	b := NewAtom("edge", Const("a"), Var("X"))
	if !a.Equal(b) {
		t.Error("Equal false for identical atoms")
	}
	if a.Equal(NewAtom("edge", Var("X"), Const("a"))) {
		t.Error("Equal true for different atoms")
	}
	zero := NewAtom("yes")
	if zero.String() != "yes" || zero.Arity() != 0 {
		t.Errorf("zero-arity atom: %q/%d", zero.String(), zero.Arity())
	}
}

func TestPremiseString(t *testing.T) {
	p := HypP(NewAtom("grad", Var("S")), NewAtom("take", Var("S"), Var("C")))
	if got := p.String(); got != "grad(S)[add: take(S, C)]" {
		t.Errorf("String = %q", got)
	}
	n := NegP(NewAtom("p", Var("X")))
	if got := n.String(); got != "not p(X)" {
		t.Errorf("String = %q", got)
	}
}

func TestRuleVarsOrder(t *testing.T) {
	r := Rule{
		Head: NewAtom("h", Var("A"), Var("B")),
		Body: []Premise{
			PlainP(NewAtom("p", Var("B"), Var("C"))),
			HypP(NewAtom("q", Var("D")), NewAtom("w", Var("E"))),
		},
	}
	got := strings.Join(r.Vars(), ",")
	if got != "A,B,C,D,E" {
		t.Errorf("Vars = %s", got)
	}
}

func TestProgramCloneIndependence(t *testing.T) {
	p := &Program{
		Facts: []Atom{NewAtom("p", Const("a"))},
		Rules: []Rule{{Head: NewAtom("q", Var("X")), Body: []Premise{PlainP(NewAtom("p", Var("X")))}}},
	}
	c := p.Clone()
	c.Facts[0].Args[0] = Const("zzz")
	c.Rules[0].Body[0].Atom.Pred = "changed"
	if p.Facts[0].Args[0].Name != "a" || p.Rules[0].Body[0].Atom.Pred != "p" {
		t.Error("Clone shares storage")
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	p := &Program{
		Facts: []Atom{NewAtom("p", Var("X"))}, // non-ground fact
		Rules: []Rule{
			{Head: NewAtom("q"), Body: []Premise{{Kind: NegHyp, Atom: NewAtom("r")}}}, // no adds
			{Head: NewAtom("s"), Body: []Premise{{Kind: Hyp, Atom: NewAtom("r")}}},    // no adds
			{Head: NewAtom("p", Const("a"), Const("b"))},                              // arity clash with p/1
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
			Head: NewAtom("q", Var("X")),
			Body: []Premise{
				PlainP(NewAtom("p", Var("X"))),
				{Kind: NegHyp, Atom: NewAtom("r", Var("X"), Var("Y")), Adds: []Atom{NewAtom("w", Var("X"))}},
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
	if !aux.Head.Equal(pr.Atom) || aux.Body[0].Kind != Hyp || aux.Body[0].String() != "r(X, Y)[add: w(X)]" {
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
				Head: NewAtom("even"),
				Body: []Premise{NegP(NewAtom("selectx", Var("Y")))},
			},
			{ // Every variable of the negation is bound elsewhere: kept.
				Head: NewAtom("q", Var("X")),
				Body: []Premise{PlainP(NewAtom("p", Var("X"))), NegP(NewAtom("r", Var("X")))},
			},
			{ // X is shared, Z local: the aux predicate keeps X.
				Head: NewAtom("s", Var("X")),
				Body: []Premise{PlainP(NewAtom("p", Var("X"))), NegP(NewAtom("t", Var("X"), Var("Z")))},
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
		Facts: []Atom{NewAtom("edge", Const("a"), Const("b"))},
		Rules: []Rule{{
			Head: NewAtom("tc", Var("X"), Var("Y")),
			Body: []Premise{
				PlainP(NewAtom("tc", Var("X"), Var("Z"))),
				PlainP(NewAtom("edge", Var("Z"), Var("Y"))),
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
			Head: NewAtom("h", Var("A")),
			Body: []Premise{
				NegP(NewAtom("n", Var("B"))),                            // B negation-local
				HypP(NewAtom("q", Var("C")), NewAtom("w", Var("D"))),    // C, D positive
				{Kind: Negated, Atom: NewAtom("m", Var("A"), Var("C"))}, // A, C already positive
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
			{Head: NewAtom("a"), Body: []Premise{PlainP(NewAtom("b"))}},
			{Head: NewAtom("b"), Body: []Premise{PlainP(NewAtom("c"))}},
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
	p := &Program{Facts: []Atom{NewAtom("p", Var("X"))}}
	if _, err := Compile(p, symbols.NewTable()); err == nil {
		t.Error("expected non-ground fact rejection")
	}
}

func TestFormatCAtom(t *testing.T) {
	p := &Program{
		Rules: []Rule{{Head: NewAtom("p", Var("X"), Const("a"))}},
	}
	cp, err := Compile(p, symbols.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	r := cp.Rules[0]
	if got := FormatCAtom(r.Head, cp.Syms, r.VarNames); got != "p(X, a)" {
		t.Errorf("FormatCAtom = %q", got)
	}
}
