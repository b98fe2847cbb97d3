package ast_test

import (
	"testing"
	"testing/quick"

	. "hypodatalog/internal/ast"
	"hypodatalog/internal/parser"
)

func TestQuotedConstantsRoundTrip(t *testing.T) {
	cases := []string{
		"hello world", "Upper", "not", "", "3abc", "with'quote", `back\slash`,
		"über", "a-b", "p(x)",
	}
	for _, name := range cases {
		a := Atom{Pred: "p", Args: []Term{Const(name)}}
		printed := a.String() + "."
		prog, err := parser.Parse(printed)
		if err != nil {
			t.Errorf("constant %q: printed form %q does not parse: %v", name, printed, err)
			continue
		}
		if len(prog.Facts) != 1 || prog.Facts[0].Args[0].Name != name {
			t.Errorf("constant %q: round trip gave %v", name, prog.Facts[0])
		}
	}
}

func TestQuotedPredicateRoundTrip(t *testing.T) {
	a := Atom{Pred: "Strange Pred!"}
	printed := a.String() + "."
	prog, err := parser.Parse(printed)
	if err != nil {
		t.Fatalf("%q does not parse: %v", printed, err)
	}
	if prog.Facts[0].Pred != "Strange Pred!" {
		t.Errorf("pred = %q", prog.Facts[0].Pred)
	}
}

// Property: every constant name round-trips through print+parse.
func TestQuotingProperty(t *testing.T) {
	f := func(name string) bool {
		if name == "" {
			return true // empty names cannot arise from parsing; skip
		}
		for _, r := range name {
			if r == 0 || r == '\n' || r == '\r' {
				return true // the lexer treats raw newlines inside quotes literally; skip control chars
			}
		}
		a := Atom{Pred: "p", Args: []Term{Const(name)}}
		prog, err := parser.Parse(a.String() + ".")
		if err != nil {
			return false
		}
		return len(prog.Facts) == 1 && prog.Facts[0].Args[0].Name == name
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPlainNamesNotQuoted(t *testing.T) {
	for _, name := range []string{"abc", "a1_B", "0", "42", "x"} {
		if got := Const(name).String(); got != name {
			t.Errorf("plain name %q printed as %q", name, got)
		}
	}
}

func TestPremiseKindStrings(t *testing.T) {
	for k, want := range map[PremiseKind]string{
		Plain: "plain", Negated: "negated", Hyp: "hypothetical",
		NegHyp: "negated-hypothetical", PremiseKind(99): "PremiseKind(99)",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
}

func TestDelPremiseStringRoundTrip(t *testing.T) {
	p := Premise{Kind: Hyp, Atom: Atom{Pred: "goal"}, Adds: []Atom{Atom{Pred: "a", Args: []Term{Var("X")}}}, Dels: []Atom{Atom{Pred: "b"}}}
	if got := p.String(); got != "goal[add: a(X)][del: b]" {
		t.Errorf("String = %q", got)
	}
	// del-only premise.
	p2 := Premise{Kind: Hyp, Atom: Atom{Pred: "goal"}, Dels: []Atom{Atom{Pred: "b"}}}
	if got := p2.String(); got != "goal[del: b]" {
		t.Errorf("String = %q", got)
	}
	pr, err := parser.ParsePremise(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if pr.String() != p.String() {
		t.Errorf("round trip: %q vs %q", pr.String(), p.String())
	}
}
