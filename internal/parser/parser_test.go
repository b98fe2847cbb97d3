package parser

import (
	"strings"
	"testing"

	"hypodatalog/internal/ast"
)

func TestParseFactsAndRules(t *testing.T) {
	prog, err := Parse(`
		take(tony, cs250).
		grad(S) :- take(S, his101), take(S, eng201).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Facts) != 1 || len(prog.Rules) != 1 {
		t.Fatalf("facts=%d rules=%d, want 1/1", len(prog.Facts), len(prog.Rules))
	}
	if got := prog.Facts[0].String(); got != "take(tony, cs250)" {
		t.Errorf("fact = %q", got)
	}
	if got := prog.Rules[0].String(); got != "grad(S) :- take(S, his101), take(S, eng201)." {
		t.Errorf("rule = %q", got)
	}
}

func TestParseHypotheticalPremise(t *testing.T) {
	prog, err := Parse("within1(S, D) :- grad(S, D)[add: take(S, C)].")
	if err != nil {
		t.Fatal(err)
	}
	r := prog.Rules[0]
	if len(r.Body) != 1 {
		t.Fatalf("body len %d", len(r.Body))
	}
	p := r.Body[0]
	if p.Kind != ast.Hyp {
		t.Fatalf("kind = %v, want Hyp", p.Kind)
	}
	if p.Atom.Pred != "grad" || len(p.Adds) != 1 || p.Adds[0].Pred != "take" {
		t.Fatalf("premise = %v", p)
	}
}

func TestParseMultipleAdds(t *testing.T) {
	prog, err := Parse("a(T) :- accept(T)[add: control(T), cell(T), cell2(T)].")
	if err != nil {
		t.Fatal(err)
	}
	r := prog.Rules[0]
	if len(r.Body[0].Adds) != 3 {
		t.Fatalf("adds = %d, want 3", len(r.Body[0].Adds))
	}
}

func TestParseDeletions(t *testing.T) {
	prog, err := Parse("goal :- sub[add: a(X)][del: b(X), c].")
	if err != nil {
		t.Fatal(err)
	}
	r := prog.Rules[0]
	pr := r.Body[0]
	if pr.Kind != ast.Hyp || len(pr.Adds) != 1 || len(pr.Dels) != 2 {
		t.Fatalf("premise = %v (adds=%d dels=%d)", pr, len(pr.Adds), len(pr.Dels))
	}
	// del-only premise.
	prog2, err := Parse("goal :- sub[del: b].")
	if err != nil {
		t.Fatal(err)
	}
	r2 := prog2.Rules[0]
	if r2.Body[0].Kind != ast.Hyp || len(r2.Body[0].Dels) != 1 || len(r2.Body[0].Adds) != 0 {
		t.Fatalf("premise = %v", r2.Body[0])
	}
	// Order [del][add] also accepted; round-trips via String.
	prog3, err := Parse("goal :- sub[del: b][add: a].")
	if err != nil {
		t.Fatal(err)
	}
	r3 := prog3.Rules[0]
	if got := r3.String(); got != "goal :- sub[add: a][del: b]." {
		t.Errorf("canonical form = %q", got)
	}
}

func TestParseNegation(t *testing.T) {
	prog, err := Parse("select(Y) :- node(Y), not pnode(Y).")
	if err != nil {
		t.Fatal(err)
	}
	r := prog.Rules[0]
	if r.Body[1].Kind != ast.Negated {
		t.Fatalf("kind = %v", r.Body[1].Kind)
	}
	// Tilde form is equivalent.
	prog2, err := Parse("select(Y) :- node(Y), ~pnode(Y).")
	if err != nil {
		t.Fatal(err)
	}
	r2 := prog2.Rules[0]
	if r2.Body[1].Kind != ast.Negated {
		t.Fatalf("~ kind = %v", r2.Body[1].Kind)
	}
}

func TestParseNegatedHypothetical(t *testing.T) {
	prog, err := Parse("a :- not b[add: c].")
	if err != nil {
		t.Fatal(err)
	}
	r := prog.Rules[0]
	if r.Body[0].Kind != ast.NegHyp {
		t.Fatalf("kind = %v, want NegHyp", r.Body[0].Kind)
	}
}

func TestParseQuery(t *testing.T) {
	prog, err := Parse("?- grad(tony)[add: take(tony, cs452)].")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Queries) != 1 || prog.Queries[0].Kind != ast.Hyp {
		t.Fatalf("queries = %v", prog.Queries)
	}
}

func TestParseZeroArity(t *testing.T) {
	prog, err := Parse("even :- not select.\nyes.\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Facts) != 1 || prog.Facts[0].Pred != "yes" {
		t.Fatalf("facts = %v", prog.Facts)
	}
	if prog.Rules[0].Head.Pred != "even" || prog.Rules[0].Head.Arity() != 0 {
		t.Fatalf("rule head = %v", prog.Rules[0].Head)
	}
}

func TestNonGroundBodilessClauseIsRule(t *testing.T) {
	prog, err := Parse("p(X).")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 1 || len(prog.Facts) != 0 {
		t.Fatalf("rules=%d facts=%d, want rule", len(prog.Rules), len(prog.Facts))
	}
}

func TestRoundTrip(t *testing.T) {
	src := `edge(a, b).
node(a).
path(X) :- select(Y), edge(X, Y), path(Y)[add: pnode(Y)].
path(X) :- not select(Y).
select(Y) :- node(Y), not pnode(Y).
?- yes.
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog2, err := Parse(prog.String())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, prog.String())
	}
	if prog.String() != prog2.String() {
		t.Fatalf("round trip mismatch:\n%s\n---\n%s", prog.String(), prog2.String())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"p(",
		"p :- q",            // missing period
		"p :- q[sub: r].",   // wrong keyword
		"p :- q[add: ].",    // empty add list
		":- p.",             // missing head
		"p :- .",            // empty body
		"P(x).",             // variable as predicate: parse error
		"p(a) q(b).",        // missing separator
		"p :- q[add: r(X)]", // missing final period
		"?- p(a)",           // unterminated query
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := Parse("p.\nq :- r(.\n")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %q lacks line info", err)
	}
}

func TestParseAtomAndPremiseHelpers(t *testing.T) {
	a, err := ParseAtom("edge(a, B)")
	if err != nil {
		t.Fatal(err)
	}
	if a.Pred != "edge" || !a.Args[1].IsVar {
		t.Fatalf("atom = %v", a)
	}
	p, err := ParsePremise("grad(S)[add: take(S, C)]")
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != ast.Hyp {
		t.Fatalf("premise = %v", p)
	}
	if _, err := ParseAtom("edge(a) trailing"); err == nil {
		t.Error("expected trailing-input error")
	}
}
