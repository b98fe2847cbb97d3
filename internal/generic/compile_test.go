package generic

import (
	"fmt"
	"strings"
	"testing"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/parser"
	"hypodatalog/internal/ref"
	"hypodatalog/internal/strat"
	"hypodatalog/internal/symbols"
	"hypodatalog/internal/topdown"
	"hypodatalog/internal/turing"
)

// dbFacts renders a domain of n elements plus marked elements of p.
func dbFacts(n int, marked []int, domNames func(int) string) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "d(%s).\n", domNames(i))
	}
	for _, i := range marked {
		fmt.Fprintf(&b, "p(%s).\n", domNames(i))
	}
	return b.String()
}

func plainName(i int) string { return fmt.Sprintf("el%d", i) }

// askGenericYes compiles R(ψ) + facts and evaluates yes.
func askGenericYes(t *testing.T, rules, facts string) bool {
	t.Helper()
	prog, err := parser.Parse(rules + facts)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if errs := ast.Validate(prog); len(errs) > 0 {
		t.Fatalf("validate: %v", errs[0])
	}
	if err := strat.CheckNegation(prog); err != nil {
		t.Fatalf("negation: %v", err)
	}
	cp, err := ast.Compile(ast.RewriteNegation(prog), symbols.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	e := topdown.New(cp, ref.Domain(cp), topdown.Options{}, &topdown.Budget{Max: 500_000_000})
	p, ok := cp.Syms.LookupPred("yes", 0)
	if !ok {
		t.Fatal("no yes/0")
	}
	got, err := e.Ask(e.Interner().ID(p, nil), e.EmptyState())
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestCompileGenericIsConstantFree checks the headline syntactic property
// of Theorem 2: R(ψ) mentions no constants at all.
func TestCompileGenericIsConstantFree(t *testing.T) {
	rules, err := CompileGeneric(turing.HasOne(), "d", "p")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parser.Parse(rules)
	if err != nil {
		t.Fatalf("rules do not parse: %v\n%s", err, rules)
	}
	check := func(a ast.Atom, where string) {
		for _, tm := range a.Args {
			if !tm.IsVar {
				t.Errorf("constant %q in %s: %s", tm.Name, where, a)
			}
		}
	}
	for _, r := range prog.Rules {
		check(r.Head, "head")
		for _, pr := range r.Body {
			check(pr.Atom, "premise")
			for _, a := range pr.Adds {
				check(a, "add")
			}
			for _, a := range pr.Dels {
				check(a, "del")
			}
		}
	}
	if len(prog.Facts) != 0 {
		t.Errorf("R(ψ) contains facts: %v", prog.Facts)
	}
}

func TestCompileGenericStratifiable(t *testing.T) {
	rules, err := CompileGeneric(turing.HasOne(), "d", "p")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parser.Parse(rules + dbFacts(2, []int{0}, plainName))
	if err != nil {
		t.Fatal(err)
	}
	s, err := strat.Stratify(prog)
	if err != nil {
		t.Fatalf("R(ψ) not linearly stratifiable: %v", err)
	}
	if s.NumStrata < 1 {
		t.Errorf("strata = %d", s.NumStrata)
	}
}

// TestGenericHasOne runs Theorem 2 end to end: the constant-free rulebase
// for the query "is p non-empty?" answers correctly on unordered domains.
func TestGenericHasOne(t *testing.T) {
	rules, err := CompileGeneric(turing.HasOne(), "d", "p")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		n      int
		marked []int
	}{
		{2, nil}, {2, []int{0}}, {2, []int{1}}, {2, []int{0, 1}},
		{3, nil}, {3, []int{1}}, {3, []int{0, 2}},
	}
	for _, tc := range cases {
		want := len(tc.marked) > 0
		got := askGenericYes(t, rules, dbFacts(tc.n, tc.marked, plainName))
		if got != want {
			t.Errorf("n=%d marked=%v: yes=%v want %v", tc.n, tc.marked, got, want)
		}
	}
}

// TestGenericAllOnes: the query "does p cover the whole domain?" — its
// zeros are written by negation-as-failure, which the paper singles out
// as essential to the bitmap encoding.
func TestGenericAllOnes(t *testing.T) {
	rules, err := CompileGeneric(turing.AllOnes(), "d", "p")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		n      int
		marked []int
		want   bool
	}{
		{2, []int{0, 1}, true},
		{2, []int{0}, false},
		{2, nil, false},
		{3, []int{0, 1, 2}, true},
		{3, []int{0, 2}, false},
	}
	for _, tc := range cases {
		got := askGenericYes(t, rules, dbFacts(tc.n, tc.marked, plainName))
		if got != tc.want {
			t.Errorf("n=%d marked=%v: yes=%v want %v", tc.n, tc.marked, got, tc.want)
		}
	}
}

// TestGenericOrderIndependence: renaming the domain must not change the
// answer (section 6.2.3 — re-ordering is a renaming for generic queries).
func TestGenericOrderIndependence(t *testing.T) {
	rules, err := CompileGeneric(turing.HasOne(), "d", "p")
	if err != nil {
		t.Fatal(err)
	}
	renamed := func(i int) string { return fmt.Sprintf("zz%d", 9-i) }
	for _, marked := range [][]int{nil, {0}, {1}} {
		a := askGenericYes(t, rules, dbFacts(3, marked, plainName))
		b := askGenericYes(t, rules, dbFacts(3, marked, renamed))
		if a != b {
			t.Errorf("marked=%v: renaming changed the answer (%v vs %v)", marked, a, b)
		}
	}
}

func TestCompileGenericRejectsBadAlphabet(t *testing.T) {
	m := turing.HasOne()
	m.Alphabet = []byte{'x'}
	m.Transitions = nil
	if _, err := CompileGeneric(m, "d", "p"); err == nil {
		t.Error("expected alphabet rejection")
	}
}
