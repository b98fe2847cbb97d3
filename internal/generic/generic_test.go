package generic

import (
	"fmt"
	"math/rand"
	"testing"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/parser"
	"hypodatalog/internal/ref"
	"hypodatalog/internal/strat"
	"hypodatalog/internal/symbols"
	"hypodatalog/internal/topdown"
)

func askYes(t *testing.T, src string) bool {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
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
	e := topdown.New(cp, ref.Domain(cp), topdown.Options{}, &topdown.Budget{Max: 50_000_000})
	p, ok := cp.Syms.LookupPred("yes", 0)
	if !ok {
		t.Fatal("no yes predicate")
	}
	got, err := e.Ask(e.Interner().ID(p, nil), e.EmptyState())
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("el%d", i)
	}
	return out
}

func TestOrderRulesAreLinearlyStratified(t *testing.T) {
	src := ParityViaOrder("d") + DomainFacts("d", names(3))
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := strat.Stratify(prog); err != nil {
		t.Fatalf("order rules not linearly stratifiable: %v", err)
	}
}

func TestParityViaOrder(t *testing.T) {
	for n := 1; n <= 5; n++ {
		src := ParityViaOrder("d") + DomainFacts("d", names(n))
		want := n%2 == 1
		if got := askYes(t, src); got != want {
			t.Errorf("n=%d: yes=%v want %v", n, got, want)
		}
	}
}

// TestOrderIndependence is the section 6.2.3 property: the answer is the
// same no matter how the domain constants are named (genericity), because
// every linear order is asserted.
func TestOrderIndependence(t *testing.T) {
	base := ParityViaOrder("d")
	for n := 2; n <= 4; n++ {
		orig := askYes(t, base+DomainFacts("d", names(n)))
		rng := rand.New(rand.NewSource(int64(n)))
		for trial := 0; trial < 3; trial++ {
			perm := rng.Perm(n)
			renamed := make([]string, n)
			for i, pi := range perm {
				renamed[i] = fmt.Sprintf("renamed%d", pi)
			}
			if got := askYes(t, base+DomainFacts("d", renamed)); got != orig {
				t.Errorf("n=%d trial %d: renaming changed the answer", n, trial)
			}
		}
	}
}

// TestGenericWithExtraRelation uses the asserted order to answer a query
// over a second relation: yes iff the number of marked elements is odd —
// the order walks the whole domain, counting only marked ones.
func TestGenericWithExtraRelation(t *testing.T) {
	rules := OrderRules("d") + `
		cnt_even(X) :- first1(X), not marked(X).
		cnt_odd(X) :- first1(X), marked(X).
		cnt_even(Y) :- next1(X, Y), cnt_even(X), not marked(Y).
		cnt_odd(Y) :- next1(X, Y), cnt_even(X), marked(Y).
		cnt_odd(Y) :- next1(X, Y), cnt_odd(X), not marked(Y).
		cnt_even(Y) :- next1(X, Y), cnt_odd(X), marked(Y).
		accept :- last1(X), cnt_odd(X).
	`
	for n := 1; n <= 4; n++ {
		for marked := 0; marked <= n; marked++ {
			src := rules + DomainFacts("d", names(n))
			for i := 0; i < marked; i++ {
				src += fmt.Sprintf("marked(el%d).\n", i)
			}
			want := marked%2 == 1
			if got := askYes(t, src); got != want {
				t.Errorf("n=%d marked=%d: yes=%v want %v", n, marked, got, want)
			}
		}
	}
}
