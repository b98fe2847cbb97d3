package strat

import (
	"strings"
	"testing"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/parser"
	"hypodatalog/internal/workload"
)

func parse(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

// example9 is the paper's Example 9: three strata, the i-th defining a_i.
const example9 = `
	a3 :- b3, a3[add: c3].
	a3 :- d3, not a2.
	a2 :- b2, a2[add: c2].
	a2 :- d2, not a1.
	a1 :- b1, a1[add: c1].
	a1 :- d1.
`

func TestExample9IsLinearlyStratified(t *testing.T) {
	p := parse(t, example9)
	s, err := Stratify(p)
	if err != nil {
		t.Fatalf("Stratify: %v", err)
	}
	if s.NumStrata != 3 {
		t.Errorf("NumStrata = %d, want 3", s.NumStrata)
	}
	// Each a_i must be in stratum i and in an even (Σ) partition.
	for i, name := range []string{"a1", "a2", "a3"} {
		sig := ast.PredSig{Name: name, Arity: 0}
		if part := s.Part[sig]; part != 2*(i+1) {
			t.Errorf("partition(%s) = %d, want %d (stratum %d's Σ part)", name, part, 2*(i+1), i+1)
		}
	}
}

// example10 is the paper's Example 10: H-stratified with two strata, but
// not linearly stratified (Σ2 contains a non-linear hypothetical rule).
const example10 = `
	a2 :- a2[add: e2], a2[add: f2].
	a2 :- not b2.
	b2 :- not c2, b2.
	c2 :- not d2, c2.
	d2 :- a1[add: g1].
	a1 :- a1[add: e1].
	a1 :- a1[add: f1].
	a1 :- not b1.
`

func TestExample10NotLinearButHStratified(t *testing.T) {
	p := parse(t, example10)
	_, err := Stratify(p)
	if err == nil {
		t.Fatal("Stratify(example 10) succeeded, want non-linearity error")
	}
	var nse *NotStratifiableError
	if e, ok := err.(*NotStratifiableError); ok {
		nse = e
	} else {
		t.Fatalf("error type %T", err)
	}
	if !strings.Contains(nse.Reason, "non-linear") {
		t.Errorf("reason = %q, want non-linearity", nse.Reason)
	}
	// But it IS H-stratifiable.
	hs, err := HStratify(p)
	if err != nil {
		t.Fatalf("HStratify: %v", err)
	}
	if hs.NumStrata != 2 {
		t.Errorf("H-stratification strata = %d, want 2", hs.NumStrata)
	}
}

func TestRecursionThroughNegationRejected(t *testing.T) {
	p := parse(t, "a :- not b.\nb :- not a.\n")
	_, err := Stratify(p)
	if err == nil {
		t.Fatal("expected recursion-through-negation error")
	}
	if !strings.Contains(err.Error(), "negation") {
		t.Errorf("error = %v", err)
	}
	if err := CheckNegation(p); err == nil {
		t.Error("CheckNegation should also reject it")
	}
}

func TestIndirectNonLinearityRejected(t *testing.T) {
	// The paper's n+1 rule example after Definition 7: each rule looks
	// linear but together they imply the non-linear rule (2).
	src := `
		a :- b, d1, d2.
		d1 :- a[add: c1].
		d2 :- a[add: c2].
	`
	p := parse(t, src)
	if _, err := Stratify(p); err == nil {
		t.Fatal("expected non-linearity error for the indirect encoding")
	}
}

func TestDirectNonLinearHypRejected(t *testing.T) {
	// Rule form (2): two recursive hypothetical premises.
	p := parse(t, "a :- b, a[add: c1], a[add: c2].\na :- d.\n")
	if _, err := Stratify(p); err == nil {
		t.Fatal("expected non-linearity error for rule form (2)")
	}
}

func TestNonLinearHornIsFine(t *testing.T) {
	// Non-linear recursion WITHOUT hypothetical recursion is permitted
	// (it is ordinary Horn logic, still in P).
	src := `
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, Z), path(Z, Y).
	`
	p := parse(t, src)
	s, err := Stratify(p)
	if err != nil {
		t.Fatalf("Stratify: %v", err)
	}
	if s.NumStrata != 1 {
		t.Errorf("strata = %d, want 1", s.NumStrata)
	}
}

func TestLinearHypRecursionAccepted(t *testing.T) {
	// Mutual recursion with a single recursive premise per rule is linear
	// (e.g. Example 6's EVEN/ODD pair).
	p := parse(t, workload.ParityProgram(3))
	s, err := Stratify(p)
	if err != nil {
		t.Fatalf("Stratify: %v", err)
	}
	even := ast.PredSig{Name: "even", Arity: 0}
	odd := ast.PredSig{Name: "odd", Arity: 0}
	if s.CompOf[even] != s.CompOf[odd] {
		t.Error("even and odd should be mutually recursive")
	}
	// selectx is negated by the Σ rules, so it must live strictly below
	// the partition of even/odd.
	sel := ast.PredSig{Name: "selectx", Arity: 1}
	if s.Part[sel] >= s.Part[even] {
		t.Errorf("part(selectx)=%d not below part(even)=%d", s.Part[sel], s.Part[even])
	}
}

func TestHamiltonianIsOneStratum(t *testing.T) {
	g := workload.Digraph{N: 3, Edges: [][2]int{{0, 1}, {1, 2}}}
	p := parse(t, workload.HamiltonianProgram(g))
	s, err := Stratify(p)
	if err != nil {
		t.Fatalf("Stratify: %v", err)
	}
	// yes is NP (stratum 1); no = ~yes needs the next Δ, i.e. stratum 2.
	yes := ast.PredSig{Name: "yes", Arity: 0}
	no := ast.PredSig{Name: "no", Arity: 0}
	// Partitions 2i-1 and 2i form stratum i.
	if part := s.Part[yes]; part < 1 || part > 2 {
		t.Errorf("partition(yes) = %d, want stratum 1's (1 or 2)", part)
	}
	if part := s.Part[no]; part < 3 || part > 4 {
		t.Errorf("partition(no) = %d, want stratum 2's (3 or 4)", part)
	}
}

func TestKStrataProgramHasKStrata(t *testing.T) {
	for _, k := range []int{1, 2, 4, 7} {
		p := parse(t, workload.KStrataProgram(k, 2))
		s, err := Stratify(p)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if s.NumStrata != k {
			t.Errorf("k=%d: NumStrata = %d", k, s.NumStrata)
		}
	}
}

func TestDeltaSigmaPartition(t *testing.T) {
	p := parse(t, example9)
	s, err := Stratify(p)
	if err != nil {
		t.Fatal(err)
	}
	// Every rule must appear in exactly one of Delta/Sigma.
	seen := map[int]bool{}
	for _, grp := range append(append([][]int{}, s.Delta...), s.Sigma...) {
		for _, ri := range grp {
			if seen[ri] {
				t.Errorf("rule %d in two groups", ri)
			}
			seen[ri] = true
		}
	}
	if len(seen) != len(p.Rules) {
		t.Errorf("partitioned %d of %d rules", len(seen), len(p.Rules))
	}
	// Hypothetical rules must land in Σ parts (even partitions).
	for ri, r := range p.Rules {
		hyp := false
		for _, pr := range r.Body {
			if pr.Kind == ast.Hyp {
				hyp = true
			}
		}
		if hyp && s.RulePart[ri]%2 != 0 {
			t.Errorf("hypothetical rule %q in odd partition %d", r.String(), s.RulePart[ri])
		}
	}
}

func TestStratificationSatisfiesDefinition6(t *testing.T) {
	// Property: the computed partition satisfies the Definition 6
	// constraints on several generated programs.
	srcs := []string{
		example9,
		workload.ParityProgram(4),
		workload.KStrataProgram(5, 3),
		workload.ChainProgram(4),
		workload.OrderLoopProgram(4),
	}
	for _, src := range srcs {
		p := parse(t, src)
		s, err := Stratify(p)
		if err != nil {
			t.Fatalf("Stratify: %v\n%s", err, src)
		}
		verifyDefinition6(t, p, s, src)
	}
}

// verifyDefinition6 checks the H-stratification constraints directly.
func verifyDefinition6(t *testing.T, p *ast.Program, s *Stratification, src string) {
	t.Helper()
	defined := map[ast.PredSig]bool{}
	for _, r := range p.Rules {
		defined[ast.PredSig{Name: r.Head.Pred, Arity: r.Head.Arity()}] = true
	}
	for ri, r := range p.Rules {
		h := s.RulePart[ri]
		for _, pr := range r.Body {
			sig := ast.PredSig{Name: pr.Atom.Pred, Arity: pr.Atom.Arity()}
			if !defined[sig] {
				continue
			}
			b := s.Part[sig]
			switch pr.Kind {
			case ast.Plain:
				if b > h {
					t.Errorf("%s: positive %s at part %d above rule part %d\n%s", r, sig, b, h, src)
				}
			case ast.Negated:
				if b > h || (h%2 == 0 && b == h) {
					t.Errorf("%s: negative %s at part %d violates even rule part %d\n%s", r, sig, b, h, src)
				}
			case ast.Hyp:
				if b > h || (h%2 == 1 && b == h) {
					t.Errorf("%s: hypothetical %s at part %d violates odd rule part %d\n%s", r, sig, b, h, src)
				}
			}
		}
	}
}

func TestIterationsPolynomial(t *testing.T) {
	// Lemma 1: the relaxation terminates in O(m^2) outer iterations; on
	// the synthetic k-strata family it should stay near k.
	for _, k := range []int{2, 8, 32} {
		p := parse(t, workload.KStrataProgram(k, 2))
		s, err := Stratify(p)
		if err != nil {
			t.Fatal(err)
		}
		if s.Iterations > 4*k+4 {
			t.Errorf("k=%d: %d iterations, suspiciously high", k, s.Iterations)
		}
	}
}

// TestNegatedHypotheticalStratifiesAsRewritten: ~A[add:B] is analysed as
// section 3.1's rewrite reads it, a negation of a hypothetical query, so
// negating a Σ_1 query takes a second stratum, and negating one's own
// hypothetical is recursion through negation.
func TestNegatedHypotheticalStratifiesAsRewritten(t *testing.T) {
	for _, src := range []string{
		"q :- not r[add: w].\nr :- w, e.\n",
		"q :- not aux.\naux :- r[add: w].\nr :- w, e.\n",
	} {
		s, err := Stratify(parse(t, src))
		if err != nil {
			t.Fatalf("Stratify(%q): %v", src, err)
		}
		if s.NumStrata != 2 || s.Part[ast.PredSig{Name: "q"}] != 3 {
			t.Errorf("%q: %d strata, q in partition %d; want 2 strata, q in 3", src, s.NumStrata, s.Part[ast.PredSig{Name: "q"}])
		}
	}
	if err := CheckNegation(parse(t, "p :- not p[add: q].\n")); err == nil {
		t.Error("recursion through a negated hypothetical accepted")
	}
}
