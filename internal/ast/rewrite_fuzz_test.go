package ast_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/parser"
	"hypodatalog/internal/strat"
	"hypodatalog/internal/symbols"
	"hypodatalog/internal/workload"
)

// FuzzRewrite checks the negation rewrite on every program that parses
// and compiles: the input is left as it was, the output is what the
// engines accept, a second pass changes nothing, and the analyses that
// run on the output — recursion through negation, linear stratification
// and its number of strata — answer as they do on the input.
func FuzzRewrite(f *testing.F) {
	f.Add("even :- not selectx(X).\nodd :- selectx(X), even[add: copied(X)].\nselectx(X) :- item(X), not copied(X).\n")
	f.Add("q(X) :- p(X), not r(X, Y)[add: w(Y)].\nr(X, Y) :- w(X), s(Y).\n")
	f.Add("a :- not b[add: c].\nb :- c, not a2(X).\na2(X) :- b[add: d(X)].\n")
	f.Add("p :- not p[add: q].\n")
	for _, name := range []string{"parity", "hamiltonian", "university", "tokengame", "example9", "nationality"} {
		if data, err := os.ReadFile(filepath.Join("..", "..", "examples", "programs", name+".hdl")); err == nil {
			f.Add(string(data))
		}
	}
	for seed := int64(0); seed < 8; seed++ {
		f.Add(workload.RandomStratifiedProgram(rand.New(rand.NewSource(seed)), workload.DefaultFuzz()))
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := parser.Parse(src)
		if err != nil || len(ast.Validate(p)) > 0 {
			return
		}
		if _, err := ast.Compile(p, symbols.NewTable()); err != nil {
			return
		}
		before := p.String()
		rw := ast.RewriteNegation(p)
		if p.String() != before {
			t.Fatalf("input modified:\n%s\nwas:\n%s", p, before)
		}
		cp, err := ast.Compile(rw, symbols.NewTable())
		if err != nil {
			t.Fatalf("rewritten program does not compile: %v\n%s", err, rw)
		}
		if err := cp.CheckRewritten(); err != nil {
			t.Fatalf("rewritten program refused: %v\n%s", err, rw)
		}
		if again := ast.RewriteNegation(rw); again.String() != rw.String() {
			t.Fatalf("not idempotent:\n%s\nthen:\n%s", rw, again)
		}
		if e1, e2 := strat.CheckNegation(p), strat.CheckNegation(rw); (e1 == nil) != (e2 == nil) {
			t.Fatalf("recursion through negation: input %v, rewritten %v\n%s", e1, e2, src)
		}
		s1, e1 := strat.Stratify(p)
		s2, e2 := strat.Stratify(rw)
		if (e1 == nil) != (e2 == nil) {
			t.Fatalf("linear: input %v, rewritten %v\n%s", e1, e2, src)
		}
		if e1 == nil && s1.NumStrata != s2.NumStrata {
			t.Fatalf("strata: input %d, rewritten %d\n%s", s1.NumStrata, s2.NumStrata, src)
		}
	})
}
