package topdown

import (
	"math/rand"
	"testing"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/parser"
	"hypodatalog/internal/ref"
	"hypodatalog/internal/strat"
	"hypodatalog/internal/symbols"
	"hypodatalog/internal/workload"
)

// TestFuzzAgainstReference generates random stratified programs with
// hypothetical premises and negation and checks that the engine — with and
// without tabling, with and without the planner — agrees with the naive
// Definition 3 interpreter on every ground atom over the domain.
//
// This is the principal soundness test for the clean-failure memoisation:
// a bug in the minimum-touched-frame bookkeeping shows up here as a tabled
// engine disagreeing with the untabled one or with the reference.
func TestFuzzAgainstReference(t *testing.T) {
	iters := 150
	if testing.Short() {
		iters = 25
	}
	for seed := 0; seed < iters; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		src := workload.RandomStratifiedProgram(rng, workload.DefaultFuzz())
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: generated program does not parse: %v\n%s", seed, err, src)
		}
		if errs := ast.Validate(prog); len(errs) > 0 {
			t.Fatalf("seed %d: generated program invalid: %v\n%s", seed, errs[0], src)
		}
		if err := strat.CheckNegation(prog); err != nil {
			t.Fatalf("seed %d: generated program has recursion through negation: %v\n%s", seed, err, src)
		}
		cp, err := ast.Compile(ast.RewriteNegation(prog), symbols.NewTable())
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		ip := ref.New(cp)
		dom := ip.Dom()
		engines := map[string]*Engine{
			"tabled":    New(cp, dom, Options{}, &Budget{Max: 5_000_000}),
			"untabled":  New(cp, dom, Options{NoTabling: true}, &Budget{Max: 5_000_000}),
			"noplanner": New(cp, dom, Options{NoPlanner: true}, &Budget{Max: 5_000_000}),
		}
		for p := symbols.Pred(0); int(p) < cp.Syms.NumPreds(); p++ {
			arity := cp.Syms.PredArity(p)
			args := make([]symbols.Const, arity)
			var rec func(i int)
			rec = func(i int) {
				if t.Failed() {
					return
				}
				if i == arity {
					want := ip.Holds(ip.Interner().ID(p, args), ip.EmptyState())
					for name, e := range engines {
						got, err := e.Ask(e.Interner().ID(p, args), e.EmptyState())
						if err != nil {
							t.Fatalf("seed %d: engine %s: %v\n%s", seed, name, err, src)
						}
						if got != want {
							t.Errorf("seed %d: engine %s disagrees on %s: got %v want %v\nprogram:\n%s",
								seed, name, e.Interner().Format(e.Interner().ID(p, args)), got, want, src)
						}
					}
					return
				}
				for _, c := range dom {
					args[i] = c
					rec(i + 1)
				}
			}
			rec(0)
		}
	}
}

// TestFuzzHypotheticalStates extends the fuzz to non-empty initial deltas:
// proving under hypothetically extended states must agree too.
func TestFuzzHypotheticalStates(t *testing.T) {
	iters := 60
	if testing.Short() {
		iters = 10
	}
	for seed := 1000; seed < 1000+iters; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		src := workload.RandomStratifiedProgram(rng, workload.DefaultFuzz())
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cp, err := ast.Compile(ast.RewriteNegation(prog), symbols.NewTable())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ip := ref.New(cp)
		dom := ip.Dom()
		e := New(cp, dom, Options{}, &Budget{Max: 5_000_000})

		poolPred, ok := cp.Syms.LookupPred("pool", 1)
		if !ok {
			continue
		}
		// Extend the state with one or two pool atoms.
		stE := e.EmptyState()
		stR := ip.EmptyState()
		for i := 0; i < 1+rng.Intn(2); i++ {
			c := dom[rng.Intn(len(dom))]
			stE = stE.Add(e.Interner().ID(poolPred, []symbols.Const{c}))
			stR = stR.Add(ip.Interner().ID(poolPred, []symbols.Const{c}))
		}
		for p := symbols.Pred(0); int(p) < cp.Syms.NumPreds(); p++ {
			if cp.Syms.PredArity(p) != 1 {
				continue
			}
			for _, c := range dom {
				args := []symbols.Const{c}
				want := ip.Holds(ip.Interner().ID(p, args), stR)
				got, err := e.Ask(e.Interner().ID(p, args), stE)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if got != want {
					t.Errorf("seed %d: state %v: %s: got %v want %v\n%s",
						seed, stE.Delta.IDs(), e.Interner().Format(e.Interner().ID(p, args)), got, want, src)
				}
			}
		}
	}
}
