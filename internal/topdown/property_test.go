package topdown

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/parser"
	"hypodatalog/internal/ref"
	"hypodatalog/internal/symbols"
	"hypodatalog/internal/workload"
)

// negFreeFuzz builds fuzz options whose generated programs we then strip
// of negations, leaving a monotone (hypothetical Horn) program.
func stripNegation(p *ast.Program) {
	for ri := range p.Rules {
		var body []ast.Premise
		for _, pr := range p.Rules[ri].Body {
			if pr.Kind == ast.Negated || pr.Kind == ast.NegHyp {
				continue
			}
			body = append(body, pr)
		}
		p.Rules[ri].Body = body
	}
}

// TestMonotonicityProperty: for negation-free programs, hypothetically
// adding facts never removes derivable atoms (section 3.1 notes the base
// system is monotonic — negation is what breaks it).
func TestMonotonicityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := workload.RandomStratifiedProgram(rng, workload.DefaultFuzz())
		prog, err := parser.Parse(src)
		if err != nil {
			return false
		}
		stripNegation(prog)
		cp, err := ast.Compile(ast.RewriteNegation(prog), symbols.NewTable())
		if err != nil {
			return false
		}
		dom := ref.Domain(cp)
		if len(dom) == 0 {
			return true
		}
		e := New(cp, dom, Options{}, &Budget{Max: 2_000_000})

		// Pick a random unary atom to add hypothetically.
		poolPred, ok := cp.Syms.LookupPred("pool", 1)
		if !ok {
			return true
		}
		added := e.Interner().ID(poolPred, []symbols.Const{dom[rng.Intn(len(dom))]})
		st := e.EmptyState()
		ext := st.Add(added)

		// Every unary atom derivable in st stays derivable in ext.
		for p := symbols.Pred(0); int(p) < cp.Syms.NumPreds(); p++ {
			if cp.Syms.PredArity(p) != 1 {
				continue
			}
			for _, c := range dom {
				id := e.Interner().ID(p, []symbols.Const{c})
				before, err := e.Ask(id, st)
				if err != nil {
					return true // budget blowup: skip, soundness untested here
				}
				if !before {
					continue
				}
				after, err := e.Ask(id, ext)
				if err != nil {
					return true
				}
				if !after {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestDeterminismProperty: asking the same goal twice (cold and warm
// table) gives the same answer, and so does a fresh engine.
func TestDeterminismProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := workload.RandomStratifiedProgram(rng, workload.DefaultFuzz())
		prog, err := parser.Parse(src)
		if err != nil {
			return false
		}
		cp, err := ast.Compile(ast.RewriteNegation(prog), symbols.NewTable())
		if err != nil {
			return false
		}
		dom := ref.Domain(cp)
		e1 := New(cp, dom, Options{}, &Budget{Max: 2_000_000})
		e2 := New(cp, dom, Options{}, &Budget{Max: 2_000_000})
		for p := symbols.Pred(0); int(p) < cp.Syms.NumPreds(); p++ {
			if cp.Syms.PredArity(p) != 1 {
				continue
			}
			for _, c := range dom {
				id1 := e1.Interner().ID(p, []symbols.Const{c})
				a, err1 := e1.Ask(id1, e1.EmptyState())
				b, err2 := e1.Ask(id1, e1.EmptyState()) // warm
				id2 := e2.Interner().ID(p, []symbols.Const{c})
				cAns, err3 := e2.Ask(id2, e2.EmptyState())
				if err1 != nil || err2 != nil || err3 != nil {
					return true
				}
				if a != b || a != cAns {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestStateOrderIrrelevance: the answer under a delta does not depend on
// the order the delta was built in.
func TestStateOrderIrrelevance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := workload.RandomStratifiedProgram(rng, workload.DefaultFuzz())
		prog, err := parser.Parse(src)
		if err != nil {
			return false
		}
		cp, err := ast.Compile(ast.RewriteNegation(prog), symbols.NewTable())
		if err != nil {
			return false
		}
		dom := ref.Domain(cp)
		if len(dom) < 2 {
			return true
		}
		e := New(cp, dom, Options{}, &Budget{Max: 2_000_000})
		poolPred, ok := cp.Syms.LookupPred("pool", 1)
		if !ok {
			return true
		}
		a := e.Interner().ID(poolPred, []symbols.Const{dom[0]})
		b := e.Interner().ID(poolPred, []symbols.Const{dom[1]})
		st1 := e.EmptyState().Add(a).Add(b)
		st2 := e.EmptyState().Add(b).Add(a)
		if st1.Key() != st2.Key() {
			return false
		}
		for p := symbols.Pred(0); int(p) < cp.Syms.NumPreds(); p++ {
			if cp.Syms.PredArity(p) != 1 {
				continue
			}
			id := e.Interner().ID(p, []symbols.Const{dom[0]})
			r1, err1 := e.Ask(id, st1)
			r2, err2 := e.Ask(id, st2)
			if err1 != nil || err2 != nil {
				return true
			}
			if r1 != r2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
