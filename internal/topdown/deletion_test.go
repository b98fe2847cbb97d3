package topdown

import (
	"errors"
	"math/rand"
	"testing"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/parser"
	"hypodatalog/internal/ref"
	"hypodatalog/internal/symbols"
	"hypodatalog/internal/workload"
)

func TestDeletionBasics(t *testing.T) {
	e, cp := newEngine(t, `
		q(a).
		p(X) :- d(X), not q(X).
		d(a).
		ok(X) :- p(X)[del: q(X)].
	`, Options{})
	// q(a) blocks p(a); deleting it hypothetically unblocks.
	expect(t, e, cp, "p(a)", false)
	expect(t, e, cp, "ok(a)", true)
}

func TestDeletionOfBaseFactInvisible(t *testing.T) {
	e, cp := newEngine(t, "q(a).\nw(X) :- r(X)[del: q(X)].\nr(X) :- q(X).\n", Options{})
	expect(t, e, cp, "r(a)", true)
	expect(t, e, cp, "w(a)", false) // with q(a) deleted, r(a) is unprovable
}

func TestAddThenDeleteComposition(t *testing.T) {
	e, cp := newEngine(t, `
		% a deletes x, then b re-adds it: c sees x.
		a :- b[del: x].
		b :- c[add: x].
		c :- x.
		% a2 adds x, then b2 deletes it: c2 must not see x.
		a2 :- b2[add: x].
		b2 :- c2[del: x].
		c2 :- not x.
	`, Options{})
	expect(t, e, cp, "a", true)
	expect(t, e, cp, "a2", true)
	expect(t, e, cp, "c", false)
}

func TestCombinedAddDelPremise(t *testing.T) {
	e, cp := newEngine(t, `
		u(a).
		s(X) :- tt(X), not u(X).
		r(X) :- s(X)[add: tt(X)][del: u(X)].
	`, Options{})
	expect(t, e, cp, "s(a)", false)
	expect(t, e, cp, "r(a)", true)
}

func TestDeletionCycleTerminates(t *testing.T) {
	// Moving a token around a cycle revisits states; the (goal, state)
	// loop check must terminate and answer reachability correctly.
	g := workload.Digraph{N: 4, Edges: [][2]int{{0, 1}, {1, 2}, {2, 0}}}
	cp := compileSrc(t, workload.TokenGameProgram(g, 0, 2))
	e := New(cp, ref.Domain(cp), Options{}, &Budget{Max: 1_000_000})
	expect(t, e, cp, "goal", true)
	// Node 3 is unreachable.
	g2 := workload.Digraph{N: 4, Edges: [][2]int{{0, 1}, {1, 2}, {2, 0}}}
	cp2 := compileSrc(t, workload.TokenGameProgram(g2, 0, 3))
	e2 := New(cp2, ref.Domain(cp2), Options{}, &Budget{Max: 1_000_000})
	expect(t, e2, cp2, "goal", false)
}

func TestTokenGameMatchesReachability(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(5)
		g := workload.RandomDigraph(rng, n, 0.3)
		target := rng.Intn(n)
		want := workload.Reachable(g, 0, target)
		cp := compileSrc(t, workload.TokenGameProgram(g, 0, target))
		e := New(cp, ref.Domain(cp), Options{}, &Budget{Max: 5_000_000})
		if got := ask(t, e, cp, "goal"); got != want {
			t.Errorf("seed %d: goal=%v reachable=%v (n=%d target=%d)", seed, got, want, n, target)
		}
	}
}

// TestFuzzDeletionsAgainstReference extends the differential fuzz to
// programs with hypothetical deletions.
func TestFuzzDeletionsAgainstReference(t *testing.T) {
	iters := 120
	if testing.Short() {
		iters = 20
	}
	opts := workload.DefaultFuzz()
	opts.DelProb = 0.5
	for seed := 0; seed < iters; seed++ {
		rng := rand.New(rand.NewSource(int64(seed + 9000)))
		src := workload.RandomStratifiedProgram(rng, opts)
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		cp, err := ast.Compile(ast.RewriteNegation(prog), symbols.NewTable())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ip := ref.New(cp)
		dom := ip.Dom()
		engines := map[string]*Engine{
			"tabled":   New(cp, dom, Options{}, &Budget{Max: 5_000_000}),
			"untabled": New(cp, dom, Options{NoTabling: true}, &Budget{Max: 2_000_000}),
		}
		for p := symbols.Pred(0); int(p) < cp.Syms.NumPreds(); p++ {
			if cp.Syms.PredArity(p) != 1 {
				continue
			}
			for _, c := range dom {
				args := []symbols.Const{c}
				want := ip.Holds(ip.Interner().ID(p, args), ip.EmptyState())
				for name, e := range engines {
					got, err := e.Ask(e.Interner().ID(p, args), e.EmptyState())
					if errors.Is(err, ErrBudget) && name == "untabled" {
						// Without tabling, cyclic state transitions from
						// deletions are only cut per path; blowups are
						// expected (this is the EXPTIME fragment).
						continue
					}
					if err != nil {
						t.Fatalf("seed %d: %s: %v\n%s", seed, name, err, src)
					}
					if got != want {
						t.Errorf("seed %d: %s disagrees on %s(%s): got %v want %v\n%s",
							seed, name, cp.Syms.PredName(p), cp.Syms.ConstName(c), got, want, src)
					}
				}
			}
		}
	}
}
