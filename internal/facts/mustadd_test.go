package facts

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/parser"
	"hypodatalog/internal/symbols"
	"hypodatalog/internal/workload"
)

// compileRewritten compiles src as the engines run it: after the negation
// rewrite.
func compileRewritten(t *testing.T, src string) *ast.CProgram {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ast.Compile(ast.RewriteNegation(p), symbols.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// mustOf renders M(name/arity) as a sorted list of atoms.
func mustOf(t *testing.T, cp *ast.CProgram, r *Relevance, name string, arity int) []string {
	t.Helper()
	p, ok := cp.Syms.LookupPred(name, arity)
	if !ok {
		t.Fatalf("no predicate %s/%d", name, arity)
	}
	in := NewInterner(cp.Syms)
	var out []string
	for _, a := range r.MustAdd(p) {
		out = append(out, in.Format(in.Ground(a, nil)))
	}
	slices.Sort(out)
	return out
}

func names(prefix string, from, to int) []string {
	var out []string
	for i := from; i <= to; i++ {
		out = append(out, fmt.Sprintf("%s%d", prefix, i))
	}
	slices.Sort(out)
	return out
}

// hypoSearchShape is the served hypo_search rulebase's rule shape:
// Examples 4–8 side by side, the chain renamed ca/cb/cd and the order
// loop oa/oap/od.
func hypoSearchShape(chain, order int) string {
	var b strings.Builder
	for i := 1; i <= chain; i++ {
		fmt.Fprintf(&b, "ca%d :- ca%d[add: cb%d].\n", i, i+1, i)
	}
	fmt.Fprintf(&b, "ca%d :- cd1.\n", chain+1)
	for i := 1; i < chain; i++ {
		fmt.Fprintf(&b, "cd%d :- cb%d, cd%d.\n", i, i, i+1)
	}
	fmt.Fprintf(&b, "cd%d :- cb%d.\n", chain, chain)
	b.WriteString("oa :- first(X), oap(X)[add: marker(X)].\n")
	b.WriteString("oap(X) :- next(X, Y), oap(Y)[add: marker(Y)].\n")
	b.WriteString("oap(X) :- last(X), od1.\n")
	for i := 1; i < order; i++ {
		fmt.Fprintf(&b, "od%d :- marker(e%d), od%d.\n", i, i, i+1)
	}
	fmt.Fprintf(&b, "od%d :- marker(e%d).\n", order, order)
	b.WriteString(workload.ParityProgram(4))
	b.WriteString(workload.HamiltonianProgram(workload.Clique(3)))
	b.WriteString("cyes :- start(X), cpath(X)[add: pnode(X)].\n")
	b.WriteString("cpath(X) :- selecty(Y), edge(X, Y), cpath(Y)[add: pnode(Y)].\n")
	b.WriteString("cpath(X) :- not selecty(Y), edge(X, S), start(S).\n")
	b.WriteString("cno :- not cyes.\nstart(v0).\n")
	return b.String()
}

// TestMustAddSets pins M(p) on the shapes the keying stage must get
// right: Example 4 alone, where no relevance class exists and the sets
// must not be lost with it; the tagged chain, whose tag no rule adds; the
// served rulebase, where only the chain has sets; and the two shapes that
// force ∅ or keep atoms out of U — a [del:] in the cone and an add of an
// intensional atom.
func TestMustAddSets(t *testing.T) {
	type want struct {
		pred  string
		arity int
		set   []string
	}
	for _, tc := range []struct {
		name  string
		src   string
		wants []want
	}{
		{"chain", workload.ChainProgram(4), []want{
			{"a1", 0, names("b", 1, 4)},
			{"a3", 0, names("b", 3, 4)},
			{"a4", 0, []string{"b4"}},
			{"a5", 0, nil},
			{"d", 0, nil},
			{"d2", 0, nil},
		}},
		{"tagged-chain", workload.TaggedChainProgram(4, 3), []want{
			{"a1", 0, names("b", 1, 4)},
			{"a5", 0, nil},
			{"seen", 0, nil},
		}},
		{"hypo_search", hypoSearchShape(256, 8), []want{
			{"ca1", 0, names("cb", 1, 256)},
			{"ca200", 0, names("cb", 200, 256)},
			{"ca257", 0, nil},
			{"oa", 0, nil},
			{"oap", 1, nil},
			{"even", 0, nil},
			{"odd", 0, nil},
			{"path", 1, nil},
			{"yes", 0, nil},
			{"cpath", 1, nil},
			{"cno", 0, nil},
		}},
		{"del", `p :- q[add: b1].
q :- r[del: b2].
r :- s[add: b3].
s :- e.
x :- y[add: b1].
y :- r.
t :- e, r.
`, []want{
			{"p", 0, nil},
			{"q", 0, nil},
			{"r", 0, []string{"b3"}},
			{"x", 0, []string{"b1", "b3"}},
			{"t", 0, nil},
		}},
		{"intensional-add", `p :- q[add: i, b1].
q :- r[add: b2].
r :- i.
i :- e.
u :- v[add: b5].
v :- w[add: b5].
w :- f.
k(X) :- m[add: g(X)].
m :- n[add: g(c1)].
n :- f.
`, []want{
			{"p", 0, []string{"b1", "b2"}},
			{"q", 0, []string{"b2"}},
			{"r", 0, nil},
			{"i", 0, nil},
			{"u", 0, []string{"b5"}},
			{"v", 0, []string{"b5"}},
			{"k", 1, []string{"g(c1)"}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cp := compileRewritten(t, tc.src)
			r := NewRelevance(cp)
			if r == nil {
				t.Fatal("no keying stage")
			}
			for _, w := range tc.wants {
				if got := mustOf(t, cp, r, w.pred, w.arity); !slices.Equal(got, w.set) {
					t.Errorf("M(%s) = %v, want %v", w.pred, got, w.set)
				}
			}
			for _, u := range r.u {
				if cp.IDB[u.Pred] {
					in := NewInterner(cp.Syms)
					t.Errorf("U holds the intensional atom %s", in.Format(in.Ground(u, nil)))
				}
			}
		})
	}
}

// TestStateNormalised holds State.Normalised to its contract on Example
// 4 over every state of four added atoms, with and without a deletion of
// a base atom of U: the normalised state is the state's sets less the
// goal's must-add set, interned from scratch; normalising it again
// changes nothing; and a state with nothing to drop is returned as it is,
// without allocating.
func TestStateNormalised(t *testing.T) {
	cp := compileRewritten(t, workload.ChainProgram(4)+"b1.\n")
	db, err := Load(cp, NewRelevance(cp))
	if err != nil {
		t.Fatal(err)
	}
	in := db.Interner()
	atom := func(name string) AtomID { return in.ID(cp.Syms.Pred(name, 0), nil) }
	b := []AtomID{atom("b1"), atom("b2"), atom("b3"), atom("b4")}
	pool := []AtomID{b[1], b[2], b[3], atom("note")}
	for mask := 0; mask < 1<<len(pool); mask++ {
		for _, del := range []bool{false, true} {
			build := func(keep func(AtomID) bool) State {
				s := NewState(db)
				for i, id := range pool {
					if mask>>i&1 != 0 && keep(id) {
						s = s.Add(id)
					}
				}
				if del {
					s = s.Del(b[0])
				}
				return s
			}
			s := build(func(AtomID) bool { return true })
			for i := 1; i <= 5; i++ {
				goal := atom(fmt.Sprintf("a%d", i))
				dropped := func(id AtomID) bool { return slices.Contains(b[i-1:], id) }
				want := build(func(id AtomID) bool { return !dropped(id) })
				var m MustDB
				n := s.Normalised(goal, &m)
				if n.ID() != want.ID() {
					t.Fatalf("mask %b del %v: a%d's state is %q, want %q", mask, del, i, n.Key(), want.Key())
				}
				if again := n.Normalised(goal, &m); again.ID() != n.ID() {
					t.Fatalf("mask %b del %v: normalising a%d's state again gives %q", mask, del, i, again.Key())
				}
				if n.ID() == s.ID() {
					if a := testing.AllocsPerRun(10, func() { s.Normalised(goal, &m) }); a != 0 {
						t.Fatalf("mask %b del %v: a%d's state drops nothing but allocates %v times", mask, del, i, a)
					}
				}
			}
		}
	}
}
