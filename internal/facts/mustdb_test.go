package facts

import (
	"fmt"
	"testing"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/symbols"
	"hypodatalog/internal/workload"
)

// TestDataDeterminedPredicates pins the keying stage's classification on
// the served rulebase's shape: the extensional predicates no rule adds are
// rule-invariant, the ones a rule adds are addable, and the goals whose
// rules bind an added atom from a rule-invariant premise are
// data-determined — Example 5's order loop and the Hamiltonian searches,
// not the chain or parity. A rule that adds next makes it a predicate the
// proofs can change, and the order loop is then not data-determined.
func TestDataDeterminedPredicates(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		src                    string
		invariant, addable, dd []string
		notInvariant, notDD    []string
	}{
		{"hypo_search", hypoSearchShape(4, 8),
			[]string{"first", "next", "last", "item", "node", "edge", "start"},
			[]string{"cb1", "marker", "copied", "pnode"},
			[]string{"oa", "oap", "yes", "path", "cyes", "cpath"},
			[]string{"marker", "cb1"},
			[]string{"ca1", "cd1", "od1", "even", "odd", "selectx", "selecty", "no", "cno"}},
		{"next-added", workload.OrderLoopProgram(4) + "z :- w[add: next(e1, e3)].\nw :- first(e1).\n",
			[]string{"first", "last"}, []string{"marker", "next"}, []string{"a"},
			[]string{"next"}, []string{"ap", "d", "z"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cp := compileRewritten(t, tc.src)
			r := NewRelevance(cp)
			keys := func(name string) predKeys {
				for _, arity := range []int{0, 1, 2} {
					if p, ok := cp.Syms.LookupPred(name, arity); ok {
						return r.keysOf(p)
					}
				}
				t.Fatalf("no predicate %s", name)
				return predKeys{}
			}
			for _, p := range tc.invariant {
				if !keys(p).invariant {
					t.Errorf("%s is not rule-invariant", p)
				}
			}
			for _, p := range tc.notInvariant {
				if keys(p).invariant {
					t.Errorf("%s is rule-invariant", p)
				}
			}
			for _, p := range tc.addable {
				if !keys(p).addable {
					t.Errorf("%s is not addable", p)
				}
			}
			for _, p := range tc.dd {
				if keys(p).reads == 0 {
					t.Errorf("%s is not data-determined", p)
				}
			}
			for _, p := range tc.notDD {
				if keys(p).reads != 0 {
					t.Errorf("%s is data-determined", p)
				}
			}
		})
	}
}

// orderBase loads src over its keying stage and returns the base and an
// atom builder over it.
func orderBase(t *testing.T, src string) (*DB, func(pred string, args ...string) AtomID) {
	t.Helper()
	cp := compileRewritten(t, src)
	db, err := Load(cp, NewRelevance(cp))
	if err != nil {
		t.Fatal(err)
	}
	in := db.Interner()
	return db, func(pred string, args ...string) AtomID {
		cs := make([]symbols.Const, len(args))
		for i, a := range args {
			cs[i] = cp.Syms.Const(a)
		}
		return in.ID(cp.Syms.Pred(pred, len(args)), cs)
	}
}

// TestNormalisedByDataOrderLoop: on Example 5, ap(e_j)'s data-determined
// set is marker(e_{j+1})..marker(e_n), so every state of outer markers is
// proved less those; a's is every marker. A state that adds or deletes an
// atom of next or last is left as it is, and so is one that adds no
// marker, without allocating.
func TestNormalisedByDataOrderLoop(t *testing.T) {
	const n = 6
	db, atom := orderBase(t, workload.OrderLoopProgram(n))
	marker := func(i int) AtomID { return atom("marker", fmt.Sprintf("e%d", i)) }
	build := func(mask int, keep func(i int) bool) State {
		s := NewState(db)
		for i := 1; i <= n; i++ {
			if mask>>(i-1)&1 != 0 && keep(i) {
				s = s.Add(marker(i))
			}
		}
		return s
	}
	var m MustDB
	for mask := 1; mask < 1<<n; mask++ {
		s := build(mask, func(int) bool { return true })
		for j := 1; j <= n; j++ {
			goal := atom("ap", fmt.Sprintf("e%d", j))
			want := build(mask, func(i int) bool { return i <= j })
			if got := s.Normalised(goal, &m); got.ID() != want.ID() {
				t.Fatalf("mask %b: ap(e%d)'s state is %q, want %q", mask, j, got.Key(), want.Key())
			}
			for _, touch := range []State{s.Add(atom("next", "e1", "e5")), s.Del(atom("last", fmt.Sprintf("e%d", n)))} {
				if got := touch.Normalised(goal, &m); got.ID() != touch.ID() {
					t.Fatalf("mask %b: ap(e%d) under a state that touches the order is normalised to %q", mask, j, got.Key())
				}
			}
		}
		if got := s.Normalised(atom("a"), &m); got.ID() != EmptyStateID {
			t.Fatalf("mask %b: a's state is %q, want the empty state", mask, got.Key())
		}
	}
	s := NewState(db).Add(atom("next", "e1", "e5"))
	goal := atom("ap", "e1")
	if a := testing.AllocsPerRun(10, func() { s.Normalised(goal, &m) }); a != 0 {
		t.Errorf("a state that mentions next allocates %v times", a)
	}
	s = NewState(db).Add(atom("first", "e3"))
	if a := testing.AllocsPerRun(10, func() { s.Normalised(goal, &m) }); a != 0 {
		t.Errorf("a state with nothing to drop allocates %v times", a)
	}
}

// TestNormalisedByDataCycle: the sets are a greatest fixpoint over the
// ground goals, so a cycle in the relation is a component iterated from
// ⊤. ap(e2) reaches e1 and e3, and only the path through e3 is certain
// to add something (marker(e3)); ap(e1) adds marker(e2) and then what
// ap(e2) must. ap(e4) loops on itself with no way out: no state proves it,
// so its set is every addable atom.
func TestNormalisedByDataCycle(t *testing.T) {
	db, atom := orderBase(t, `next(e1, e2). next(e2, e1). next(e2, e3). next(e4, e4).
last(e3). tag(e1).
ap(X) :- next(X, Y), ap(Y)[add: marker(Y)].
ap(X) :- last(X), d.
d :- marker(e1), marker(e2), marker(e3).
`)
	var m MustDB
	all := NewState(db)
	for i := 1; i <= 4; i++ {
		all = all.Add(atom("marker", fmt.Sprintf("e%d", i)))
	}
	keep := func(is ...int) StateID {
		s := NewState(db)
		for _, i := range is {
			s = s.Add(atom("marker", fmt.Sprintf("e%d", i)))
		}
		return s.ID()
	}
	for _, tc := range []struct {
		goal string
		want StateID
	}{
		{"e1", keep(1, 4)},
		{"e2", keep(1, 2, 4)},
		{"e3", all.ID()},
		{"e4", EmptyStateID},
	} {
		if got := all.Normalised(atom("ap", tc.goal), &m); got.ID() != tc.want {
			t.Errorf("ap(%s)'s state is %q", tc.goal, got.Key())
		}
	}
}

// TestMustDBPrune: a commit's cone drops the sets of its goals, with
// their bytes, and the next normalisation recomputes them at the new
// facts; a cone that misses the order keeps them.
func TestMustDBPrune(t *testing.T) {
	db, atom := orderBase(t, workload.OrderLoopProgram(6))
	in := db.Interner()
	var m MustDB
	st := NewState(db)
	for i := 1; i <= 6; i++ {
		st = st.Add(atom("marker", fmt.Sprintf("e%d", i)))
	}
	goal := atom("ap", "e1")
	st.Normalised(goal, &m)
	bytes := m.MemBytes()
	if bytes == 0 || len(m.sets) != 6 {
		t.Fatalf("%d sets, %d bytes after one ask", len(m.sets), bytes)
	}
	unrelated := map[symbols.Pred]bool{in.Pred(atom("marker", "e1")): true, in.Pred(atom("first", "e1")): true}
	if freed := m.Prune(in, unrelated); freed != 0 || m.MemBytes() != bytes {
		t.Fatalf("a cone without ap freed %d bytes", freed)
	}
	next := ast.CAtom{Pred: in.Pred(atom("next", "e3", "e4"))}
	cone := in.Relevance().Affected([]ast.CAtom{next})
	if freed := m.Prune(in, cone); freed != bytes || m.MemBytes() != 0 || len(m.sets) != 0 {
		t.Fatalf("the next cone freed %d of %d bytes, %d sets left", freed, bytes, len(m.sets))
	}
	db.Remove(atom("next", "e3", "e4"))
	if _, err := db.Insert(atom("next", "e3", "e5")); err != nil {
		t.Fatal(err)
	}
	want := NewState(db).Add(atom("marker", "e1")).Add(atom("marker", "e4"))
	if got := st.Normalised(goal, &m); got.ID() != want.ID() {
		t.Errorf("after the commit ap(e1)'s state is %q, want %q", got.Key(), want.Key())
	}
	if len(m.sets) != 5 {
		t.Errorf("%d sets after the commit, want 5 (e1, e2, e3, e5, e6)", len(m.sets))
	}
}

// TestMustDBGoalCap: one computation visits at most maxDBGoals goals, and
// a goal past the cap keeps its static set (here ∅), so on a 600-element
// order ap(e1)'s set stops at marker(e513): marker(e300) is dropped,
// marker(e600) is kept.
func TestMustDBGoalCap(t *testing.T) {
	db, atom := orderBase(t, workload.OrderLoopProgram(600))
	var m MustDB
	st := NewState(db).Add(atom("marker", "e1")).Add(atom("marker", "e300")).Add(atom("marker", "e600"))
	want := NewState(db).Add(atom("marker", "e1")).Add(atom("marker", "e600"))
	if got := st.Normalised(atom("ap", "e1"), &m); got.ID() != want.ID() {
		t.Errorf("ap(e1)'s state is %q, want %q", got.Key(), want.Key())
	}
	if len(m.sets) != maxDBGoals {
		t.Errorf("%d sets after one computation, want %d", len(m.sets), maxDBGoals)
	}
}
