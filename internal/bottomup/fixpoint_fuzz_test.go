package bottomup

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/facts"
	"hypodatalog/internal/parser"
	"hypodatalog/internal/symbols"
)

// reference is PROVE_Δ read off Definition 3 with no join machinery at
// all: per negation level, every rule under every ground substitution,
// until nothing changes. It shares only the prover's level partition,
// grounding and oracle.
type reference struct {
	p      *Prover
	oracle func(facts.AtomID, facts.State) bool
	done   map[string]map[facts.AtomID]bool
}

func forAll(dom []symbols.Const, slots []int, b []symbols.Const, f func()) {
	if len(slots) == 0 {
		f()
		return
	}
	for _, c := range dom {
		b[slots[0]] = c
		forAll(dom, slots[1:], b, f)
	}
}

func (rf *reference) model(st facts.State) map[facts.AtomID]bool {
	if m, ok := rf.done[st.Key()]; ok {
		return m
	}
	p, m := rf.p, map[facts.AtomID]bool{}
	holds := func(g facts.AtomID, s facts.State) bool {
		switch pred := p.in.Pred(g); {
		case s.Has(g):
			return true
		case p.own[pred] && s.Key() == st.Key():
			return m[g]
		case p.own[pred]:
			return rf.model(s)[g]
		default:
			return p.prog.IDB[pred] && rf.oracle(g, s)
		}
	}
	for _, lvl := range p.levels {
		for changed := true; changed; {
			changed = false
			for _, cr := range lvl {
				r, b := cr.r, ast.NewBinding(cr.r.NumVars)
				forAll(p.dom, unboundIn(negate(r.PosVar), r.Head, bodyAtoms(r)), b, func() {
					for i := range r.Body {
						pr := &r.Body[i]
						ext := st
						for _, a := range pr.Adds {
							ext = ext.Add(p.in.Ground(a, b))
						}
						for _, a := range pr.Dels {
							ext = ext.Del(p.in.Ground(a, b))
						}
						ok := false // some instance of the premise atom holds
						forAll(p.dom, unboundIn(r.PosVar, pr.Atom), b, func() { ok = ok || holds(p.in.Ground(pr.Atom, b), ext) })
						if ok == (pr.Kind == ast.Negated) {
							return
						}
					}
					if h := p.in.Ground(r.Head, b); !m[h] && !st.Has(h) {
						m[h], changed = true, true
					}
				})
			}
		}
	}
	rf.done[st.Key()] = m
	return m
}

func negate(bs []bool) []bool {
	out := make([]bool, len(bs))
	for i, b := range bs {
		out[i] = !b
	}
	return out
}

// bodyAtoms flattens a rule body to one pseudo-atom holding every term.
func bodyAtoms(r *ast.CRule) ast.CAtom {
	var all ast.CAtom
	for _, pr := range r.Body {
		for _, a := range append(append([]ast.CAtom{pr.Atom}, pr.Adds...), pr.Dels...) {
			all.Args = append(all.Args, a.Args...)
		}
	}
	return all
}

// Predicates of the generated parts: e, f extensional; o defined below
// (oracle-answered); a, b | c, d | g own, on three negation levels.
var (
	fuzzArity  = map[string]int{"e": 1, "f": 2, "o": 1, "a": 1, "b": 2, "c": 1, "d": 2, "g": 1}
	fuzzLevels = [][]string{{"a", "b"}, {"c", "d"}, {"g"}}
	fuzzConsts = []string{"k1", "k2", "k3"}
)

type partGen struct{ rng *rand.Rand }

func (g partGen) pick(xs ...string) string { return xs[g.rng.Intn(len(xs))] }

func (g partGen) atom(pred string, ground bool) string {
	args := make([]string, fuzzArity[pred])
	for i := range args {
		if ground || g.rng.Intn(6) == 0 {
			args[i] = g.pick(fuzzConsts...)
		} else {
			args[i] = g.pick("X", "Y", "Z")
		}
	}
	return pred + "(" + strings.Join(args, ", ") + ")"
}

// ownUpTo picks an own predicate of level <= l.
func (g partGen) ownUpTo(l int) string {
	return g.pick(fuzzLevels[g.rng.Intn(l+1)]...)
}

func (g partGen) premise(l int) string {
	switch k := g.rng.Intn(11); {
	case k < 3:
		return g.atom(g.pick("e", "f"), false)
	case k < 6:
		return g.atom(g.ownUpTo(l), false)
	case k == 6:
		return g.atom("o", false)
	case k == 7 && l > 0:
		return "not " + g.atom(g.ownUpTo(l-1), false)
	case k == 7:
		return "not " + g.atom(g.pick("e", "f", "o"), false)
	case k == 8:
		return g.atom("o", false) + "[add: " + g.atom(g.pick("e", "f", "a"), false) + "]"
	case k == 9:
		return g.atom("o", false) + "[add: " + g.atom("e", false) + "][del: " + g.atom(g.pick("e", "f"), false) + "]"
	default:
		// An own target: a no-op addition reads the growing model, a real
		// one materialises the extended state. Additions stay in e/1 so the
		// nesting is bounded by the domain.
		return g.atom(g.ownUpTo(l), false) + "[add: " + g.atom("e", false) + "]"
	}
}

func (g partGen) program() string {
	var b strings.Builder
	for _, k := range fuzzConsts {
		fmt.Fprintf(&b, "k(%s).\n", k)
	}
	for n := 3 + g.rng.Intn(6); n > 0; n-- {
		fmt.Fprintf(&b, "%s.\n", g.atom(g.pick("e", "e", "f", "f", "f", "a"), true))
	}
	for l, heads := range fuzzLevels {
		for n := 2 + g.rng.Intn(3); n > 0; n-- {
			// The last rule of a level defines its first predicate and, above
			// the bottom, negates the first predicate of the level below: the
			// levels are real whatever else is drawn.
			head, body := g.pick(heads...), []string(nil)
			if n == 1 {
				head = heads[0]
				if l > 0 {
					body = append(body, "not "+g.atom(fuzzLevels[l-1][0], false))
				}
			}
			for m := 1 + g.rng.Intn(3); m > 0; m-- {
				body = append(body, g.premise(l))
			}
			fmt.Fprintf(&b, "%s :- %s.\n", g.atom(head, false), strings.Join(body, ", "))
		}
	}
	return b.String()
}

// coverage counts, over the states one program is asked under, the ways
// their models were built.
type coverage struct {
	derived   int // derived from an ancestor's model
	recompute int // derived, and a level negating a grown predicate recomputed
	alias     int // derived over tokens no rule of the part reads
	deletion  int // built from nothing: a token deletes
	oracle    int // built from nothing: an oracle-answered premise in a token's cone
	skipped   int // derived past an ancestor with no cached model
}

func (c *coverage) add(o coverage) {
	c.derived += o.derived
	c.recompute += o.recompute
	c.alias += o.alias
	c.deletion += o.deletion
	c.oracle += o.oracle
	c.skipped += o.skipped
}

// classify records how st's model is about to be built, reading the walk
// materialise will take; the empty state's model must already be cached.
func (cov *coverage) classify(p *Prover, st facts.State) {
	if _, ok := p.cache[st.ID()]; ok || st.ID() == facts.EmptyStateID {
		return
	}
	anc, grown, from, err := p.ancestor(st)
	if err != nil {
		return
	}
	if anc != nil {
		cov.derived++
		if len(grown) > 1 {
			cov.skipped++
		}
		if from > 0 && from < len(p.levels) {
			cov.recompute++
		}
		if p.unread(grown) {
			cov.alias++
		}
		return
	}
	for id := st.ID(); id != facts.EmptyStateID; {
		parent, atom, added := facts.StateParent(p.base, id)
		if !added {
			cov.deletion++
			return
		}
		if q := p.in.Pred(atom); p.effect(q).cold && !p.own[q] {
			cov.oracle++
			return
		}
		id = parent
	}
}

// unread reports whether no premise of the part depends on the predicate
// of any of the atoms: the predicate is not reachable from the premise's
// through the program's rules, and no intensional predicate without a
// rule (answered elsewhere, so depending on everything) is.
func (p *Prover) unread(atoms []facts.AtomID) bool {
	for _, cr := range p.rules {
		for _, pr := range cr.r.Body {
			seen, all := map[symbols.Pred]bool{pr.Atom.Pred: true}, false
			for stack := []symbols.Pred{pr.Atom.Pred}; len(stack) > 0; {
				q := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				all = all || p.prog.IDB[q] && len(p.prog.ByHead[q]) == 0
				for _, ri := range p.prog.ByHead[q] {
					for _, b := range p.prog.Rules[ri].Body {
						if !seen[b.Atom.Pred] {
							seen[b.Atom.Pred] = true
							stack = append(stack, b.Atom.Pred)
						}
					}
				}
			}
			for _, id := range atoms {
				if all || seen[p.in.Pred(id)] {
					return false
				}
			}
		}
	}
	return true
}

// checkFixpointAgreement generates the part for seed and asks it under
// its states. With eOnly, o has the rule o(X) :- e(X) outside the part
// and the oracle answers by the goal and the e atoms the state holds —
// what that rule says o depends on — so tokens outside e can be derived
// over. Without, o has no rule and the oracle answers by the goal and the
// whole state, so every token in o's cone is materialised from nothing
// and the oracle is asked at exactly the states the core opens.
func checkFixpointAgreement(t *testing.T, seed int64, eOnly bool) coverage {
	g := partGen{rand.New(rand.NewSource(seed))}
	src := g.program()
	if eOnly {
		src += "o(X) :- e(X).\n"
	}
	defer func() {
		if t.Failed() {
			t.Logf("seed %d (eOnly %v) program:\n%s", seed, eOnly, src)
		}
	}()
	var in *facts.Interner
	var es []facts.AtomID
	oracle := func(goal facts.AtomID, st facts.State) bool {
		h := fnv.New32a()
		if !eOnly {
			fmt.Fprintf(h, "%d|%s|%s", seed, in.Format(goal), st.Key())
			return h.Sum32()%3 == 0
		}
		fmt.Fprintf(h, "%d|%s|", seed, in.Format(goal))
		for _, e := range es {
			fmt.Fprint(h, st.Has(e))
		}
		return h.Sum32()%3 == 0
	}
	p, cp, base := build(t, src, func(goal facts.AtomID, st facts.State) (bool, error) {
		return oracle(goal, st), nil
	}, "o")
	in = base.Interner()
	for _, k := range fuzzConsts {
		es = append(es, in.ID(cp.Syms.Pred("e", 1), []symbols.Const{cp.Syms.Const(k)}))
	}
	if len(p.levels) < 2 {
		t.Fatalf("generated part has %d negation levels, want >= 2", len(p.levels))
	}
	rf := &reference{p: p, oracle: oracle, done: map[string]map[facts.AtomID]bool{}}

	ground := func(pred string) facts.AtomID {
		a, err := parser.ParseAtom(g.atom(pred, true))
		if err != nil {
			t.Fatal(err)
		}
		args := make([]symbols.Const, len(a.Args))
		for i, tm := range a.Args {
			args[i] = cp.Syms.Const(tm.Name)
		}
		return in.ID(cp.Syms.Pred(a.Pred, len(args)), args)
	}
	root := facts.NewState(base)
	states := []facts.State{root}
	for i := 0; i < 2; i++ {
		st := root
		for n := 1 + g.rng.Intn(3); n > 0; n-- {
			st = st.Add(ground(g.pick("e", "f", "a", "c")))
		}
		for n := g.rng.Intn(3); n > 0; n-- {
			st = st.Del(ground(g.pick("e", "f")))
		}
		states = append(states, st)
	}
	// An add-chain of one to three tokens. Its last state is always asked,
	// each earlier one only sometimes, so a model is derived past a cached
	// parent and past an uncached one.
	st := root
	for n := 1 + g.rng.Intn(3); n > 0; n-- {
		if st = st.Add(ground(g.pick("e", "f", "f", "f"))); n == 1 || g.rng.Intn(2) == 0 {
			states = append(states, st)
		}
	}
	var cov coverage
	for _, st := range states {
		cov.classify(p, st)
		if _, err := p.materialise(st); err != nil {
			t.Fatalf("materialise: %v", err)
		}
	}
	// A cached model's state, rebuilt from its id through the parent links.
	var stateOf func(facts.StateID) facts.State
	stateOf = func(id facts.StateID) facts.State {
		if id == facts.EmptyStateID {
			return facts.NewState(base)
		}
		parent, atom, added := facts.StateParent(base, id)
		if added {
			return stateOf(parent).Add(atom)
		}
		return stateOf(parent).Del(atom)
	}
	// Every model the core cached — the asked states and the extended
	// states its hypothetical premises opened, derived or not — must be
	// the one a from-scratch fixpoint computes, and the reference's.
	for sid, m := range p.cache {
		st := stateOf(sid)
		if st.ID() != sid {
			t.Fatalf("state %d rebuilds as %d", sid, st.ID())
		}
		got := atomSet{}
		p.each(m, func(id facts.AtomID) { got[id] = struct{}{} })
		cold := &model{atoms: atomSet{}, index: make(facts.Index)}
		if err := p.fixpoint(st, cold, 0, nil); err != nil {
			t.Fatalf("cold fixpoint: %v", err)
		}
		want := rf.model(st)
		for id := range got {
			if !want[id] {
				t.Errorf("state %q: core derives %s, reference does not", st.Key(), in.Format(id))
			}
			if !cold.atoms.has(id) {
				t.Errorf("state %q: core derives %s, a cold fixpoint does not", st.Key(), in.Format(id))
			}
		}
		for id := range want {
			if !got.has(id) {
				t.Errorf("state %q: reference derives %s, core does not", st.Key(), in.Format(id))
			}
		}
		if len(cold.atoms) != len(got) {
			t.Errorf("state %q: core has %d atoms, a cold fixpoint %d", st.Key(), len(got), len(cold.atoms))
		}
	}
	return cov
}

// fuzzSeeds is the seed corpus FuzzFixpointAgreement starts from and
// go test runs.
const fuzzSeeds = 200

// FuzzFixpointAgreement holds the semi-naive, indexed core to the naive
// reference on random Δ parts: two or three negation levels; extensional,
// own and oracle-answered premises; head variables the body never binds;
// hypothetical premises that add and delete, on oracle and on own
// targets; states with hypothetical additions and deletions, and add-chains
// whose models are derived from an ancestor's. Each part runs twice: once
// with an oracle that reads the whole state, once with one that reads
// only the e atoms, so that derivation runs over oracle-reading parts.
func FuzzFixpointAgreement(f *testing.F) {
	for seed := int64(0); seed < fuzzSeeds; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkFixpointAgreement(t, seed, false)
		checkFixpointAgreement(t, seed, true)
	})
}

// TestFixpointAgreementCoverage: the seed corpus reaches every way a
// model is built — derived with a recomputed level, derived as an alias,
// derived past an uncached ancestor, and from nothing because a token
// deletes or reaches an oracle-answered premise.
func TestFixpointAgreementCoverage(t *testing.T) {
	var cov coverage
	for seed := int64(0); seed < fuzzSeeds; seed++ {
		cov.add(checkFixpointAgreement(t, seed, true))
	}
	t.Logf("%+v", cov)
	if cov.recompute == 0 || cov.alias == 0 || cov.deletion == 0 || cov.oracle == 0 || cov.skipped == 0 {
		t.Errorf("the seed corpus misses a way of building a model: %+v", cov)
	}
}
