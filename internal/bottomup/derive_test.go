package bottomup

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hypodatalog/internal/facts"
	"hypodatalog/internal/symbols"
	"hypodatalog/internal/topdown"
	"hypodatalog/internal/workload"
)

// whatifSrc is the what-if closure program: reach over a random digraph
// near its connectivity threshold, and cut, which negates reach from v0.
func whatifSrc(g workload.Digraph) string {
	var b strings.Builder
	b.WriteString("reach(X, Y) :- edge(X, Y).\nreach(X, Y) :- edge(X, Z), reach(Z, Y).\n")
	b.WriteString("cut(X) :- node(X), not reach(v0, X).\nmark(v0).\n")
	for i := 0; i < g.N; i++ {
		fmt.Fprintf(&b, "node(v%d).\n", i)
	}
	for _, e := range g.Edges {
		fmt.Fprintf(&b, "edge(v%d, v%d).\n", e[0], e[1])
	}
	return b.String()
}

// atomOf interns pred(args...) over the program's symbols.
func atomOf(base *facts.DB, pred string, args ...string) facts.AtomID {
	syms := base.Interner().Syms()
	cs := make([]symbols.Const, len(args))
	for i, a := range args {
		cs[i] = syms.Const(a)
	}
	return base.Interner().ID(syms.Pred(pred, len(args)), cs)
}

// TestDerivedChildProbes: on the what-if program, the model of the empty
// state plus one edge is derived from the empty state's — reach
// propagates from the new edge, cut (the level negating reach) recomputes
// — and is the model a from-scratch fixpoint computes. Over every edge
// the graph lacks, the derivations cost at most a fifth of the cold
// fixpoints' join probes, and each counts as one materialisation, derived.
func TestDerivedChildProbes(t *testing.T) {
	g := workload.RandomDigraph(rand.New(rand.NewSource(1)), 32, 0.06)
	p, _, base := build(t, whatifSrc(g), nil)
	root := facts.NewState(base)
	if _, err := p.materialise(root); err != nil {
		t.Fatal(err)
	}
	present := map[[2]int]bool{}
	for _, e := range g.Edges {
		present[e] = true
	}
	var derived, cold int64
	for u := 0; u < g.N; u++ {
		for v := 0; v < g.N; v++ {
			if u == v || present[[2]int{u, v}] {
				continue
			}
			child := root.Add(atomOf(base, "edge", fmt.Sprintf("v%d", u), fmt.Sprintf("v%d", v)))
			before := p.budget.Stats
			m, err := p.materialise(child)
			if err != nil {
				t.Fatal(err)
			}
			work := p.budget.Stats.Sub(before)
			if work.Materialisations != 1 || work.DerivedModels != 1 {
				t.Fatalf("edge v%d→v%d: %d materialisations, %d derived; want 1 and 1", u, v, work.Materialisations, work.DerivedModels)
			}
			derived += work.JoinProbes

			before = p.budget.Stats
			want := &model{atoms: atomSet{}, index: make(facts.Index)}
			if err := p.fixpoint(child, want, 0, nil); err != nil {
				t.Fatal(err)
			}
			cold += p.budget.Stats.JoinProbes - before.JoinProbes
			n := 0
			p.each(m, func(id facts.AtomID) {
				if n++; !want.atoms.has(id) {
					t.Errorf("edge v%d→v%d: derived model holds %s, the cold one does not", u, v, base.Interner().Format(id))
				}
			})
			if n != len(want.atoms) {
				t.Errorf("edge v%d→v%d: derived model has %d atoms, the cold one %d", u, v, n, len(want.atoms))
			}
		}
	}
	t.Logf("join probes over every one-edge child: %d derived, %d cold", derived, cold)
	if 5*derived > cold {
		t.Errorf("derived children cost %d join probes, cold ones %d: want at most a fifth", derived, cold)
	}
}

// TestDerivedChildCharges: an overlay child is charged its entry and the
// atoms it adds, not a copy of its parent's; an alias — a token no rule
// reads — its entry alone; the parent the derivation probed keeps the
// index it was given, charged to it. Children count toward maxCache like
// any entry, and the commit that drops them returns every byte.
func TestDerivedChildCharges(t *testing.T) {
	g := workload.RandomDigraph(rand.New(rand.NewSource(1)), 32, 0.06)
	p, _, base := build(t, whatifSrc(g), nil)
	mem := topdown.NewMemTracker(0)
	p.budget.Mem = mem
	mem.Begin()
	root := facts.NewState(base)
	rm, err := p.materialise(root)
	if err != nil {
		t.Fatal(err)
	}
	charged := matEntryOverhead + matAtomBytes*int64(len(rm.atoms))
	if g := mem.Grown(); g != charged {
		t.Fatalf("empty state's model: %d bytes charged, want %d", g, charged)
	}

	child := root.Add(atomOf(base, "edge", "v0", "v7"))
	cm, err := p.materialise(child)
	if err != nil {
		t.Fatal(err)
	}
	if cm.parent != rm || len(cm.atoms) == 0 || len(cm.atoms) >= len(rm.atoms) {
		t.Fatalf("child: parent %p (want %p), %d atoms of its own beside the parent's %d", cm.parent, rm, len(cm.atoms), len(rm.atoms))
	}
	if rm.idxBytes == 0 {
		t.Fatal("the parent a derivation probed kept no index")
	}
	charged += rm.idxBytes + matEntryOverhead + matAtomBytes*int64(len(cm.atoms))
	if g := mem.Grown(); g != charged {
		t.Errorf("after an overlay child: %d bytes charged, want %d", g, charged)
	}

	alias := root.Add(atomOf(base, "mark", "v1"))
	am, err := p.materialise(alias)
	if err != nil {
		t.Fatal(err)
	}
	if am.parent != rm || len(am.atoms) != 0 {
		t.Fatalf("alias: parent %p (want %p), %d atoms of its own", am.parent, rm, len(am.atoms))
	}
	charged += matEntryOverhead
	if g := mem.Grown(); g != charged {
		t.Errorf("after an alias: %d bytes charged, want %d", g, charged)
	}
	for i := 0; i < g.N; i++ {
		if cut := atomOf(base, "cut", fmt.Sprintf("v%d", i)); p.has(am, cut) != p.has(rm, cut) {
			t.Errorf("alias and parent disagree on %s", base.Interner().Format(cut))
		}
	}

	p.maxCache = len(p.cache)
	if _, err := p.materialise(alias.Add(atomOf(base, "edge", "v1", "v2"))); err != nil {
		t.Fatal(err)
	}
	if g := mem.Grown(); g != charged || len(p.cache) != p.maxCache {
		t.Errorf("past maxCache: %d bytes charged (want %d), %d entries (want %d)", g, charged, len(p.cache), p.maxCache)
	}
	if p.ApplyDelta(nil, nil, p.own); len(p.cache) != 0 {
		t.Fatalf("a commit over every own predicate kept %d models of a hypothetical program", len(p.cache))
	}
	if g := mem.Grown(); g != 0 {
		t.Errorf("%d bytes still charged after dropping every model", g)
	}
}

// TestDerivedLevelAboveGrows: a level above one that grew, whose own
// negation is outside the token's cone, propagates too — seeded with the
// atoms the level below added — and matches a cold fixpoint for every
// one-edge child.
func TestDerivedLevelAboveGrows(t *testing.T) {
	g := workload.RandomDigraph(rand.New(rand.NewSource(2)), 12, 0.12)
	// Without cut, no level negates reach: loud, a level above it, negates
	// only quiet, which no edge reaches.
	src := strings.Replace(whatifSrc(g), "cut(X) :- node(X), not reach(v0, X).\n", "", 1) +
		"quiet(X) :- node(X), mark(X).\nloud(X) :- reach(v0, X), not quiet(X).\n"
	p, _, base := build(t, src, nil)
	if len(p.levels) != 2 {
		t.Fatalf("%d negation levels, want 2", len(p.levels))
	}
	root := facts.NewState(base)
	rm, err := p.materialise(root)
	if err != nil {
		t.Fatal(err)
	}
	grew := 0
	for u := 0; u < g.N; u++ {
		for v := 0; v < g.N; v++ {
			edge := atomOf(base, "edge", fmt.Sprintf("v%d", u), fmt.Sprintf("v%d", v))
			if u == v || base.Has(edge) {
				continue
			}
			child := root.Add(edge)
			m, err := p.materialise(child)
			if err != nil {
				t.Fatal(err)
			}
			if m.parent != rm || m.cut != len(p.levels) {
				t.Fatalf("edge v%d→v%d: parent %p, cut %d; want derived from the empty state's, cut %d (every level propagates)", u, v, m.parent, m.cut, len(p.levels))
			}
			want := &model{atoms: atomSet{}, index: make(facts.Index)}
			if err := p.fixpoint(child, want, 0, nil); err != nil {
				t.Fatal(err)
			}
			n := 0
			p.each(m, func(id facts.AtomID) {
				if n++; !want.atoms.has(id) {
					t.Errorf("edge v%d→v%d: derived model holds %s, the cold one does not", u, v, base.Interner().Format(id))
				}
			})
			if n != len(want.atoms) {
				t.Errorf("edge v%d→v%d: derived model has %d atoms, the cold one %d", u, v, n, len(want.atoms))
			}
			if loud := atomOf(base, "loud", fmt.Sprintf("v%d", v)); p.has(m, loud) && !p.has(rm, loud) {
				grew++
			}
		}
	}
	if grew == 0 {
		t.Error("no one-edge child grew loud: the upper level never propagated anything")
	}
}

// TestOverlayChainFlattens: a chain of one-edge states, each asked after
// its parent, derives every model from the one before, one overlay deeper
// each time, until past maxOverlayDepth a model is flattened into an atom
// set of its own, and the chain goes on deriving from it. Every model is
// the one a from-scratch fixpoint computes, every entry is charged its
// own atoms (a flattened one the atoms it inherited too) plus any index a
// derivation gave it, and the commit that drops them returns every byte.
func TestOverlayChainFlattens(t *testing.T) {
	g := workload.RandomDigraph(rand.New(rand.NewSource(3)), 24, 0.06)
	p, _, base := build(t, whatifSrc(g), nil)
	mem := topdown.NewMemTracker(0)
	p.budget.Mem = mem
	mem.Begin()
	st := facts.NewState(base)
	if _, err := p.materialise(st); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	flattened := 0
	for depth := 1; len(p.cache) < 2*maxOverlayDepth+4; {
		edge := atomOf(base, "edge", fmt.Sprintf("v%d", rng.Intn(g.N)), fmt.Sprintf("v%d", rng.Intn(g.N)))
		if st.Has(edge) {
			continue
		}
		parent := p.cache[st.ID()]
		st = st.Add(edge)
		m, err := p.materialise(st)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case depth > maxOverlayDepth:
			if m.parent != nil || m.depth != 0 {
				t.Fatalf("overlay %d deep: parent %p, depth %d; want flattened", depth, m.parent, m.depth)
			}
			flattened++
			depth = 1
		case m.parent != parent || m.depth != depth:
			t.Fatalf("state %d edges deep: parent %p (want %p), depth %d (want %d)", len(p.cache)-1, m.parent, parent, m.depth, depth)
		default:
			depth++
		}

		want := &model{atoms: atomSet{}, index: make(facts.Index)}
		if err := p.fixpoint(st, want, 0, nil); err != nil {
			t.Fatal(err)
		}
		p.dropIndex(want)
		p.budget.Mem.Add(-matAtomBytes * int64(len(want.atoms)))
		n := 0
		p.each(m, func(id facts.AtomID) {
			if n++; !want.atoms.has(id) {
				t.Errorf("%d edges deep: model holds %s, the cold one does not", len(p.cache)-1, base.Interner().Format(id))
			}
		})
		if n != len(want.atoms) {
			t.Errorf("%d edges deep: model has %d atoms, the cold one %d", len(p.cache)-1, n, len(want.atoms))
		}
		if m.parent == nil && len(m.atoms) != n {
			t.Errorf("flattened model holds %d atoms of its own, reads %d", len(m.atoms), n)
		}

		var charged int64
		for _, c := range p.cache {
			charged += matEntryOverhead + matAtomBytes*int64(len(c.atoms)) + c.idxBytes
		}
		if got := mem.Grown(); got != charged {
			t.Fatalf("%d edges deep: %d bytes charged, the cache holds %d", len(p.cache)-1, got, charged)
		}
	}
	if flattened < 2 {
		t.Errorf("%d models flattened along the chain, want at least 2", flattened)
	}
	if p.ApplyDelta(nil, nil, p.own); len(p.cache) != 0 {
		t.Fatalf("a commit over every own predicate kept %d models of a hypothetical program", len(p.cache))
	}
	if got := mem.Grown(); got != 0 {
		t.Errorf("%d bytes still charged after dropping every model", got)
	}
}
