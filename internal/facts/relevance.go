package facts

import (
	"math/bits"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/depgraph"
	"hypodatalog/internal/symbols"
)

// Relevance is a program's dependency analysis and the keying stage
// derived from it, all functions of the rules alone.
//
// A predicate's dependency cone is the predicate and every predicate its
// rules reach through premises of any kind: plain, negated or
// hypothetical. Whether R, DB+Δ ⊢ A holds depends only on the atoms of
// predicates in A's cone, so the cones answer what a goal can read (the
// relevance classes below), which goals a base-fact commit can change
// (Affected), and which premises a hypothetically added atom can move
// (Reads). An intensional predicate with no rule is answered elsewhere
// (by an oracle) and taken to depend on everything, and so is every
// predicate whose cone holds one. A predicate interned after the program
// was analysed appears in no rule: its cone is itself.
//
// Relevance classes group the goal predicates by the part of a
// hypothetical state their proofs can read, so a table keyed by (A, the
// state restricted to A's class) is exact; the state table computes that
// restriction (State.RelevantID).
//
// Classes are taken only over T, the predicates a state can carry a token
// of: the extensional ones and the targets of rule [add:]/[del:] lists. A
// goal's class is its cone ∩ T, and goals with equal classes share one.
// A token whose predicate is outside T (an askunder add of an intensional
// atom) is kept in every projection, which is conservative and never
// unsound.
//
// Only goals with a hypothetical premise in their cone define classes: the
// Σ-part kind, which build states and are asked again under states that
// differ in tokens they cannot read. A goal of Horn rules with negation
// (a Δ-part predicate, like Example 4's d_i: cone {b_i..b_n}) is asked
// once per state its caller builds, so a class of its own would cost a
// walk up the chain per class and share nothing. It is tabled under the
// smallest class that covers its cone ∩ T instead, if one does: keeping
// more tokens than a goal reads is still exact. Classes are numbered in
// predicate id order and capped at maxClasses; a goal with no class, one
// whose cone covers all of T, or one whose class is past the cap keys on
// its whole state.
//
// Must-add sets name the atoms a goal is certain to add before it reads
// them. U is the set of ground atoms that rule [add:] lists add to
// extensional predicates, and M(p) ⊆ U is the greatest solution of: M(p)
// is the intersection, over p's rules, of the intersection over each
// rule's premises of
//
//   - ground(T) ∪ M(q) for q[add: T];
//   - M(q) for an intensional q or ~q;
//   - ∅ for an extensional premise, and for any premise with a [del:] or
//     whose cone holds one.
//
// Then R, DB+S ⊢ p iff R, DB+(S ∪ X) ⊢ p for every X ⊆ M(p) (DESIGN §3,
// "Must-add keys"), so an asked goal of p is proved, tabled and kept on
// the proof stack in S less the members of M(p) (State.Normalised). A
// subgoal's state may still hold members of its own set: that key is
// exact too, only not shared with the normalised one. Example 4's
// a_i :- a_{i+1}[add: b_i] gives M(a_i) = {b_i..b_n}. Intensional atoms
// stay out of U because adding one can make the goal itself visible. The
// sets are computed only for goals with a hypothetical premise in their
// cone; every other goal has M = ∅, which is always sound.
//
// Some sets only the data fixes: Example 5's
// ap(X) :- next(X, Y), ap(Y)[add: marker(Y)] adds an atom that next, an
// extensional predicate no rule changes, binds. The Relevance marks such
// data-determined predicates, and MustDB computes M_DB(g) of their
// ground goals over the base's facts (mustdb.go; DESIGN §3,
// "Data-determined must-add sets").
//
// A Relevance is built once per program and is read-only afterwards, so
// engines on many goroutines share it.
type Relevance struct {
	cones [][]uint64 // by predicate: its cone, a bit set over the program's predicates
	open  []bool     // by predicate: its cone holds an intensional predicate with no rule

	classOf []uint8 // by predicate: 1 + its goals' class, or 0 for the whole state
	tokens  []uint8 // by predicate: the classes a token of it is relevant to

	u     []ast.CAtom      // U, by bit
	uBit  map[string]int32 // an atom of U by its interner key (appendAtomKey), to its bit
	uPred []bool           // by predicate: U holds an atom of it
	keys  []predKeys       // by predicate: its must-add keys (mustdb.go)

	cp *ast.CProgram // the rules data-determined sets are computed over
}

// maxClasses is the width of a state's class mask: one byte a state, kept
// beside its node so that the node stays 12 bytes.
const maxClasses = 8

// allClasses is the mask of a token relevant to every class.
const allClasses = ^uint8(0)

// NewRelevance analyses a compiled program: one pass over the
// condensation of its dependency graph computes each predicate's cone as
// a bit set over the predicates, and the must-add sets of the predicates
// with a hypothetical premise in their cone as bit sets over U, iterating
// only inside a strongly connected component. A program whose goals all
// read every token a state can hold and have empty must-add sets gets no
// classes and no sets: its goals key on their whole states.
func NewRelevance(cp *ast.CProgram) *Relevance {
	n := cp.Syms.NumPreds()
	words := (n + 63) / 64
	inT := make([]uint64, words)
	mark := func(p symbols.Pred) { inT[p/64] |= 1 << (p % 64) }
	for p := 0; p < n; p++ {
		if !cp.IDB[symbols.Pred(p)] {
			mark(symbols.Pred(p))
		}
	}
	for _, r := range cp.Rules {
		for _, pr := range r.Body {
			for _, a := range pr.Adds {
				mark(a.Pred)
			}
			for _, a := range pr.Dels {
				mark(a.Pred)
			}
		}
	}

	// Strongly connected components arrive callees first, so every edge
	// out of a component reaches a cone and a must-add set already
	// computed.
	r := &Relevance{cones: make([][]uint64, n), open: make([]bool, n)}
	g := depgraph.OfCompiled(cp)
	comps, _ := g.SCCs()
	hyp := make([]bool, n) // a hypothetical premise is in the cone
	ms := newMustSets(cp)
	for _, comp := range comps {
		set, h, open := make([]uint64, words), false, false
		for _, v := range comp {
			set[v/64] |= 1 << (v % 64)
			open = open || cp.IDB[symbols.Pred(v)] && len(cp.ByHead[symbols.Pred(v)]) == 0
			for _, e := range g.Adj[v] {
				for w, b := range r.cones[e.To] { // nil inside comp: same set
					set[w] |= b
				}
				h = h || e.Kind == depgraph.Hyp || hyp[e.To]
				open = open || r.open[e.To]
			}
		}
		for _, v := range comp {
			r.cones[v], hyp[v], r.open[v] = set, h, open
		}
		ms.component(comp, h)
	}
	r.u, r.uBit, r.uPred, r.cp = ms.u, ms.uBit, ms.uPred, cp
	r.keys = make([]predKeys, n)
	for p, set := range ms.must {
		r.keys[p].must = set
	}
	r.markData(cp, ms.del, hyp)

	// A class is a cone ∩ T.
	size := popcount(inT)
	classCone := func(p int) []uint64 {
		set := make([]uint64, words)
		for w := range set {
			set[w] = r.cones[p][w] & inT[w]
		}
		return set
	}
	r.classOf, r.tokens = make([]uint8, n), make([]uint8, n)
	var sets [][]uint64
	index := map[string]int{}
	for p := range r.cones {
		if !hyp[p] {
			continue
		}
		cone := classCone(p)
		if popcount(cone) == size {
			continue
		}
		key := bitsKey(cone)
		c, ok := index[key]
		if !ok {
			if len(sets) == maxClasses {
				continue
			}
			c = len(sets)
			index[key] = c
			sets = append(sets, cone)
		}
		r.classOf[p] = uint8(c + 1)
	}
	for p := range r.cones {
		if len(sets) > 0 && cp.IDB[symbols.Pred(p)] && !hyp[p] {
			r.classOf[p] = smallestCover(sets, classCone(p))
		}
	}
	for p := range r.tokens {
		if inT[p/64]>>(p%64)&1 == 0 {
			r.tokens[p] = allClasses
			continue
		}
		for c, set := range sets {
			if set[p/64]>>(p%64)&1 != 0 {
				r.tokens[p] |= 1 << c
			}
		}
	}
	return r
}

// Reads reports whether atoms of q can change whether a goal of p holds:
// q is in p's cone, or p's cone holds a predicate answered elsewhere. A
// nil Relevance knows no cones and answers true.
func (r *Relevance) Reads(p, q symbols.Pred) bool {
	switch {
	case r == nil:
		return true
	case int(p) >= len(r.cones):
		return p == q
	case r.open[p]:
		return true
	}
	return int(q) < len(r.cones) && r.cones[p][q/64]>>(q%64)&1 != 0
}

// Affected returns the affected cone of a base-fact change: the
// predicates of the changed atoms and every predicate whose goals read
// one of them. Goals and Δ models of predicates outside it keep their
// answers across the change.
func (r *Relevance) Affected(changed ...[]ast.CAtom) map[symbols.Pred]bool {
	cone := map[symbols.Pred]bool{}
	var seeds []symbols.Pred
	for _, atoms := range changed {
		for _, a := range atoms {
			if !cone[a.Pred] {
				cone[a.Pred] = true
				seeds = append(seeds, a.Pred)
			}
		}
	}
	for p := range r.cones {
		for _, q := range seeds {
			if r.Reads(symbols.Pred(p), q) {
				cone[symbols.Pred(p)] = true
				break
			}
		}
	}
	return cone
}

// class returns the class goals of pred are tabled under, if they have
// one.
func (r *Relevance) class(pred symbols.Pred) (uint8, bool) {
	if r == nil || int(pred) >= len(r.classOf) || r.classOf[pred] == 0 {
		return 0, false
	}
	return r.classOf[pred] - 1, true
}

// tokenClasses is the mask of the classes a token of pred is relevant to;
// predicates interned after the program was analysed are relevant to all.
func (r *Relevance) tokenClasses(pred symbols.Pred) uint8 {
	if int(pred) >= len(r.tokens) {
		return allClasses
	}
	return r.tokens[pred]
}

// smallestCover returns 1 + the class with the fewest members among those
// containing set, or 0 when none does.
func smallestCover(sets [][]uint64, set []uint64) uint8 {
	best, size := 0, 0
	for c, cover := range sets {
		if n := popcount(cover); subset(set, cover) && (best == 0 || n < size) {
			best, size = c+1, n
		}
	}
	return uint8(best)
}

func subset(a, b []uint64) bool {
	for w := range a {
		if a[w]&^b[w] != 0 {
			return false
		}
	}
	return true
}

func popcount(set []uint64) int {
	n := 0
	for _, w := range set {
		n += bits.OnesCount64(w)
	}
	return n
}

func bitsKey(set []uint64) string {
	b := make([]byte, 0, 8*len(set))
	for _, w := range set {
		for i := 0; i < 8; i++ {
			b = append(b, byte(w>>(8*i)))
		}
	}
	return string(b)
}
