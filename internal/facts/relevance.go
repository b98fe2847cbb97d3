package facts

import (
	"math/bits"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/depgraph"
	"hypodatalog/internal/symbols"
)

// Relevance is a program's keying stage: what the Σ memo may leave out
// of the state a goal is asked in. It holds two derivations, both
// functions of the rules alone.
//
// Relevance classes group the goal predicates by the part of a
// hypothetical state their proofs can read. Whether R, DB+Δ ⊢ A holds
// depends only on the atoms of predicates in A's dependency cone, so a
// table keyed by (A, the state restricted to that cone) is exact; the
// state table computes that restriction (State.RelevantID).
//
// Cones are taken only over T, the predicates a state can carry a token
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
// A Relevance is built once per program and is read-only afterwards, so
// engines on many goroutines share it.
type Relevance struct {
	classOf []uint8 // by predicate: 1 + its goals' class, or 0 for the whole state
	tokens  []uint8 // by predicate: the classes a token of it is relevant to

	u     []ast.CAtom      // U, by bit
	uBit  map[string]int32 // an atom of U by its interner key (appendAtomKey), to its bit
	uPred []bool           // by predicate: U holds an atom of it
	must  [][]uint64       // by predicate: M(p) as a bit set over U; nil for ∅
}

// maxClasses is the width of a state's class mask: one byte a state, kept
// beside its node so that the node stays 12 bytes.
const maxClasses = 8

// allClasses is the mask of a token relevant to every class.
const allClasses = ^uint8(0)

// NewRelevance computes a compiled program's keying stage: one pass over
// the condensation of its dependency graph computes each predicate's cone
// as a bit set over T, and the must-add sets of the predicates with a
// hypothetical premise in their cone as bit sets over U, iterating only
// inside a strongly connected component. It returns nil when every goal
// reads every token a state can hold and no must-add set is non-empty.
func NewRelevance(cp *ast.CProgram) *Relevance {
	n := cp.Syms.NumPreds()
	inT := make([]bool, n)
	for p := range inT {
		inT[p] = !cp.IDB[symbols.Pred(p)]
	}
	for _, r := range cp.Rules {
		for _, pr := range r.Body {
			for _, a := range pr.Adds {
				inT[a.Pred] = true
			}
			for _, a := range pr.Dels {
				inT[a.Pred] = true
			}
		}
	}
	tIndex := make([]int, n) // position in T, or -1
	size := 0
	for p, ok := range inT {
		tIndex[p] = -1
		if ok {
			tIndex[p] = size
			size++
		}
	}
	words := (size + 63) / 64

	// Strongly connected components arrive callees first, so every edge
	// out of a component reaches a cone and a must-add set already
	// computed.
	g := depgraph.OfCompiled(cp)
	comps, _ := g.SCCs()
	cone := make([][]uint64, n)
	hyp := make([]bool, n) // a hypothetical premise is in the cone
	ms := newMustSets(cp)
	for _, comp := range comps {
		set, h := make([]uint64, words), false
		for _, v := range comp {
			if t := tIndex[v]; t >= 0 {
				set[t/64] |= 1 << (t % 64)
			}
			for _, e := range g.Adj[v] {
				for w, b := range cone[e.To] { // nil inside comp: same set
					set[w] |= b
				}
				h = h || e.Kind == depgraph.Hyp || hyp[e.To]
			}
		}
		for _, v := range comp {
			cone[v], hyp[v] = set, h
		}
		ms.component(comp, h)
	}

	r := &Relevance{
		classOf: make([]uint8, n), tokens: make([]uint8, n),
		u: ms.u, uBit: ms.uBit, uPred: ms.uPred, must: ms.must,
	}
	var sets [][]uint64
	index := map[string]int{}
	for p := range cone {
		if !hyp[p] || popcount(cone[p]) == size {
			continue
		}
		key := bitsKey(cone[p])
		c, ok := index[key]
		if !ok {
			if len(sets) == maxClasses {
				continue
			}
			c = len(sets)
			index[key] = c
			sets = append(sets, cone[p])
		}
		r.classOf[p] = uint8(c + 1)
	}
	if len(sets) == 0 && !ms.any {
		return nil
	}
	for p := range cone {
		if cp.IDB[symbols.Pred(p)] && !hyp[p] {
			r.classOf[p] = smallestCover(sets, cone[p])
		}
	}
	for p, t := range tIndex {
		if t < 0 {
			r.tokens[p] = allClasses
			continue
		}
		for c, set := range sets {
			if set[t/64]>>(t%64)&1 != 0 {
				r.tokens[p] |= 1 << c
			}
		}
	}
	return r
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
