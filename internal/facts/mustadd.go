package facts

import (
	"encoding/binary"
	"slices"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/symbols"
)

// mustSets computes U and the must-add sets of a program, one strongly
// connected component at a time, callees first (NewRelevance drives it).
type mustSets struct {
	cp    *ast.CProgram
	u     []ast.CAtom
	uBit  map[string]int32
	uPred []bool
	full  []uint64   // U
	must  [][]uint64 // by predicate; nil for ∅
	del   []bool     // by predicate: its cone holds a [del:]

	set  []uint64        // scratch: the set being computed
	key  []byte          // scratch for appendAtomKey
	args []symbols.Const // scratch for an atom's constants
}

// newMustSets collects U. A program whose rules add no ground
// extensional atom has no must-add set, and nothing is allocated for it
// but the [del:] flags, which the data-determined sets read too.
func newMustSets(cp *ast.CProgram) mustSets {
	m := mustSets{cp: cp, del: make([]bool, cp.Syms.NumPreds())}
	for _, r := range cp.Rules {
		for _, pr := range r.Body {
			for _, a := range pr.Adds {
				if cp.IDB[a.Pred] || !a.IsGround() {
					continue
				}
				if m.uBit == nil {
					n := cp.Syms.NumPreds()
					m.uBit, m.uPred, m.must = map[string]int32{}, make([]bool, n), make([][]uint64, n)
				}
				key := m.keyOf(a)
				if _, ok := m.uBit[string(key)]; !ok {
					m.uBit[string(key)] = int32(len(m.u))
					m.u = append(m.u, a)
					m.uPred[a.Pred] = true
				}
			}
		}
	}
	m.full = make([]uint64, (len(m.u)+63)/64)
	m.set = make([]uint64, len(m.full))
	for i := range m.u {
		m.full[i/64] |= 1 << (i % 64)
	}
	return m
}

// component computes the must-add sets of one strongly connected
// component: the greatest fixpoint, from M = U for every member, of the
// intersections in the Relevance doc. hyp reports whether the cone holds a
// hypothetical premise; without one, or with a [del:] in the cone, every
// member keeps M = ∅.
func (m *mustSets) component(comp []int, hyp bool) {
	cp := m.cp
	for _, v := range comp {
		for _, ri := range cp.ByHead[symbols.Pred(v)] {
			for _, pr := range cp.Rules[ri].Body {
				if len(pr.Dels) > 0 || m.del[pr.Atom.Pred] {
					for _, w := range comp {
						m.del[w] = true
					}
					return
				}
			}
		}
	}
	if !hyp || len(m.u) == 0 {
		return
	}
	for _, v := range comp {
		if cp.IDB[symbols.Pred(v)] {
			m.must[v] = m.full
		}
	}
	for changed := true; changed; {
		changed = false
		for _, v := range comp {
			if m.must[v] == nil {
				continue // extensional, or already ∅
			}
			set := append(m.set[:0], m.full...)
			for _, ri := range cp.ByHead[symbols.Pred(v)] {
				for i := range cp.Rules[ri].Body {
					m.premise(set, &cp.Rules[ri].Body[i])
				}
				if empty(set) {
					set = nil
					break
				}
			}
			if !slices.Equal(set, m.must[v]) {
				m.must[v], changed = slices.Clone(set), true
			}
		}
	}
}

// premise intersects set with what one premise contributes: ground(T) ∪
// M(q) for q[add: T], M(q) for an intensional q or ~q, and ∅ for an
// extensional premise. (A premise whose cone holds a [del:] never gets
// here: its head's component has M = ∅.)
func (m *mustSets) premise(set []uint64, pr *ast.CPremise) {
	var added []int // members of set the premise adds itself
	if pr.Kind == ast.Hyp || pr.Kind == ast.NegHyp {
		for _, a := range pr.Adds {
			if b, ok := m.bit(a); ok && set[b/64]>>(b%64)&1 != 0 {
				added = append(added, b)
			}
		}
	}
	q := m.must[pr.Atom.Pred]
	for w := range set {
		if q == nil {
			set[w] = 0
		} else {
			set[w] &= q[w]
		}
	}
	for _, b := range added {
		set[b/64] |= 1 << (b % 64)
	}
}

// bit is the position of a ground atom in U.
func (m *mustSets) bit(a ast.CAtom) (int, bool) {
	if !a.IsGround() || !m.uPred[a.Pred] {
		return 0, false
	}
	b, ok := m.uBit[string(m.keyOf(a))]
	return int(b), ok
}

// keyOf is a ground atom's interner key, in scratch space valid until the
// next call.
func (m *mustSets) keyOf(a ast.CAtom) []byte {
	m.args = m.args[:0]
	for _, t := range a.Args {
		m.args = append(m.args, t.ConstID())
	}
	m.key = appendAtomKey(m.key[:0], a.Pred, m.args)
	return m.key
}

func empty(set []uint64) bool {
	for _, w := range set {
		if w != 0 {
			return false
		}
	}
	return true
}

// appendAtomKey appends the interner's key of pred(args...): the
// predicate and each argument as a 4-byte little-endian word.
func appendAtomKey(b []byte, pred symbols.Pred, args []symbols.Const) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(pred))
	for _, a := range args {
		b = binary.LittleEndian.AppendUint32(b, uint32(a))
	}
	return b
}

// keysOf is pred's must-add keys; the zero value for a predicate
// interned after the program was analysed, or a nil Relevance.
func (r *Relevance) keysOf(pred symbols.Pred) predKeys {
	if r == nil || int(pred) >= len(r.keys) {
		return predKeys{}
	}
	return r.keys[pred]
}

// mustAdd is M(pred) as a bit set over U, or nil when it is empty.
func (r *Relevance) mustAdd(pred symbols.Pred) []uint64 { return r.keysOf(pred).must }

// MustAdd returns M(pred) as ground atoms, in U's order: the atoms every
// derivation of a goal of pred adds before it reads them. It is nil when
// the set is empty.
func (r *Relevance) MustAdd(pred symbols.Pred) []ast.CAtom {
	set := r.mustAdd(pred)
	if set == nil {
		return nil
	}
	var out []ast.CAtom
	for b, a := range r.u {
		if set[b/64]>>(b%64)&1 != 0 {
			out = append(out, a)
		}
	}
	return out
}

// mustHas reports whether the atom id is a member of the must-add set
// set.
func (in *Interner) mustHas(set []uint64, id AtomID) bool {
	g := &in.atoms[id]
	r := in.rel
	if int(g.pred) >= len(r.uPred) || !r.uPred[g.pred] {
		return false
	}
	b, ok := r.uBit[string(in.encodeKey(g.pred, g.args))]
	return ok && set[b/64]>>(b%64)&1 != 0
}
