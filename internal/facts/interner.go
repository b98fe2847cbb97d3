// Package facts provides the ground-level data plane of the system: a
// ground-atom interner assigning dense ids, an indexed base database, and
// the immutable Delta overlays that represent hypothetical states
// DB + {B1, ..., Bm} during inference.
package facts

import (
	"maps"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/symbols"
)

// AtomID is a dense identifier for an interned ground atom.
type AtomID int32

// NoAtom is returned by lookups that find nothing.
const NoAtom AtomID = -1

type groundAtom struct {
	pred symbols.Pred
	args []symbols.Const
}

// Interner assigns dense ids to ground atoms. It is shared by a base
// database and all hypothetical states layered on top of it.
// The zero value is not usable; call NewInterner.
type Interner struct {
	syms  *symbols.Table
	atoms []groundAtom
	index map[string]AtomID // atoms of two or more arguments
	small map[uint64]AtomID // nullary and unary atoms, by smallKey
	buf   []byte            // scratch for key encoding
	args  []symbols.Const   // scratch for Ground
	bytes int64             // approximate heap footprint of atoms + indexes

	// states interns the hypothetical states built over this interner's
	// atoms (state.go). It is private to this interner: Clone starts an
	// empty one, so StateIDs never travel between engines.
	states stateTable
	// rel is the program's dependency analysis (relevance.go): the cones,
	// the relevance classes the state table projects states onto and the
	// must-add sets states are normalised by; nil keys nothing.
	rel *Relevance
}

// internEntryOverhead approximates the fixed heap cost of one interned
// atom beyond its key and argument bytes: the groundAtom struct, the
// index map entry, and allocator slack. The accounting is a budget
// estimator, not a profiler — it only needs to grow linearly with real
// memory so a byte ceiling translates to a bounded RSS.
const internEntryOverhead = 64

// NewInterner returns an empty interner over the given symbol table.
func NewInterner(syms *symbols.Table) *Interner {
	return &Interner{
		syms:   syms,
		index:  make(map[string]AtomID),
		small:  make(map[uint64]AtomID),
		states: newStateTable(),
	}
}

// SetRelevance installs the program's keying stage: the relevance classes
// states are projected onto and the must-add sets they are normalised by.
// It must come before any state is interned: a state node records its
// classes when it is created. Clone carries it.
func (in *Interner) SetRelevance(r *Relevance) { in.rel = r }

// Relevance returns the program's dependency analysis the interner keys
// by, or nil.
func (in *Interner) Relevance() *Relevance { return in.rel }

// Syms returns the symbol table the interner was built over.
func (in *Interner) Syms() *symbols.Table { return in.syms }

// encodeKey packs pred and args into in.buf and returns it. The result is
// only valid until the next call.
func (in *Interner) encodeKey(pred symbols.Pred, args []symbols.Const) []byte {
	in.buf = appendAtomKey(in.buf[:0], pred, args)
	return in.buf
}

// smallKey packs a nullary or unary atom into one word, so the goals most
// programs are made of are found without building a string key: the
// predicate, a bit for arity one, and the argument.
func smallKey(pred symbols.Pred, args []symbols.Const) uint64 {
	if len(args) == 0 {
		return uint64(uint32(pred)) << 33
	}
	return uint64(uint32(pred))<<33 | 1<<32 | uint64(uint32(args[0]))
}

// ID interns the ground atom pred(args...) and returns its id. The args
// slice is copied on first interning.
func (in *Interner) ID(pred symbols.Pred, args []symbols.Const) AtomID {
	if id, ok := in.Lookup(pred, args); ok {
		return id
	}
	id := AtomID(len(in.atoms))
	stored := groundAtom{pred: pred}
	if len(args) > 0 {
		stored.args = append([]symbols.Const(nil), args...)
	}
	in.atoms = append(in.atoms, stored)
	keyBytes := int64(8)
	if len(args) < 2 {
		in.small[smallKey(pred, args)] = id
	} else {
		key := in.encodeKey(pred, args)
		in.index[string(key)] = id
		keyBytes = int64(len(key))
	}
	in.bytes += keyBytes + 8*int64(len(args)) + internEntryOverhead
	return id
}

// MemBytes returns the interner's approximate heap footprint: its atoms
// with their entries in whichever index holds them (an 8-byte word key in
// small, the byte key in index), and the states interned over them, with
// their memoised projections.
// None is ever un-interned, so the value is monotone within one interner
// (but resets to the substrate's atoms on Clone).
func (in *Interner) MemBytes() int64 { return in.bytes + in.states.memBytes() }

// Lookup returns the id of pred(args...) if it has been interned.
func (in *Interner) Lookup(pred symbols.Pred, args []symbols.Const) (AtomID, bool) {
	if len(args) < 2 {
		id, ok := in.small[smallKey(pred, args)]
		return id, ok
	}
	id, ok := in.index[string(in.encodeKey(pred, args))]
	return id, ok
}

// Pred returns the predicate of an interned atom.
func (in *Interner) Pred(id AtomID) symbols.Pred { return in.atoms[id].pred }

// Args returns the argument constants of an interned atom. The returned
// slice must not be modified.
func (in *Interner) Args(id AtomID) []symbols.Const { return in.atoms[id].args }

// Clone returns an independent interner with the same atom/id assignment
// and no interned states. The per-atom argument slices are shared (they
// are immutable after interning); the atoms slice and index maps are
// copied, so interning into either copy never affects the other.
func (in *Interner) Clone() *Interner {
	return &Interner{
		syms:   in.syms,
		atoms:  append([]groundAtom(nil), in.atoms...),
		index:  maps.Clone(in.index),
		small:  maps.Clone(in.small),
		bytes:  in.bytes,
		states: newStateTable(),
		rel:    in.rel,
	}
}

// Ground interns atom a under binding, which binds every variable of a
// (nil for a ground atom). It panics on an unbound variable: callers
// ground a premise only once its instance is chosen.
func (in *Interner) Ground(a ast.CAtom, binding []symbols.Const) AtomID {
	args := in.args[:0] // scratch: ID copies what it keeps
	for _, t := range a.Args {
		if !t.IsVar() {
			args = append(args, t.ConstID())
		} else if v := binding[t.VarSlot()]; v != ast.Unbound {
			args = append(args, v)
		} else {
			panic("facts: grounding with an unbound variable")
		}
	}
	in.args = args
	return in.ID(a.Pred, args)
}

// Instance is the goal a premise instance asks and the state it asks it
// in: the premise's atom under binding, in Under's state. It grounds adds,
// dels and the atom in that order, which fixes the ids they intern. A
// negated premise asks its atom in st, to be read negated.
func (in *Interner) Instance(p *ast.CPremise, binding []symbols.Const, st State) (AtomID, State) {
	st = in.Under(p, binding, st)
	return in.Ground(p.Atom, binding), st
}

// Under is the state a premise instance is asked in: st extended by the
// premise's adds and then its dels, grounded under binding.
func (in *Interner) Under(p *ast.CPremise, binding []symbols.Const, st State) State {
	for _, a := range p.Adds {
		st = st.Add(in.Ground(a, binding))
	}
	for _, a := range p.Dels {
		st = st.Del(in.Ground(a, binding))
	}
	return st
}

// Format renders an interned atom using the symbol table.
func (in *Interner) Format(id AtomID) string {
	g := in.atoms[id]
	if len(g.args) == 0 {
		return in.syms.PredName(g.pred)
	}
	s := in.syms.PredName(g.pred) + "("
	for i, a := range g.args {
		if i > 0 {
			s += ", "
		}
		s += in.syms.ConstName(a)
	}
	return s + ")"
}
