package facts

import (
	"hypodatalog/internal/ast"
	"hypodatalog/internal/symbols"
)

// Index lists atoms by predicate and by (predicate, argument position,
// value): the candidate lists a match walks. Add only appends, so a caller
// ranging over a list it found sees a stable snapshot while it adds more;
// Remove builds fresh lists and never writes into one a Clone shares. The
// base database keeps one, and so does a Δ-part model while it is
// materialised; each charges what its Index costs in its own estimate.
type Index map[indexKey][]AtomID

// indexKey names one list: the atoms of pred whose argument at pos is
// val, or, at pos -1, every atom of pred.
type indexKey struct {
	pred symbols.Pred
	pos  int32
	val  symbols.Const
}

// Add indexes an atom of in. It does not check for duplicates.
func (x Index) Add(in *Interner, id AtomID) {
	pred := in.Pred(id)
	k := indexKey{pred, -1, 0}
	x[k] = append(x[k], id)
	for pos, val := range in.Args(id) {
		k = indexKey{pred, int32(pos), val}
		x[k] = append(x[k], id)
	}
}

// Remove unindexes an atom of in.
func (x Index) Remove(in *Interner, id AtomID) {
	pred := in.Pred(id)
	x.without(indexKey{pred, -1, 0}, id)
	for pos, val := range in.Args(id) {
		x.without(indexKey{pred, int32(pos), val}, id)
	}
}

func (x Index) without(k indexKey, id AtomID) {
	out := make([]AtomID, 0, len(x[k]))
	for _, v := range x[k] {
		if v != id {
			out = append(out, v)
		}
	}
	if x[k] = out; len(out) == 0 {
		delete(x, k)
	}
}

// Clone returns a copy sharing every list copy-on-write: each is
// capacity-clipped, so an Add to either copy reallocates instead of
// appending into the shared backing array.
func (x Index) Clone() Index {
	out := make(Index, len(x))
	for k, s := range x {
		out[k] = s[:len(s):len(s)]
	}
	return out
}

// ByPred returns the atoms with predicate p. The slice must not be
// modified.
func (x Index) ByPred(p symbols.Pred) []AtomID { return x[indexKey{p, -1, 0}] }

// ByPredArg returns the atoms with predicate p whose argument at position
// pos is val. The slice must not be modified.
func (x Index) ByPredArg(p symbols.Pred, pos int, val symbols.Const) []AtomID {
	return x[indexKey{p, int32(pos), val}]
}

// Match calls yield once for every atom of st that matches pattern under
// binding, with binding extended by the match; the slots the match bound
// are unbound again before the next atom and on return. An atom of an
// extensional predicate holds in DB+Δ exactly when it is in the state
// (Definition 3), so for such a predicate Match yields every instance of
// the pattern that holds, without ranging over dom.
//
// The candidates are the base index's list at the pattern's first bound
// position (its predicate's list when none is bound) less the
// hypothetical deletions, in index order, then the state's additions of
// the predicate in id order, unless MayMention shows there are none. A
// fully bound pattern is one Lookup and Has. Match allocates nothing. It
// returns how many candidates it unified the pattern with (a fully bound
// pattern counts the atom it found) and yield's first error, which stops
// the enumeration.
func Match(st State, pattern ast.CAtom, binding []symbols.Const, yield func() error) (int, error) {
	var fb [inline]int
	var ab [inline]symbols.Const
	free, args, key := read(pattern, binding, fb[:0], ab[:0])
	in := st.Base.in
	if len(free) == 0 {
		if id, ok := in.Lookup(pattern.Pred, args); ok && st.Has(id) {
			return 1, yield()
		}
		return 0, nil
	}
	n := 0
	for _, id := range st.Base.idx[key] {
		if st.Delta.Deleted(id) {
			continue
		}
		n++
		if err := unify(in, id, pattern, binding, free, yield); err != nil {
			return n, err
		}
	}
	if !st.MayMention(pattern.Pred) {
		return n, nil
	}
	for it := st.Delta.Added(); ; {
		id, ok := it.Next()
		if !ok {
			return n, nil
		}
		if in.Pred(id) != pattern.Pred || st.Base.Has(id) {
			continue // another predicate's, or met in the base already
		}
		n++
		if err := unify(in, id, pattern, binding, free, yield); err != nil {
			return n, err
		}
	}
}

// Match is facts.Match over the atoms x indexes.
func (x Index) Match(in *Interner, pattern ast.CAtom, binding []symbols.Const, yield func() error) (int, error) {
	var fb [inline]int
	var ab [inline]symbols.Const
	free, _, key := read(pattern, binding, fb[:0], ab[:0])
	return matchList(in, x[key], pattern, binding, free, yield)
}

// MatchList is Match over the given atoms: it unifies the pattern with
// each in turn, and returns how many it tried.
func MatchList(in *Interner, ids []AtomID, pattern ast.CAtom, binding []symbols.Const, yield func() error) (int, error) {
	var fb [inline]int
	var ab [inline]symbols.Const
	free, _, _ := read(pattern, binding, fb[:0], ab[:0])
	return matchList(in, ids, pattern, binding, free, yield)
}

func matchList(in *Interner, ids []AtomID, pattern ast.CAtom, binding []symbols.Const, free []int, yield func() error) (int, error) {
	for i, id := range ids {
		if err := unify(in, id, pattern, binding, free, yield); err != nil {
			return i + 1, err
		}
	}
	return len(ids), nil
}

// inline is the arity up to which a match keeps its scratch on the stack.
const inline = 8

// read reads the pattern under binding in one pass: it appends to free
// the slots a match binds (a repeated variable twice) and to args each
// argument's value, Unbound where free, and returns the key of the list a
// match walks, at the first bound position.
func read(pattern ast.CAtom, binding []symbols.Const, free []int, args []symbols.Const) ([]int, []symbols.Const, indexKey) {
	key := indexKey{pattern.Pred, -1, 0}
	for i, t := range pattern.Args {
		var v symbols.Const
		if !t.IsVar() {
			v = t.ConstID()
		} else if v = binding[t.VarSlot()]; v == ast.Unbound {
			free = append(free, t.VarSlot())
		}
		if v != ast.Unbound && key.pos < 0 {
			key.pos, key.val = int32(i), v
		}
		args = append(args, v)
	}
	return free, args, key
}

// unify unifies the pattern with one atom and yields on success; free,
// the pattern's slots unbound on entry, are again on return.
func unify(in *Interner, id AtomID, pattern ast.CAtom, binding []symbols.Const, free []int, yield func() error) error {
	var err error
	if ast.Unify(pattern, in.Args(id), binding) {
		err = yield()
	}
	for _, s := range free {
		binding[s] = ast.Unbound
	}
	return err
}
