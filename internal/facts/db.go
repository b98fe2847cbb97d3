package facts

import (
	"fmt"
	"math/bits"
	"slices"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/symbols"
)

// DB is the base (extensional) database: a set of interned ground atoms,
// a membership bitset beside an Index of them. A DB is built (or
// incrementally mutated) single-threaded and then read concurrently;
// Insert and Remove must not race with reads.
type DB struct {
	in    *Interner
	bits  []uint64 // membership, one bit per AtomID: ids are dense
	n     int      // atoms in the set
	idx   Index
	bytes int64 // approximate heap footprint of the index
}

// dbAtomBytes approximates the indexing cost of one atom: its predicate
// list slot, allocator slack, and one index entry (key + slot) per argument
// position. The membership bitset is charged by its length (MemBytes).
// Like the interner's accounting it is an estimator for budget
// enforcement, linear in the real footprint.
func dbAtomBytes(nargs int) int64 { return 32 + 32*int64(nargs) }

// NewDB returns an empty database over the interner.
func NewDB(in *Interner) *DB { return &DB{in: in, idx: make(Index)} }

// Load interns a compiled program's facts into a fresh base database over
// a new interner keyed by rel, the program's dependency analysis (nil
// keys nothing and knows no cones). It fails on a fact whose arity disagrees with its predicate's.
func Load(cp *ast.CProgram, rel *Relevance) (*DB, error) {
	in := NewInterner(cp.Syms)
	in.SetRelevance(rel)
	db := NewDB(in)
	for _, f := range cp.Facts {
		if _, err := db.Insert(in.Ground(f, nil)); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// Interner returns the interner backing the database.
func (db *DB) Interner() *Interner { return db.in }

// Insert adds an interned atom to the database. Duplicate inserts are
// no-ops. It reports whether the atom was newly added, and rejects an
// atom whose argument count disagrees with the declared arity of its
// predicate — the interner itself does not check, and silently indexing
// such an atom would corrupt the per-argument indexes (lookups key on
// positions that the declared arity says cannot exist).
func (db *DB) Insert(id AtomID) (bool, error) {
	pred := db.in.Pred(id)
	if want, got := db.in.Syms().PredArity(pred), len(db.in.Args(id)); want != got {
		return false, fmt.Errorf("facts: atom %s has %d args but predicate %s is declared with arity %d",
			db.in.Format(id), got, db.in.Syms().PredName(pred), want)
	}
	return db.insert(id), nil
}

// insert indexes an atom already known to be arity-consistent.
func (db *DB) insert(id AtomID) bool {
	if db.Has(id) {
		return false
	}
	for int(id)>>6 >= len(db.bits) {
		db.bits = append(db.bits, 0)
	}
	db.bits[id>>6] |= 1 << (id & 63)
	db.n++
	db.idx.Add(db.in, id)
	db.bytes += dbAtomBytes(len(db.in.Args(id)))
	return true
}

// MemBytes returns the database's approximate heap footprint, its
// membership bitset included (excluding the interner's, reported
// separately by Interner.MemBytes).
func (db *DB) MemBytes() int64 { return db.bytes + 8*int64(len(db.bits)) }

// Remove deletes an atom from the database, unindexing it. It reports
// whether the atom was present. The index lists it leaves are freshly
// allocated rather than compacted in place: clones share them
// copy-on-write (see Clone), so an in-place shift would corrupt a
// sibling's view of the same array.
func (db *DB) Remove(id AtomID) bool {
	if !db.Has(id) {
		return false
	}
	db.bits[id>>6] &^= 1 << (id & 63)
	db.n--
	db.idx.Remove(db.in, id)
	db.bytes -= dbAtomBytes(len(db.in.Args(id)))
	return true
}

// Has reports whether the atom is in the base database.
func (db *DB) Has(id AtomID) bool {
	w := uint(id) >> 6
	return w < uint(len(db.bits)) && db.bits[w]&(1<<(id&63)) != 0
}

// ByPred returns the atoms with the given predicate. The returned slice
// must not be modified.
func (db *DB) ByPred(p symbols.Pred) []AtomID { return db.idx.ByPred(p) }

// ByPredArg returns the atoms with predicate p whose argument at position
// pos equals val. The returned slice must not be modified.
func (db *DB) ByPredArg(p symbols.Pred, pos int, val symbols.Const) []AtomID {
	return db.idx.ByPredArg(p, pos, val)
}

// All returns every atom id in the database, sorted. The slice is freshly
// allocated.
func (db *DB) All() []AtomID {
	out := make([]AtomID, 0, db.n)
	for w, word := range db.bits {
		for ; word != 0; word &= word - 1 {
			out = append(out, AtomID(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return out
}

// CloneFor is Clone with the copy bound to a different interner — one
// that assigns the same ids (an Interner.Clone of this database's), so a
// pooled engine gets a fully private interner+database pair cloned from
// the pool's base.
func (db *DB) CloneFor(in *Interner) *DB {
	return &DB{
		in:    in,
		bits:  slices.Clone(db.bits),
		n:     db.n,
		idx:   db.idx.Clone(),
		bytes: db.bytes,
	}
}
