package facts

import (
	"encoding/binary"
	"slices"
)

// Delta is an immutable modification of a base database: a set of
// hypothetically added atoms and a set of hypothetically deleted atoms
// (always disjoint — the most recent operation on an atom wins). Adding
// returns a new Delta; existing values are never mutated, so Deltas can be
// shared freely across proof branches.
//
// Hypothetical deletion is the extension mentioned in the introduction of
// the paper (data-complexity rises from PSPACE to EXPTIME); the core
// PODS'89 fragment only ever adds.
//
// A Delta carries its sorted sets — transient data of the proof stack
// that keeps Has a binary search — and, when a State built it, the
// StateID that names it in the state table of the State's interner
// (state.go). Identity is the id; the sets are never encoded into a key
// on an evaluation path.
type Delta struct {
	ids  []AtomID // added: sorted, deduplicated; nil for none
	dels []AtomID // deleted: sorted, deduplicated; nil for none
	sid  StateID
}

// EmptyDelta is the delta of the unmodified database.
var EmptyDelta = Delta{}

// NewDelta builds an additions-only delta from the given ids (copied,
// sorted, deduped). Like every Delta built outside a State it is not
// interned until a State over it is asked for its ID.
func NewDelta(ids []AtomID) Delta {
	return Delta{}.AddAll(ids)
}

// makeKey builds the canonical key: a 4-byte length prefix holding the
// number of added ids, then the sorted added ids, then the sorted deleted
// ids, each as fixed-width 4-byte words. The length prefix makes the
// add/del boundary explicit rather than inferred from a separator value,
// so no sequence of ids — whatever their numeric values — can make the
// encoding of one (adds, dels) pair collide with another: equal keys
// imply equal section lengths, hence equal sections word for word.
func makeKey(ids, dels []AtomID) string {
	if len(ids) == 0 && len(dels) == 0 {
		return ""
	}
	b := make([]byte, 0, 4*(1+len(ids)+len(dels)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ids)))
	for _, id := range ids {
		b = binary.LittleEndian.AppendUint32(b, uint32(id))
	}
	for _, id := range dels {
		b = binary.LittleEndian.AppendUint32(b, uint32(id))
	}
	return string(b)
}

// Len reports the number of added atoms in the delta.
func (d Delta) Len() int { return len(d.ids) }

// Key returns the canonical key identifying the delta as a modification,
// derived from its sets on every call: two Deltas are equal as
// modifications iff their Keys are equal. It is the reference the
// interned ids are tested against and what internal/ref keys on; the
// engines key on State.ID.
func (d Delta) Key() string { return makeKey(d.ids, d.dels) }

// Has reports whether id is in the delta's added set.
func (d Delta) Has(id AtomID) bool { return member(d.ids, id) }

// Deleted reports whether id is in the delta's deleted set.
func (d Delta) Deleted(id AtomID) bool { return member(d.dels, id) }

// member is a binary search written out so that it inlines into Has and
// Deleted — every goal expansion and every join candidate asks both, and
// on the empty set (no hypothetical deletions, the common case) the
// inlined form is one compare where slices.BinarySearch is a call.
func member(ids []AtomID, id AtomID) bool {
	lo, hi := 0, len(ids)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); ids[m] < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo < len(ids) && ids[lo] == id
}

func insertSorted(ids []AtomID, id AtomID) []AtomID {
	i, ok := slices.BinarySearch(ids, id)
	if ok {
		return ids
	}
	out := make([]AtomID, len(ids)+1)
	copy(out, ids[:i])
	out[i] = id
	copy(out[i+1:], ids[i:])
	return out
}

func removeSorted(ids []AtomID, id AtomID) []AtomID {
	i, ok := slices.BinarySearch(ids, id)
	if !ok {
		return ids
	}
	out := make([]AtomID, 0, len(ids)-1)
	out = append(out, ids[:i]...)
	return append(out, ids[i+1:]...)
}

// Add returns a delta extended with an added atom (clearing any deletion
// of the same atom). If the result equals the receiver it is returned
// unchanged.
func (d Delta) Add(id AtomID) Delta {
	if d.Has(id) {
		return d
	}
	return Delta{ids: insertSorted(d.ids, id), dels: removeSorted(d.dels, id), sid: uninterned}
}

// AddAll returns a delta extended with all the given added atoms.
func (d Delta) AddAll(ids []AtomID) Delta {
	out := d
	for _, id := range ids {
		out = out.Add(id)
	}
	return out
}

// IDs returns the added ids in sorted order. The returned slice must not
// be modified.
func (d Delta) IDs() []AtomID { return d.ids }
