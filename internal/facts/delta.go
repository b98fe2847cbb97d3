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
// The added set is held in two parts. The older atoms sit in sorted runs
// shared with every state the Delta was extended from. The newest atoms,
// at most tailMax of them, are the tail: they are copied nowhere, but read
// from the state-table chain of the Delta's own StateID, whose newest
// nodes are exactly those additions (state.go). A State extended by one
// atom therefore shares its parent's runs and copies nothing; once the
// tail is full it becomes a new run, and a run merges with the one below
// it while that one is at most twice as long, as in a binary counter. So
// along a chain of n adds each atom is copied O(log n) times where a
// single sorted set copied all of them on every add, Has is a binary
// search per run plus at most tailMax tail probes, and a scan in sorted
// order merges the runs with the tail without allocating (Added). The
// deleted set is one sorted slice, copied on each change: hypothetical
// deletion is rare.
//
// A Delta built by a State also carries the StateID that names it in the
// state table of the State's interner. Identity is the id; the sets are
// never encoded into a key on an evaluation path.
type Delta struct {
	runs *run        // sorted runs of added atoms, newest first; nil for none
	dels []AtomID    // deleted: sorted, deduplicated; nil for none
	tab  *stateTable // the table that holds the tail's chain; nil when tail is 0
	n    int32       // added atoms, the tail included
	tail int32       // the newest tail nodes of sid's chain add atoms no run holds
	sid  StateID
}

// tailMax bounds a Delta's tail, and with it the chain probes of Has.
const tailMax = 8

// run is an immutable sorted run of added atoms, disjoint from every other
// run of its Delta, stacked on the older runs it was pushed onto. Each run
// is more than twice as long as the next newer one, so a Delta has at most
// 31 runs (an AtomID is 31 bits), and usually one or two.
type run struct {
	atoms []AtomID
	older *run // more than twice as long, or nil
}

// pushRun stacks the sorted atoms, which the caller hands over, on older,
// merging while the run below is at most twice as long.
func pushRun(older *run, atoms []AtomID) *run {
	for older != nil && len(older.atoms) <= 2*len(atoms) {
		atoms = mergeSorted(older.atoms, atoms)
		older = older.older
	}
	return &run{atoms: atoms, older: older}
}

// mergeSorted returns the union of two disjoint sorted sets in a fresh
// slice.
func mergeSorted(a, b []AtomID) []AtomID {
	out := make([]AtomID, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

// sortedDelta is the uninterned delta with the given sorted sets.
func sortedDelta(ids, dels []AtomID) Delta {
	d := Delta{dels: dels, n: int32(len(ids)), sid: uninterned}
	if len(ids) > 0 {
		d.runs = &run{atoms: ids}
	}
	return d
}

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
func (d Delta) Len() int { return int(d.n) }

// Key returns the canonical key identifying the delta as a modification,
// derived from its sets on every call: two Deltas are equal as
// modifications iff their Keys are equal. It is the reference the
// interned ids are tested against and what internal/ref keys on; the
// engines key on State.ID.
func (d Delta) Key() string { return makeKey(d.IDs(), d.dels) }

// Has reports whether id is in the delta's added set.
func (d Delta) Has(id AtomID) bool {
	if d.tail > 0 && d.tab.inChain(d.sid, d.tail, addToken(id)) {
		return true
	}
	for r := d.runs; r != nil; r = r.older {
		if member(r.atoms, id) {
			return true
		}
	}
	return false
}

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

// flushed returns d with its tail, plus extra when it is not NoAtom,
// pushed as a run: the added set unchanged but for extra, and no tail.
func (d Delta) flushed(extra AtomID) Delta {
	it := d.Added()
	atoms := make([]AtomID, it.tailN, it.tailN+1)
	copy(atoms, it.tail[:])
	if extra != NoAtom {
		atoms = append(atoms, extra)
		slices.Sort(atoms)
		d.n++
	}
	d.tail, d.tab = 0, nil
	if len(atoms) > 0 {
		d.runs = pushRun(d.runs, atoms)
	}
	return d
}

// IDs returns the added atoms in ascending order: the delta's one run
// when that is the whole set, otherwise a fresh slice. The result must not
// be modified. A scan that repeats over one state (a materialisation)
// takes this once; a single scan walks Added instead, which allocates
// nothing.
func (d Delta) IDs() []AtomID {
	if d.tail == 0 && (d.runs == nil || d.runs.older == nil) {
		if d.runs == nil {
			return nil
		}
		return d.runs.atoms
	}
	out := make([]AtomID, 0, d.n)
	for it := d.Added(); ; {
		id, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, id)
	}
}

// Add returns a delta extended with an added atom (clearing any deletion
// of the same atom). If the result equals the receiver it is returned
// unchanged. The result is uninterned and keeps its added set in one
// run: this is the path of Deltas built outside a State.
func (d Delta) Add(id AtomID) Delta {
	if d.Has(id) {
		return d
	}
	return sortedDelta(insertSorted(d.IDs(), id), removeSorted(d.dels, id))
}

// AddAll returns a delta extended with all the given added atoms.
func (d Delta) AddAll(ids []AtomID) Delta {
	out := d
	for _, id := range ids {
		out = out.Add(id)
	}
	return out
}

// Added returns an iterator over the added atoms in ascending order. It
// allocates nothing and reads the delta's tail up front, so the state
// table may grow while it runs.
func (d Delta) Added() AddedIter {
	it := AddedIter{runs: d.runs, last: NoAtom, tailN: int8(d.tail)}
	c := d.sid
	for i := int8(0); i < it.tailN; i++ {
		n := d.tab.nodes[c]
		a, j := AtomID(n.token>>1), i
		for ; j > 0 && it.tail[j-1] > a; j-- {
			it.tail[j] = it.tail[j-1]
		}
		it.tail[j] = a
		c = n.parent
	}
	return it
}

// AddedIter walks a Delta's added atoms in ascending order by merging its
// sorted tail with its runs; see Delta.Added. It keeps a cursor in each
// of the newest runs, and finds its place in any older run (a delta of
// hundreds of atoms) by binary search from the atom it returned last. That
// keeps it within 64 bytes, cheap to hand back and to set up for the many
// scans of a small delta.
type AddedIter struct {
	runs  *run
	tail  [tailMax]AtomID // sorted
	pos   [cursors]int32  // atoms returned from each of the newest runs
	last  AtomID          // the atom returned last, or NoAtom
	tailN int8
	tailI int8
}

// cursors is how many runs an AddedIter keeps a cursor in.
const cursors = 4

// Next returns the next added atom, or false when there is none: the
// least of the tail's next atom and each run's.
func (it *AddedIter) Next() (AtomID, bool) {
	best, from := NoAtom, -1
	if it.tailI < it.tailN {
		best = it.tail[it.tailI]
	}
	i := 0
	for r := it.runs; r != nil; r, i = r.older, i+1 {
		var p int
		if i < cursors {
			p = int(it.pos[i])
		} else {
			p, _ = slices.BinarySearch(r.atoms, it.last+1)
		}
		if p < len(r.atoms) && (best == NoAtom || r.atoms[p] < best) {
			best, from = r.atoms[p], i
		}
	}
	switch {
	case best == NoAtom:
		return NoAtom, false
	case from < 0:
		it.tailI++
	case from < cursors:
		it.pos[from]++
	}
	it.last = best
	return best, true
}
