package facts

import (
	"math"
	"slices"

	"hypodatalog/internal/symbols"
)

// StateID names a hypothetical modification — a pair of (added, deleted)
// atom sets — in the state table of one Interner. Within that interner two
// states over the same base are the same modification iff their ids are
// equal: ids are hash-consed, never hashes, so the tabling layers can key
// on them and keep the exact equality their soundness rests on. Ids mean
// nothing outside the interner that issued them (a Clone starts a fresh
// table), and they name (adds, dels) sets rather than visible sets, so a
// base-fact commit leaves every id exact.
type StateID uint32

const (
	// EmptyStateID is the unmodified database, in every table.
	EmptyStateID StateID = 0
	// uninterned marks a non-empty Delta built outside any State (NewDelta,
	// Delta.Add); State.ID interns it on demand.
	uninterned StateID = math.MaxUint32
)

// stateNode is one interned state: its parent state plus one token the
// parent lacks. hash is the XOR of the mixed hashes of the whole set's
// tokens — order-independent, so extending a state is O(1) whatever order
// its tokens arrived in. It only steers the lookup (32 bits are plenty for
// that); equality is decided by the tokens themselves.
type stateNode struct {
	hash   uint32
	parent StateID
	token  uint32
}

// stateNodeBytes approximates the heap cost of one interned state: its
// node, its share of the at most half-full slot array, and append slack.
// projEntryBytes is the same estimate for one memoised projection. Like
// internEntryOverhead they are budget estimators, linear in the real
// footprint.
const (
	stateNodeBytes = 32
	projEntryBytes = 32
)

// A token is one element of a modification: an atom id and whether it is
// added or deleted.
func addToken(id AtomID) uint32 { return uint32(id) << 1 }
func delToken(id AtomID) uint32 { return uint32(id)<<1 | 1 }

// mixToken is the default token hash: the high half of the splitmix64
// finaliser.
func mixToken(tok uint32) uint32 {
	x := uint64(tok) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return uint32((x ^ x>>31) >> 32)
}

// stateTable hash-conses modifications. A lookup probes an open-addressed
// slot array by the set's hash and accepts a candidate only after checking
// that it is the same set, so a hash collision costs a probe, never an
// identity. It belongs to one Interner and, like it, is single-threaded.
type stateTable struct {
	nodes []stateNode // nodes[id]; nodes[0] is the empty state
	slots []StateID   // power-of-two sized, at most half full; 0 = free
	mix   func(uint32) uint32

	// classes[id] has bit c set when every token of state id is relevant
	// to relevance class c (relevance.go), so that projecting the state
	// onto c is the identity.
	classes []uint8
	// preds[id] is the predicate summary of state id: bit predBit(p) is set
	// for the predicate p of every token, added or deleted, so a clear bit
	// proves the state holds no token of p (State.MayMention).
	preds []uint16

	// proj memoises the projections that are not the identity, by state
	// and relevance class.
	proj map[projKey]StateID
}

type projKey struct {
	state StateID
	class uint8
}

func newStateTable() stateTable {
	return stateTable{nodes: make([]stateNode, 1), mix: mixToken, classes: []uint8{allClasses}, preds: []uint16{0}, proj: map[projKey]StateID{}}
}

// predBit is the bit of a state's predicate summary that stands for
// predicates p, p+16, p+32, …: a summary may admit a predicate it does not
// hold, never miss one it does.
func predBit(p symbols.Pred) uint16 { return 1 << (uint32(p) % 16) }

// memBytes is the table's approximate heap footprint.
func (t *stateTable) memBytes() int64 {
	return stateNodeBytes*int64(len(t.nodes)-1) + projEntryBytes*int64(len(t.proj))
}

// extend returns the id of the parent state plus one token it lacks. want
// is the parent's Delta, against which a candidate reached through another
// parent is verified; when it is nil it is rebuilt from the parent's chain,
// and only if a candidate needs it.
func (t *stateTable) extend(parent StateID, token uint32, want *Delta) StateID {
	h := t.nodes[parent].hash ^ t.mix(token)
	if 2*len(t.nodes) > len(t.slots) {
		t.grow()
	}
	mask := uint32(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		c := t.slots[i]
		if c == 0 {
			id := StateID(len(t.nodes))
			t.nodes = append(t.nodes, stateNode{hash: h, parent: parent, token: token})
			t.slots[i] = id
			return id
		}
		n := &t.nodes[c]
		if n.hash != h {
			continue
		}
		if n.parent == parent && n.token == token {
			return c
		}
		if want == nil {
			d := t.delta(parent)
			want = &d
		}
		if t.same(c, want, token) {
			return c
		}
	}
}

// same reports whether state c is exactly the modification want plus
// token. A chain lists each of its tokens once, so c is that set iff every
// token of c is in it and there are as many of them.
func (t *stateTable) same(c StateID, want *Delta, token uint32) bool {
	n := 0
	for ; c != EmptyStateID; c = t.nodes[c].parent {
		tok := t.nodes[c].token
		var ok bool
		switch {
		case tok == token:
			ok = true
		case tok&1 != 0:
			ok = want.Deleted(AtomID(tok >> 1))
		default:
			ok = want.Has(AtomID(tok >> 1))
		}
		if !ok {
			return false
		}
		n++
	}
	return n == int(want.n)+len(want.dels)+1
}

// inChain reports whether one of the newest n nodes of id's chain carries
// token.
func (t *stateTable) inChain(id StateID, n int32, token uint32) bool {
	nodes := t.nodes
	for ; n > 0; n-- {
		nd := &nodes[id]
		if nd.token == token {
			return true
		}
		id = nd.parent
	}
	return false
}

// grow doubles the slot array and re-threads every node by its stored
// hash.
func (t *stateTable) grow() {
	n := 2 * len(t.slots)
	if n == 0 {
		n = 16
	}
	t.slots = make([]StateID, n)
	mask := uint32(n - 1)
	for id := 1; id < len(t.nodes); id++ {
		i := t.nodes[id].hash & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = StateID(id)
	}
}

// intern returns the id of the modification with the given sorted sets,
// building it token by token from the empty state. It is the path for
// whatever a one-token extension cannot express: a state that lost a
// token (hypothetical deletion retracting an addition, or the reverse)
// and a Delta built outside any State.
func (in *Interner) intern(ids, dels []AtomID) StateID {
	id := EmptyStateID
	for i, a := range ids {
		prefix := sortedDelta(ids[:i], nil)
		id = in.extend(id, addToken(a), &prefix)
	}
	for i, a := range dels {
		prefix := sortedDelta(ids, dels[:i])
		id = in.extend(id, delToken(a), &prefix)
	}
	return id
}

// extend is stateTable.extend that also records a new state's class mask
// — the parent's, less the classes its token is irrelevant to — and its
// predicate summary, the parent's plus its token's predicate.
func (in *Interner) extend(parent StateID, token uint32, want *Delta) StateID {
	t := &in.states
	n := len(t.nodes)
	id := t.extend(parent, token, want)
	if len(t.nodes) > n {
		t.classes = append(t.classes, t.classes[parent]&in.tokenClasses(token))
		t.preds = append(t.preds, t.preds[parent]|predBit(in.atoms[token>>1].pred))
	}
	return id
}

// tokenClasses is the mask of the relevance classes a token is relevant to.
func (in *Interner) tokenClasses(token uint32) uint8 {
	if in.rel == nil {
		return allClasses
	}
	return in.rel.tokenClasses(in.atoms[token>>1].pred)
}

// project returns the id of state id restricted to the tokens relevant to
// class c. It is id itself when the node's mask says every token is, and
// nothing is stored. Otherwise it is the projection of the parent,
// extended by the node's token if that is relevant, memoised; so a chain
// is walked once per class, and only up to its first identity ancestor.
func (in *Interner) project(c uint8, id StateID) StateID {
	t := &in.states
	if t.classes[id]&(1<<c) != 0 {
		return id
	}
	k := projKey{id, c}
	if p, ok := t.proj[k]; ok {
		return p
	}
	n := t.nodes[id]
	p := in.project(c, n.parent)
	if in.tokenClasses(n.token)&(1<<c) != 0 {
		p = in.extend(p, n.token, nil)
	}
	t.proj[k] = p
	return p
}

// delta rebuilds the sorted sets of an interned state from its chain.
func (t *stateTable) delta(id StateID) Delta {
	var ids, dels []AtomID
	for c := id; c != EmptyStateID; c = t.nodes[c].parent {
		a := AtomID(t.nodes[c].token >> 1)
		if t.nodes[c].token&1 != 0 {
			dels = append(dels, a)
		} else {
			ids = append(ids, a)
		}
	}
	slices.Sort(ids)
	slices.Sort(dels)
	d := sortedDelta(ids, dels)
	d.sid = id
	return d
}

// State is a hypothetical database state: a base database plus a delta of
// hypothetically added and deleted atoms. States are values; extending
// the delta gives a new State. The Delta of a State must stay with bases
// over the interner that built it — its id is that interner's.
type State struct {
	Base  *DB
	Delta Delta
}

// NewState returns the state of the unmodified base database.
func NewState(base *DB) State { return State{Base: base} }

// StateParent returns the state that id extends by one token in base's
// interner, that token's atom, and whether the token adds it (false: it
// deletes it). id must not be EmptyStateID.
func StateParent(base *DB, id StateID) (parent StateID, atom AtomID, added bool) {
	n := base.in.states.nodes[id]
	return n.parent, AtomID(n.token >> 1), n.token&1 == 0
}

// ID returns the state's identity within its base's interner. States over
// the same base are equal iff their ids are equal.
func (s State) ID() StateID {
	if s.Delta.sid == uninterned {
		return s.Base.in.intern(s.Delta.IDs(), s.Delta.dels)
	}
	return s.Delta.sid
}

// RelevantID returns the identity of the part of the state a goal of pred
// can read: the state restricted to the tokens relevant to pred's
// relevance class, or the whole state when pred has none. Provability of
// such a goal is a function of this id, so it is an exact tabling key.
func (s State) RelevantID(pred symbols.Pred) StateID {
	id := s.ID()
	if c, ok := s.Base.in.rel.class(pred); ok {
		return s.Base.in.project(c, id)
	}
	return id
}

// MayMention reports whether the state's delta may add or delete an atom of
// pred. False is exact: no token of pred is in the delta, so the state
// holds exactly the base's atoms of pred. True may be a false positive (a
// summary bit is shared by every sixteenth predicate), and a Delta built
// outside any State always answers true.
func (s State) MayMention(pred symbols.Pred) bool {
	if s.Delta.sid == uninterned {
		return true
	}
	return s.Base.in.states.preds[s.Delta.sid]&predBit(pred) != 0
}

// Has reports whether the atom is visible in this state:
// (base ∪ added) \ deleted.
func (s State) Has(id AtomID) bool {
	if s.Delta.Deleted(id) {
		return false
	}
	return s.Base.Has(id) || s.Delta.Has(id)
}

// Add returns the state extended with a hypothetically inserted atom.
//
// The delta is kept canonical relative to the base (added ∩ base = ∅,
// deleted ⊆ base): operations that do not change the visible set return
// the state unchanged, so two states with equal visible sets always have
// equal ids. Without this, a chain of adds and deletes would encode its
// whole history into the identity and the tabling layer would treat
// semantically identical states as distinct.
//
// The new atom joins the tail, which the new state reads from its own
// chain; nothing is copied until the tail is full.
func (s State) Add(id AtomID) State {
	if s.Has(id) {
		return s // already visible: inserting changes nothing
	}
	if s.Base.Has(id) {
		// Visible again once the deletion is retracted; the canonical
		// delta never lists base atoms as added.
		return s.rebuilt(s.Delta.IDs(), removeSorted(s.Delta.dels, id))
	}
	parent := s.ID()
	tok := addToken(id)
	t := &s.Base.in.states
	sid := s.Base.in.extend(parent, tok, &s.Delta)
	d := s.Delta
	if n := t.nodes[sid]; d.tail < tailMax && n.parent == parent && n.token == tok {
		d.tail++
		d.n++
		d.tab = t
	} else {
		// A full tail becomes a run. So does the tail of a state whose
		// id was first interned through another parent: that chain does
		// not list this tail.
		d = d.flushed(id)
	}
	d.sid = sid
	return State{Base: s.Base, Delta: d}
}

// Del returns the state extended with a hypothetically deleted atom;
// see Add for the canonicalisation rules.
func (s State) Del(id AtomID) State {
	if !s.Has(id) {
		return s // already invisible: deleting changes nothing
	}
	if s.Base.Has(id) {
		// The chain gains a deletion above the tail, so the tail becomes
		// a run first.
		d := s.Delta.flushed(NoAtom)
		parent := s.ID()
		d.sid = s.Base.in.extend(parent, delToken(id), &d)
		d.dels = insertSorted(d.dels, id)
		return State{Base: s.Base, Delta: d}
	}
	// A non-base atom disappears by dropping its addition; recording the
	// deletion would bake evaluation history into the identity.
	return s.rebuilt(removeSorted(s.Delta.IDs(), id), s.Delta.dels)
}

// rebuilt is the state with the given sorted sets, which are s's minus
// one token.
func (s State) rebuilt(ids, dels []AtomID) State {
	d := sortedDelta(ids, dels)
	d.sid = s.Base.in.intern(ids, dels)
	return State{Base: s.Base, Delta: d}
}

// Key returns the canonical key of the state's delta, derived from its
// sets on every call; evaluation keys on ID instead.
func (s State) Key() string { return s.Delta.Key() }
