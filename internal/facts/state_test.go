package facts

import (
	"math/rand"
	"testing"

	"hypodatalog/internal/symbols"
)

// checkStateIntern drives State.Add/Del from an op string over six atoms,
// three of them base facts (so no-op adds, undeletes and unadds all occur),
// and holds every state reached to the interning contract, with the derived
// Key as the reference for "same (adds, dels)":
//
//   - equal keys ⇒ equal ids, however the state was reached;
//   - different keys ⇒ different ids;
//   - equal visible sets ⇒ equal ids (canonicalisation against the base);
//   - an id rebuilds to the sets it names.
//
// Each op byte picks an atom (low bits), add or delete (bit 7) and whether
// to restart from the empty state first (bit 6) — restarts are what reach
// one set through different insertion orders. mix, when non-nil, replaces
// the table's token hash.
func checkStateIntern(t *testing.T, ops []byte, mix func(uint32) uint32) {
	in, db, syms := newTestDB()
	if mix != nil {
		in.states.mix = mix
	}
	p := syms.Pred("a", 1)
	atoms := make([]AtomID, 6)
	for i := range atoms {
		atoms[i] = in.ID(p, []symbols.Const{syms.Const(string(rune('a' + i)))})
		if i < 3 {
			db.Insert(atoms[i])
		}
	}
	byKey := map[string]StateID{"": EmptyStateID}
	byID := map[StateID]string{EmptyStateID: ""}
	byVisible := map[string]StateID{}
	st := NewState(db)
	for i, op := range ops {
		if op&0x40 != 0 {
			st = NewState(db)
		}
		if id := atoms[int(op&0x3f)%len(atoms)]; op&0x80 != 0 {
			st = st.Del(id)
		} else {
			st = st.Add(id)
		}
		key, sid := st.Key(), st.ID()
		if want, ok := byKey[key]; ok && want != sid {
			t.Fatalf("op %d: sets %v/%v interned as %d, earlier as %d", i, st.Delta.ids, st.Delta.dels, sid, want)
		}
		if other, ok := byID[sid]; ok && other != key {
			t.Fatalf("op %d: id %d names both %q and %q", i, sid, other, key)
		}
		byKey[key], byID[sid] = sid, key
		visible := ""
		for _, id := range atoms {
			if st.Has(id) {
				visible += "1"
			} else {
				visible += "0"
			}
		}
		if want, ok := byVisible[visible]; ok && want != sid {
			t.Fatalf("op %d: visible set %s has ids %d and %d", i, visible, want, sid)
		}
		byVisible[visible] = sid
		if back := StateAt(db, sid); back.Key() != key || back.ID() != sid {
			t.Fatalf("op %d: id %d rebuilds to %v/%v, want %v/%v", i, sid, back.Delta.ids, back.Delta.dels, st.Delta.ids, st.Delta.dels)
		}
		if sid != EmptyStateID {
			// The parent is the state minus exactly the token StateParent names.
			parent, atom, added := StateParent(db, sid)
			d := StateAt(db, parent).Delta
			if added {
				d.ids = insertSorted(d.ids, atom)
			} else {
				d.dels = insertSorted(d.dels, atom)
			}
			if d.Key() != key {
				t.Fatalf("op %d: id %d is parent %d plus %d (added %v), which is %v/%v", i, sid, parent, atom, added, d.ids, d.dels)
			}
		}
	}
	// Every state seen is charged (a rebuild may intern prefixes on its way
	// that the walk never stood in, so the table can hold a few more).
	nodes := len(in.states.nodes) - 1
	if got, want := in.MemBytes(), in.bytes+stateNodeBytes*int64(nodes); got != want || nodes < len(byID)-1 {
		t.Fatalf("MemBytes = %d with %d nodes for %d states seen, want %d", got, nodes, len(byID)-1, want)
	}
}

// stateInternSeeds are op strings that reach one set by several orders,
// cancel adds against deletes both ways round, and re-add what is visible.
var stateInternSeeds = [][]byte{
	{},
	{3, 4, 5, 0x45, 4, 3, 0x44, 5, 3}, // {d,e,f} in three orders
	{0x80, 0x81, 0x41 | 0x80, 0x80, 3, 0x43, 0x80, 0x81}, // deletions of base atoms, mixed with an add
	{3, 0x83, 0x80, 0, 4, 0x84, 0x80, 3, 0},              // add+del and del+add cancel
	{0, 1, 2, 0x85, 3, 3, 0x80, 0x80},                    // no-ops: visible adds, invisible deletes
	{3, 4, 0x83, 5, 0x44, 5, 0x80, 3, 0x83, 0},           // unadd mid-walk, then the same set directly
}

// FuzzStateIntern holds the state table to the interning contract on
// arbitrary interleavings of State.Add and State.Del; the seed corpus runs
// under plain `go test`.
func FuzzStateIntern(f *testing.F) {
	for _, s := range stateInternSeeds {
		f.Add(s)
	}
	rng := rand.New(rand.NewSource(1989))
	for i := 0; i < 32; i++ {
		s := make([]byte, 64)
		rng.Read(s)
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { checkStateIntern(t, ops, nil) })
}

// TestStateInternSurvivesHashCollisions re-runs the property with a
// constant token hash, so every set of the same parity shares a hash and
// every lookup is decided by verification alone: identity must not depend
// on the hash being good.
func TestStateInternSurvivesHashCollisions(t *testing.T) {
	constant := func(uint32) uint32 { return 1 }
	for _, s := range stateInternSeeds {
		checkStateIntern(t, s, constant)
	}
	rng := rand.New(rand.NewSource(1989))
	for i := 0; i < 200; i++ {
		s := make([]byte, 96)
		rng.Read(s)
		checkStateIntern(t, s, constant)
	}
}

// TestStateOverForeignDelta: a Delta built outside any State (NewDelta, as
// the benchmark's micro-measurement does) is interned when a State over it
// is first asked for its identity, and names the same state as the walk.
func TestStateOverForeignDelta(t *testing.T) {
	in, db, syms := newTestDB()
	p := syms.Pred("a", 1)
	x := in.ID(p, []symbols.Const{syms.Const("x")})
	y := in.ID(p, []symbols.Const{syms.Const("y")})
	walked := NewState(db).Add(x).Add(y)
	foreign := State{Base: db, Delta: NewDelta([]AtomID{y, x})}
	if foreign.ID() != walked.ID() {
		t.Fatalf("foreign delta interned as %d, walked state is %d", foreign.ID(), walked.ID())
	}
	if ext := foreign.Add(x); ext.ID() != walked.ID() {
		t.Fatalf("no-op add on a foreign delta gave %d, want %d", ext.ID(), walked.ID())
	}
	if clone := in.Clone(); clone.MemBytes() != in.MemBytes()-in.states.memBytes() {
		t.Fatalf("Clone carries %d bytes, want the atoms' %d: states must not travel", clone.MemBytes(), in.MemBytes()-in.states.memBytes())
	}
}
