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

// projFixture is a relevance shaped by hand over three token predicates:
// r0 is relevant to classes 0 and 1, r1 to class 1 only, and r2 stands
// outside T (an intensional atom added from outside), so it is kept in
// every projection. Class 2 reads no token of T at all. Goal predicates
// g0..g2 are tabled under classes 0..2.
func projFixture(syms *symbols.Table) (*Relevance, []symbols.Pred) {
	r := []symbols.Pred{syms.Pred("r0", 1), syms.Pred("r1", 1), syms.Pred("r2", 1)}
	g := []symbols.Pred{syms.Pred("g0", 0), syms.Pred("g1", 0), syms.Pred("g2", 0)}
	rel := &Relevance{classOf: make([]uint8, syms.NumPreds()), tokens: make([]uint8, syms.NumPreds())}
	rel.tokens[r[0]], rel.tokens[r[1]], rel.tokens[r[2]] = 1|2, 2, allClasses
	for c, p := range g {
		rel.classOf[p] = uint8(c + 1)
	}
	return rel, g
}

// checkStateProject drives State.Add/Del from an op string as
// checkStateIntern does, over six atoms of r0..r2 (one base fact each),
// and holds every projection of every state reached to its contract:
//
//   - the projection onto class c is the id of the state's (adds, dels)
//     filtered to the tokens relevant to c, interned from scratch;
//   - projecting a projection changes nothing;
//   - a set reached through different token orders projects to one id;
//   - no id names two different sets, projections included;
//   - a state whose tokens are all relevant is its own projection and
//     stores nothing, and MemBytes counts every stored projection.
func checkStateProject(t *testing.T, ops []byte, mix func(uint32) uint32) {
	in, db, syms := newTestDB()
	rel, goals := projFixture(syms)
	in.SetRelevance(rel)
	if mix != nil {
		in.states.mix = mix
	}
	atoms := make([]AtomID, 6)
	for i := range atoms {
		atoms[i] = in.ID(symbols.Pred(i/2), []symbols.Const{syms.Const(string(rune('a' + i)))})
		if i%2 == 0 {
			db.Insert(atoms[i])
		}
	}
	filter := func(ids []AtomID, c int) []AtomID {
		var out []AtomID
		for _, id := range ids {
			if rel.tokenClasses(in.Pred(id))&(1<<c) != 0 {
				out = append(out, id)
			}
		}
		return out
	}
	byID := map[StateID]string{EmptyStateID: ""}
	name := func(i int, id StateID, key string) {
		if other, ok := byID[id]; ok && other != key {
			t.Fatalf("op %d: id %d names both %q and %q", i, id, other, key)
		}
		byID[id] = key
	}
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
		sid := st.ID()
		name(i, sid, st.Key())
		for c, g := range goals {
			stored := len(in.states.proj)
			ids, dels := filter(st.Delta.ids, c), filter(st.Delta.dels, c)
			got := st.RelevantID(g)
			if want := in.intern(ids, dels); got != want {
				t.Fatalf("op %d: class %d projects %v/%v to %d, want %d (%v/%v)", i, c, st.Delta.ids, st.Delta.dels, got, want, ids, dels)
			}
			name(i, got, makeKey(ids, dels))
			if again := in.project(uint8(c), got); again != got {
				t.Fatalf("op %d: class %d projection %d projects again to %d", i, c, got, again)
			}
			if len(ids)+len(dels) == len(st.Delta.ids)+len(st.Delta.dels) {
				if got != sid || len(in.states.proj) != stored {
					t.Fatalf("op %d: class %d reads every token of %d, yet projects to %d storing %d entries", i, c, sid, got, len(in.states.proj)-stored)
				}
			}
		}
	}
	nodes := int64(len(in.states.nodes) - 1)
	if got, want := in.MemBytes(), in.bytes+stateNodeBytes*nodes+projEntryBytes*int64(len(in.states.proj)); got != want {
		t.Fatalf("MemBytes = %d, want %d for %d nodes and %d projections", got, want, nodes, len(in.states.proj))
	}
}

// FuzzStateProject holds relevance projections to their contract on
// arbitrary interleavings of State.Add and State.Del.
func FuzzStateProject(f *testing.F) {
	for _, s := range stateInternSeeds {
		f.Add(s)
	}
	rng := rand.New(rand.NewSource(1989))
	for i := 0; i < 32; i++ {
		s := make([]byte, 64)
		rng.Read(s)
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { checkStateProject(t, ops, nil) })
}

// TestStateProjectSurvivesHashCollisions re-runs the projection contract
// with a constant token hash: a projection reached through another parent
// is told apart from, or matched to, an existing state by its tokens.
func TestStateProjectSurvivesHashCollisions(t *testing.T) {
	constant := func(uint32) uint32 { return 1 }
	for _, s := range stateInternSeeds {
		checkStateProject(t, s, constant)
	}
	rng := rand.New(rand.NewSource(1989))
	for i := 0; i < 200; i++ {
		s := make([]byte, 96)
		rng.Read(s)
		checkStateProject(t, s, constant)
	}
}
