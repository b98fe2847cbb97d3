package facts

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"hypodatalog/internal/symbols"
)

// replay rebuilds the state id names by following StateParent to the
// empty state and applying each token again.
func replay(db *DB, id StateID) State {
	if id == EmptyStateID {
		return NewState(db)
	}
	parent, atom, added := StateParent(db, id)
	st := replay(db, parent)
	if added {
		return st.Add(atom)
	}
	return st.Del(atom)
}

// checkStateIntern drives State.Add/Del from an op string over six atoms,
// three of them base facts (so no-op adds, undeletes and unadds all occur),
// and holds every state reached to the interning contract, with the derived
// Key as the reference for "same (adds, dels)":
//
//   - equal keys ⇒ equal ids, however the state was reached;
//   - different keys ⇒ different ids;
//   - equal visible sets ⇒ equal ids (canonicalisation against the base);
//   - replaying an id's StateParent chain reaches the id and its sets.
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
			t.Fatalf("op %d: sets %v/%v interned as %d, earlier as %d", i, st.Delta.IDs(), st.Delta.dels, sid, want)
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
		if back := replay(db, sid); back.Key() != key || back.ID() != sid {
			t.Fatalf("op %d: id %d rebuilds to %v/%v, want %v/%v", i, sid, back.Delta.IDs(), back.Delta.dels, st.Delta.IDs(), st.Delta.dels)
		}
		if sid != EmptyStateID {
			// The parent is the state minus exactly the token StateParent names.
			parent, atom, added := StateParent(db, sid)
			p := replay(db, parent).Delta
			ids, dels := p.IDs(), p.dels
			if added {
				ids = insertSorted(ids, atom)
			} else {
				dels = insertSorted(dels, atom)
			}
			if makeKey(ids, dels) != key {
				t.Fatalf("op %d: id %d is parent %d plus %d (added %v), which is %v/%v", i, sid, parent, atom, added, ids, dels)
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
			ids, dels := filter(st.Delta.IDs(), c), filter(st.Delta.dels, c)
			got := st.RelevantID(g)
			if want := in.intern(ids, dels); got != want {
				t.Fatalf("op %d: class %d projects %v/%v to %d, want %d (%v/%v)", i, c, st.Delta.IDs(), st.Delta.dels, got, want, ids, dels)
			}
			name(i, got, makeKey(ids, dels))
			if again := in.project(uint8(c), got); again != got {
				t.Fatalf("op %d: class %d projection %d projects again to %d", i, c, got, again)
			}
			if len(ids)+len(dels) == len(st.Delta.IDs())+len(st.Delta.dels) {
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

// checkStateHas drives State.Add/Del from an op string over 24 atoms,
// every fourth a base fact, and holds every state reached to a plain set
// model of its (adds, dels): Has and Deleted per atom, Len, the ascending
// walk of Added, Key, and an ID that equal keys share and different keys
// do not. Each op byte picks an atom (low six bits), add or delete (bit 7)
// and whether to restart from the empty state first (bit 6). Eighteen
// non-base atoms are enough for chains two tails long, so the tail, its
// flush into runs, run merges, and deletions above runs all occur.
func checkStateHas(t *testing.T, ops []byte) {
	in, db, syms := newTestDB()
	p := syms.Pred("a", 1)
	atoms := make([]AtomID, 24)
	for i := range atoms {
		atoms[i] = in.ID(p, []symbols.Const{syms.Const(string(rune('a' + i)))})
		if i%4 == 3 {
			db.Insert(atoms[i])
		}
	}
	byKey := map[string]StateID{"": EmptyStateID}
	byID := map[StateID]string{EmptyStateID: ""}
	adds, dels := map[AtomID]bool{}, map[AtomID]bool{}
	st := NewState(db)
	for i, op := range ops {
		if op&0x40 != 0 {
			st = NewState(db)
			clear(adds)
			clear(dels)
		}
		id, del := atoms[int(op&0x3f)%len(atoms)], op&0x80 != 0
		visible := (db.Has(id) && !dels[id]) || adds[id]
		switch {
		case del && visible && db.Has(id):
			dels[id] = true
		case del && visible:
			delete(adds, id)
		case !del && !visible && db.Has(id):
			delete(dels, id)
		case !del && !visible:
			adds[id] = true
		}
		if del {
			st = st.Del(id)
		} else {
			st = st.Add(id)
		}

		var wantAdds, wantDels []AtomID
		for _, a := range atoms {
			if got, want := st.Has(a), (db.Has(a) && !dels[a]) || adds[a]; got != want {
				t.Fatalf("op %d: Has(%d) = %v, want %v", i, a, got, want)
			}
			if st.Delta.Has(a) != adds[a] || st.Delta.Deleted(a) != dels[a] {
				t.Fatalf("op %d: atom %d added %v deleted %v, want %v %v", i, a, st.Delta.Has(a), st.Delta.Deleted(a), adds[a], dels[a])
			}
			if adds[a] {
				wantAdds = append(wantAdds, a)
			}
			if dels[a] {
				wantDels = append(wantDels, a)
			}
		}
		if st.Delta.Len() != len(wantAdds) {
			t.Fatalf("op %d: Len = %d, want %d", i, st.Delta.Len(), len(wantAdds))
		}
		var walked []AtomID
		for it := st.Delta.Added(); ; {
			a, ok := it.Next()
			if !ok {
				break
			}
			walked = append(walked, a)
		}
		if !slices.Equal(walked, wantAdds) {
			t.Fatalf("op %d: Added walks %v, want %v", i, walked, wantAdds)
		}
		key, sid := st.Key(), st.ID()
		if key != makeKey(wantAdds, wantDels) {
			t.Fatalf("op %d: Key names %q, want %v/%v", i, key, wantAdds, wantDels)
		}
		if want, ok := byKey[key]; ok && want != sid {
			t.Fatalf("op %d: %v/%v interned as %d, earlier as %d", i, wantAdds, wantDels, sid, want)
		}
		if other, ok := byID[sid]; ok && other != key {
			t.Fatalf("op %d: id %d names both %q and %q", i, sid, other, key)
		}
		byKey[key], byID[sid] = sid, key
	}
}

// stateHasSeeds walk chains past the tail bound and re-reach their states
// through other parents.
var stateHasSeeds = [][]byte{
	// 0..9 in order, then 9 first: the second walk's tail is flushed at
	// its ninth atom, and its tenth add reaches the state the first walk
	// interned through another parent, whose chain does not list the
	// second walk's atoms.
	{0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 0x40 | 12, 0, 1, 2, 4, 5, 6, 8, 9, 10},
	// Twenty adds, then deletions of base atoms and of added ones.
	{0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17, 18, 20, 21, 22, 0x83, 0x87, 5, 0x80, 0x8c, 7, 0x89, 23},
	// Two walks of one set in opposite orders, with no-op adds between.
	{22, 21, 20, 18, 17, 16, 14, 13, 12, 10, 9, 3, 8, 6, 5, 0x40 | 5, 6, 8, 9, 10, 12, 13, 14, 16, 17, 18, 20, 21, 22},
}

// FuzzStateHas holds the shared-run-plus-tail representation of added
// sets to a plain set model on arbitrary interleavings of State.Add and
// State.Del; the seed corpus runs under plain `go test`.
func FuzzStateHas(f *testing.F) {
	for _, s := range append(stateHasSeeds, stateInternSeeds...) {
		f.Add(s)
	}
	rng := rand.New(rand.NewSource(1989))
	for i := 0; i < 32; i++ {
		s := make([]byte, 96)
		rng.Read(s)
		for j := range s {
			if j%32 != 0 {
				s[j] &^= 0x40 // fewer restarts: longer chains
			}
		}
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { checkStateHas(t, ops) })
}

// checkStatePreds drives State.Add/Del from an op string, as checkStateHas
// does, over 24 atoms of 20 predicates (so r0 and r16 share a summary bit,
// and r1 and r17, …), every fourth a base fact, under a relevance of three
// classes that keep different predicates' tokens. It holds the predicate
// summary of every state reached, and of its projection onto each class,
// to the tokens the state's chain lists: it admits the predicate of every
// added or deleted token, and it is exactly the union of their bits, so
// that it does rule predicates out. Restarts reach one set through another
// parent, deletions of base atoms build deletion chains, and the
// projections are states interned by filtering.
func checkStatePreds(t *testing.T, ops []byte) {
	in, db, syms := newTestDB()
	goals := []symbols.Pred{syms.Pred("g0", 0), syms.Pred("g1", 0), syms.Pred("g2", 0)}
	preds := make([]symbols.Pred, 20)
	for i := range preds {
		preds[i] = syms.Pred(fmt.Sprint("r", i), 1)
	}
	rel := &Relevance{classOf: make([]uint8, syms.NumPreds()), tokens: make([]uint8, syms.NumPreds())}
	for c, g := range goals {
		rel.classOf[g] = uint8(c + 1)
	}
	for i, p := range preds {
		rel.tokens[p] = []uint8{1, 2, 4, 1 | 2, 2 | 4, allClasses}[i%6]
	}
	in.SetRelevance(rel)
	atoms := make([]AtomID, 24)
	for i := range atoms {
		atoms[i] = in.ID(preds[i%len(preds)], []symbols.Const{syms.Const(string(rune('a' + i)))})
		if i%4 == 3 {
			db.Insert(atoms[i])
		}
	}
	check := func(i int, st State) {
		var want uint16
		for id := st.ID(); id != EmptyStateID; {
			parent, atom, _ := StateParent(db, id)
			if p := in.Pred(atom); !st.MayMention(p) {
				t.Fatalf("op %d: state %d holds a token of %s, but its summary misses it", i, st.ID(), syms.PredName(p))
			}
			want |= predBit(in.Pred(atom))
			id = parent
		}
		for _, p := range preds {
			if got := st.MayMention(p); got != (want&predBit(p) != 0) {
				t.Fatalf("op %d: state %d MayMention(%s) = %v, want %v", i, st.ID(), syms.PredName(p), got, !got)
			}
		}
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
		check(i, st)
		for _, g := range goals {
			check(i, replay(db, st.RelevantID(g)))
		}
	}
}

// FuzzStatePreds holds the predicate summary to the tokens of every state
// and projection on arbitrary interleavings of State.Add and State.Del;
// the seed corpus runs under plain `go test`.
func FuzzStatePreds(f *testing.F) {
	for _, s := range append(stateHasSeeds, stateInternSeeds...) {
		f.Add(s)
	}
	rng := rand.New(rand.NewSource(1989))
	for i := 0; i < 32; i++ {
		s := make([]byte, 96)
		rng.Read(s)
		f.Add(s)
	}
	f.Fuzz(checkStatePreds)
}

// TestStatePredsOfUninterned: a Delta built outside any State carries no
// summary, so it admits every predicate; the empty state admits none.
func TestStatePredsOfUninterned(t *testing.T) {
	in, db, syms := newTestDB()
	p, q := syms.Pred("p", 1), syms.Pred("q", 1)
	a := in.ID(p, []symbols.Const{syms.Const("a")})
	if st := NewState(db); st.MayMention(p) || st.MayMention(q) {
		t.Fatal("the empty state admits a predicate")
	}
	if st := (State{Base: db, Delta: NewDelta([]AtomID{a})}); !st.MayMention(p) || !st.MayMention(q) {
		t.Fatal("an uninterned delta rules a predicate out")
	}
}

// chainAddBytes is the heap a walk of State.Add along an n-atom chain
// allocates once the chain's states are interned, averaged over a few
// walks: what the added sets cost, the state table's growth aside.
func chainAddBytes(n int) uint64 {
	in, db, syms := newTestDB()
	p := syms.Pred("c", 1)
	atoms := make([]AtomID, n)
	for i := range atoms {
		atoms[i] = in.ID(p, []symbols.Const{syms.Const(fmt.Sprint(i))})
	}
	walk := func() State {
		st := NewState(db)
		for _, id := range atoms {
			st = st.Add(id)
		}
		return st
	}
	walk()
	const walks = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < walks; i++ {
		walk()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / walks
}

// TestStateAddChainBytes pins that a chain of hypothetical adds shares its
// added sets: doubling the chain from 256 to 512 atoms must not quadruple
// the bytes State.Add allocates, as copying the whole sorted set on every
// add did (140 KB → 559 KB); runs merged as a binary counter copy each
// atom O(log n) times (7 KB → 19 KB).
func TestStateAddChainBytes(t *testing.T) {
	b256, b512 := chainAddBytes(256), chainAddBytes(512)
	if b512 > 3*b256 || b512 > 32<<10 {
		t.Fatalf("a 512-atom chain allocates %d B, a 256-atom one %d B: want under 3× and 32 KB", b512, b256)
	}
}

// TestStateScanAllocatesNothing: reading a state whose added set has runs
// and a tail — Has, Deleted, Len and the Added walk — allocates nothing.
func TestStateScanAllocatesNothing(t *testing.T) {
	in, db, syms := newTestDB()
	p := syms.Pred("c", 1)
	st := NewState(db)
	for i := 0; i < 4*(tailMax+1)+3; i++ {
		st = st.Add(in.ID(p, []symbols.Const{syms.Const(fmt.Sprint(i))}))
	}
	if st.Delta.tail == 0 || st.Delta.runs == nil || st.Delta.runs.older == nil {
		t.Fatalf("state has tail %d and runs %v: want a tail and two runs", st.Delta.tail, st.Delta.runs)
	}
	probe := in.ID(p, []symbols.Const{syms.Const("0")})
	var sum AtomID
	allocs := testing.AllocsPerRun(100, func() {
		if !st.Has(probe) || st.Delta.Deleted(probe) || st.Delta.Len() == 0 {
			t.Fatal("probe not visible")
		}
		for it := st.Delta.Added(); ; {
			id, ok := it.Next()
			if !ok {
				break
			}
			sum += id
		}
	})
	if allocs != 0 {
		t.Fatalf("Has and an Added walk allocate %v times per run, want 0", allocs)
	}
}

// TestStateAddedManyRuns: a state of 795 atoms added in shuffled order
// holds five runs (495, 189, 72, 27 and 9 atoms), more than Added keeps
// cursors for, and a tail; it still walks its added set in ascending
// order and answers Has for every atom.
func TestStateAddedManyRuns(t *testing.T) {
	in, db, syms := newTestDB()
	p := syms.Pred("c", 1)
	const n = 795
	atoms := make([]AtomID, n+3)
	for i := range atoms {
		atoms[i] = in.ID(p, []symbols.Const{syms.Const(fmt.Sprint(i))})
	}
	absent := atoms[n:]
	atoms = atoms[:n]
	rand.New(rand.NewSource(1989)).Shuffle(len(atoms), func(i, j int) { atoms[i], atoms[j] = atoms[j], atoms[i] })
	st := NewState(db)
	for _, id := range atoms {
		st = st.Add(id)
	}
	runs := 0
	for r := st.Delta.runs; r != nil; r = r.older {
		runs++
	}
	if runs <= cursors || st.Delta.tail == 0 {
		t.Fatalf("state has %d runs and tail %d: want more than %d runs and a tail", runs, st.Delta.tail, cursors)
	}
	want := slices.Clone(atoms)
	slices.Sort(want)
	var walked []AtomID
	for it := st.Delta.Added(); ; {
		a, ok := it.Next()
		if !ok {
			break
		}
		walked = append(walked, a)
	}
	if !slices.Equal(walked, want) {
		t.Fatalf("Added walks %d atoms, want the %d sorted", len(walked), len(want))
	}
	for _, a := range atoms {
		if !st.Has(a) {
			t.Fatalf("Has(%d) = false for an added atom", a)
		}
	}
	for _, a := range absent {
		if st.Has(a) {
			t.Fatalf("Has(%d) = true for an atom never added", a)
		}
	}
}
