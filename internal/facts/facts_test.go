package facts

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"hypodatalog/internal/symbols"
)

func newTestDB() (*Interner, *DB, *symbols.Table) {
	syms := symbols.NewTable()
	in := NewInterner(syms)
	return in, NewDB(in), syms
}

func TestInternerRoundTrip(t *testing.T) {
	in, _, syms := newTestDB()
	p := syms.Pred("edge", 2)
	a := syms.Const("a")
	b := syms.Const("b")
	id1 := in.ID(p, []symbols.Const{a, b})
	id2 := in.ID(p, []symbols.Const{a, b})
	if id1 != id2 {
		t.Fatal("same atom interned twice")
	}
	id3 := in.ID(p, []symbols.Const{b, a})
	if id3 == id1 {
		t.Fatal("different atoms share an id")
	}
	if in.Pred(id1) != p {
		t.Error("wrong pred")
	}
	if got := in.Args(id1); got[0] != a || got[1] != b {
		t.Error("wrong args")
	}
	if in.Format(id1) != "edge(a, b)" {
		t.Errorf("Format = %q", in.Format(id1))
	}
	if _, ok := in.Lookup(p, []symbols.Const{a, a}); ok {
		t.Error("lookup invented an atom")
	}
	if len(in.atoms) != 2 {
		t.Errorf("interned %d atoms", len(in.atoms))
	}
}

func TestZeroArityAtom(t *testing.T) {
	in, _, syms := newTestDB()
	p := syms.Pred("yes", 0)
	id := in.ID(p, nil)
	if in.Format(id) != "yes" {
		t.Errorf("Format = %q", in.Format(id))
	}
}

func TestDBIndexes(t *testing.T) {
	in, db, syms := newTestDB()
	edge := syms.Pred("edge", 2)
	consts := make([]symbols.Const, 5)
	for i := range consts {
		consts[i] = syms.Const(string(rune('a' + i)))
	}
	// Chain a->b->c->d->e.
	for i := 0; i+1 < len(consts); i++ {
		db.Insert(in.ID(edge, []symbols.Const{consts[i], consts[i+1]}))
	}
	if n := len(db.All()); n != 4 {
		t.Fatalf("%d atoms", n)
	}
	if got := db.ByPredArg(edge, 0, consts[1]); len(got) != 1 {
		t.Errorf("index pos0=b: %d atoms", len(got))
	}
	if got := db.ByPredArg(edge, 1, consts[1]); len(got) != 1 {
		t.Errorf("index pos1=b: %d atoms", len(got))
	}
	if got := db.ByPred(edge); len(got) != 4 {
		t.Errorf("ByPred: %d", len(got))
	}
	// Duplicate insert is a no-op.
	if added, err := db.Insert(in.ID(edge, []symbols.Const{consts[0], consts[1]})); err != nil || added {
		t.Errorf("duplicate insert: added=%v err=%v", added, err)
	}
	clone := db.CloneFor(db.in)
	clone.Insert(in.ID(edge, []symbols.Const{consts[4], consts[0]}))
	if len(db.All()) == len(clone.All()) {
		t.Error("clone shares storage")
	}
}

// TestInsertRejectsArityMismatch: the interner happily assigns an id to
// edge(a) even when edge was declared with arity 2; Insert must refuse to
// index it rather than corrupt the per-argument indexes.
func TestInsertRejectsArityMismatch(t *testing.T) {
	in, db, syms := newTestDB()
	edge := syms.Pred("edge", 2)
	a, b := syms.Const("a"), syms.Const("b")
	if _, err := db.Insert(in.ID(edge, []symbols.Const{a, b})); err != nil {
		t.Fatalf("well-formed insert failed: %v", err)
	}
	bad := in.ID(edge, []symbols.Const{a}) // one arg on a 2-ary predicate
	added, err := db.Insert(bad)
	if err == nil {
		t.Fatal("arity-mismatched insert succeeded")
	}
	if added {
		t.Fatal("arity-mismatched insert reported as added")
	}
	if db.Has(bad) {
		t.Fatal("arity-mismatched atom visible in the DB")
	}
	if n := len(db.All()); n != 1 {
		t.Fatalf("%d atoms after rejected insert, want 1", n)
	}
	if got := db.ByPred(edge); len(got) != 1 {
		t.Fatalf("ByPred lists %d atoms after rejected insert, want 1", len(got))
	}
}

func TestDeltaBasics(t *testing.T) {
	var d Delta
	if d.Len() != 0 || d.Key() != "" {
		t.Fatal("empty delta not empty")
	}
	d1 := d.Add(5)
	d2 := d1.Add(3)
	d3 := d2.Add(5) // duplicate
	if d3.Len() != 2 {
		t.Fatalf("Len = %d", d3.Len())
	}
	if !d3.Has(3) || !d3.Has(5) || d3.Has(4) {
		t.Error("membership wrong")
	}
	// Original deltas untouched.
	if d1.Len() != 1 || d.Len() != 0 {
		t.Error("immutability violated")
	}
	// Same set, same key, regardless of insertion order.
	other := Delta{}.Add(3).Add(5)
	if other.Key() != d3.Key() {
		t.Error("keys differ for equal sets")
	}
}

// TestDeltaSetSemantics is a property test: a Delta built by any sequence
// of Adds behaves exactly like a set, and equal sets have equal keys.
func TestDeltaSetSemantics(t *testing.T) {
	f := func(ids []uint8, probe uint8) bool {
		var d Delta
		set := map[AtomID]bool{}
		for _, x := range ids {
			d = d.Add(AtomID(x))
			set[AtomID(x)] = true
		}
		if d.Len() != len(set) {
			return false
		}
		if d.Has(AtomID(probe)) != set[AtomID(probe)] {
			return false
		}
		// Shuffled insertion gives the same key.
		shuffled := append([]uint8(nil), ids...)
		rand.New(rand.NewSource(int64(len(ids)))).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		var d2 Delta
		for _, x := range shuffled {
			d2 = d2.Add(AtomID(x))
		}
		if d2.Key() != d.Key() {
			return false
		}
		// IDs are sorted and unique.
		got := d.IDs()
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i] == got[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaKeyInjective: distinct sets always get distinct keys (the
// tabling layer depends on this being exact, not probabilistic).
func TestDeltaKeyInjective(t *testing.T) {
	f := func(a, b []uint8) bool {
		var da, db Delta
		sa, sb := map[uint8]bool{}, map[uint8]bool{}
		for _, x := range a {
			da = da.Add(AtomID(x))
			sa[x] = true
		}
		for _, x := range b {
			db = db.Add(AtomID(x))
			sb[x] = true
		}
		equalSets := len(sa) == len(sb)
		if equalSets {
			for x := range sa {
				if !sb[x] {
					equalSets = false
					break
				}
			}
		}
		return (da.Key() == db.Key()) == equalSets
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestStateCanonicalisation: the visible set determines the state key —
// histories of no-op adds/deletes never leak into it.
func TestStateCanonicalisation(t *testing.T) {
	in, db, syms := newTestDB()
	p := syms.Pred("tok", 1)
	mk := func(name string) AtomID {
		return in.ID(p, []symbols.Const{syms.Const(name)})
	}
	base := mk("b")
	x, y := mk("x"), mk("y")
	db.Insert(base)
	st := NewState(db)

	// Adding a visible atom is a no-op.
	if st.Add(base).Key() != st.Key() {
		t.Error("adding a base atom changed the key")
	}
	// Deleting an invisible atom is a no-op.
	if st.Del(x).Key() != st.Key() {
		t.Error("deleting an absent atom changed the key")
	}
	// Add x then delete it: back to the original state.
	if st.Add(x).Del(x).Key() != st.Key() {
		t.Error("add+del of a fresh atom did not cancel")
	}
	// Delete base then re-add it: back to the original state.
	if st.Del(base).Add(base).Key() != st.Key() {
		t.Error("del+add of a base atom did not cancel")
	}
	// Token-game walk: histories with equal visible sets share a key.
	walk1 := st.Add(x).Del(x).Add(y) // via x
	walk2 := st.Add(y)               // direct
	if walk1.Key() != walk2.Key() {
		t.Errorf("equal visible sets, different keys: %q vs %q", walk1.Key(), walk2.Key())
	}
}

// TestStateVisibleSetDeterminesKey is the property-test version over
// random operation sequences.
func TestStateVisibleSetDeterminesKey(t *testing.T) {
	in, db, syms := newTestDB()
	p := syms.Pred("a", 1)
	atoms := make([]AtomID, 6)
	for i := range atoms {
		atoms[i] = in.ID(p, []symbols.Const{syms.Const(string(rune('a' + i)))})
		if i < 3 {
			db.Insert(atoms[i]) // first three are base facts
		}
	}
	visible := func(st State) string {
		out := ""
		for _, id := range atoms {
			if st.Has(id) {
				out += "1"
			} else {
				out += "0"
			}
		}
		return out
	}
	f := func(ops []uint8) bool {
		st := NewState(db)
		seen := map[string]string{} // visible set -> key
		for _, op := range ops {
			id := atoms[int(op)%len(atoms)]
			if op&0x80 != 0 {
				st = st.Del(id)
			} else {
				st = st.Add(id)
			}
			v := visible(st)
			if prev, ok := seen[v]; ok {
				if prev != st.Key() {
					return false
				}
			} else {
				seen[v] = st.Key()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStateVisibility(t *testing.T) {
	in, db, syms := newTestDB()
	p := syms.Pred("p", 1)
	a := in.ID(p, []symbols.Const{syms.Const("a")})
	b := in.ID(p, []symbols.Const{syms.Const("b")})
	db.Insert(a)
	st := NewState(db)
	if !st.Has(a) || st.Has(b) {
		t.Fatal("base visibility wrong")
	}
	st2 := st.Add(b)
	if !st2.Has(b) || st.Has(b) {
		t.Fatal("delta visibility wrong")
	}
	st3 := st.Add(a).Add(b)
	if st3.Key() != st2.Key() {
		// a is already in base but Add records it in the delta too;
		// the keys then differ, which is fine — different deltas.
		if !st3.Has(a) || !st3.Has(b) {
			t.Fatal("Add lost atoms")
		}
	}
}
