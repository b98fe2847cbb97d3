package facts

import (
	"sort"
	"testing"

	"hypodatalog/internal/symbols"
)

// TestDeltaKeyCollisionRegression pins the unambiguous key encoding down
// with the concrete near-miss pairs from the audit: sorted multi-id adds
// whose concatenations could collide under a naive variable-width or
// separator-free scheme, and pairs that differ only in where the add/del
// boundary falls.
func TestDeltaKeyCollisionRegression(t *testing.T) {
	cases := []struct{ a, b Delta }{
		// adds [1,12] vs [11,2] — same digits, different split.
		{NewDelta([]AtomID{1, 12}), NewDelta([]AtomID{11, 2})},
		// add-vs-del boundary: {adds: 1,2} vs {adds: 1, dels: 2}.
		{NewDelta([]AtomID{1, 2}), sortedDelta([]AtomID{1}, []AtomID{2})},
		// boundary at zero adds: {adds: 1} vs {dels: 1}.
		{NewDelta([]AtomID{1}), sortedDelta(nil, []AtomID{1})},
		// all ids to one side vs split across both.
		{NewDelta([]AtomID{1, 2, 3}), sortedDelta([]AtomID{1, 2}, []AtomID{3})},
		// zero id at the boundary vs in the del section.
		{NewDelta([]AtomID{0}), sortedDelta(nil, []AtomID{0})},
	}
	for i, c := range cases {
		if c.a.Key() == c.b.Key() {
			t.Errorf("case %d: deltas %v/%v and %v/%v share key %q",
				i, c.a.IDs(), c.a.dels, c.b.IDs(), c.b.dels, c.a.Key())
		}
	}
	// Same modification reached in any op order keys identically.
	x := NewDelta([]AtomID{12, 1})
	y := NewDelta([]AtomID{1}).AddAll([]AtomID{12})
	if x.Key() != y.Key() {
		t.Errorf("equal modifications key differently: %q vs %q", x.Key(), y.Key())
	}
	if (Delta{}).Key() != "" {
		t.Errorf("empty delta key = %q, want empty", (Delta{}).Key())
	}
}

func TestDBRemove(t *testing.T) {
	in, db, syms := newTestDB()
	edge := syms.Pred("edge", 2)
	a, b, c := syms.Const("a"), syms.Const("b"), syms.Const("c")
	ab := in.ID(edge, []symbols.Const{a, b})
	ac := in.ID(edge, []symbols.Const{a, c})
	for _, id := range []AtomID{ab, ac} {
		if _, err := db.Insert(id); err != nil {
			t.Fatal(err)
		}
	}
	if !db.Remove(ab) {
		t.Fatal("Remove(ab) reported absent")
	}
	if db.Remove(ab) {
		t.Fatal("double Remove reported present")
	}
	if db.Has(ab) {
		t.Error("removed atom still visible")
	}
	if n := len(db.All()); n != 1 {
		t.Errorf("%d atoms, want 1", n)
	}
	if got := db.ByPred(edge); len(got) != 1 || got[0] != ac {
		t.Errorf("ByPred = %v, want [%v]", got, ac)
	}
	if got := db.ByPredArg(edge, 0, a); len(got) != 1 || got[0] != ac {
		t.Errorf("ByPredArg(0,a) = %v, want [%v]", got, ac)
	}
	if got := db.ByPredArg(edge, 1, b); len(got) != 0 {
		t.Errorf("ByPredArg(1,b) = %v, want empty", got)
	}
	// Re-insert after removal works and re-indexes.
	if ok, err := db.Insert(ab); err != nil || !ok {
		t.Fatalf("re-Insert = %v, %v", ok, err)
	}
	if got := db.ByPredArg(edge, 1, b); len(got) != 1 || got[0] != ab {
		t.Errorf("after re-insert ByPredArg(1,b) = %v", got)
	}
}

// TestDBCloneCopyOnWrite drives the shared-backing-array hazard directly:
// mutations on a clone (or the original) must never become visible
// through the sibling's index slices.
func TestDBCloneCopyOnWrite(t *testing.T) {
	in, db, syms := newTestDB()
	edge := syms.Pred("edge", 2)
	cs := make([]symbols.Const, 6)
	for i, n := range []string{"a", "b", "c", "d", "e", "f"} {
		cs[i] = syms.Const(n)
	}
	ids := make([]AtomID, 0, 4)
	for i := 0; i < 4; i++ {
		id := in.ID(edge, []symbols.Const{cs[0], cs[i+1]})
		ids = append(ids, id)
		if _, err := db.Insert(id); err != nil {
			t.Fatal(err)
		}
	}
	clone := db.CloneFor(db.in)
	// Mutate the clone: remove one atom, insert a new one.
	clone.Remove(ids[1])
	newAtom := in.ID(edge, []symbols.Const{cs[0], cs[5]})
	if _, err := clone.Insert(newAtom); err != nil {
		t.Fatal(err)
	}
	// The original must be untouched.
	if !db.Has(ids[1]) || db.Has(newAtom) || len(db.All()) != 4 {
		t.Fatalf("original DB observed clone mutations: %d atoms", len(db.All()))
	}
	want := append([]AtomID(nil), ids...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	got := append([]AtomID(nil), db.ByPredArg(edge, 0, cs[0])...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != len(want) {
		t.Fatalf("original index = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("original index = %v, want %v", got, want)
		}
	}
	// And the other direction: appending to the original must not leak
	// into the clone's capacity-clipped slices.
	extra := in.ID(edge, []symbols.Const{cs[0], cs[0]})
	if _, err := db.Insert(extra); err != nil {
		t.Fatal(err)
	}
	if clone.Has(extra) {
		t.Error("clone observed original's insert")
	}
	for _, id := range clone.ByPredArg(edge, 0, cs[0]) {
		if id == extra {
			t.Error("clone index leaked original's appended atom")
		}
	}
}

func TestInternerClone(t *testing.T) {
	in, _, syms := newTestDB()
	p := syms.Pred("p", 1)
	a, b := syms.Const("a"), syms.Const("b")
	ida := in.ID(p, []symbols.Const{a})
	clone := in.Clone()
	if len(clone.atoms) != len(in.atoms) {
		t.Fatalf("clone holds %d atoms, want %d", len(clone.atoms), len(in.atoms))
	}
	if got, ok := clone.Lookup(p, []symbols.Const{a}); !ok || got != ida {
		t.Fatalf("clone lost atom: %v %v", got, ok)
	}
	// Interning into the clone must not affect the original.
	idb := clone.ID(p, []symbols.Const{b})
	if _, ok := in.Lookup(p, []symbols.Const{b}); ok {
		t.Error("original observed clone's interning")
	}
	// And vice versa: ids stay consistent per copy.
	idb2 := in.ID(p, []symbols.Const{b})
	if idb != idb2 {
		// Both assigned the next dense id independently — they should
		// agree because the prefix is identical.
		t.Errorf("diverged ids for same atom: clone=%d original=%d", idb, idb2)
	}
}
