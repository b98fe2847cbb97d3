package facts

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/symbols"
)

// matchFixture is two binary predicates over c0..c3, every atom of them
// interned, and a fifth constant c4 that no atom mentions, so a pattern
// naming it matches nothing and a fully bound one misses Lookup.
type matchFixture struct {
	in       *Interner
	preds    []symbols.Pred
	consts   []symbols.Const
	atoms    []AtomID // p's 16 atoms, then q's
	patterns []ast.CAtom
}

func newMatchFixture() (*matchFixture, *DB) {
	in, db, syms := newTestDB()
	f := &matchFixture{in: in, preds: []symbols.Pred{syms.Pred("p", 2), syms.Pred("q", 2)}}
	for i := 0; i < 5; i++ {
		f.consts = append(f.consts, syms.Const(fmt.Sprint("c", i)))
	}
	for _, p := range f.preds {
		for _, a := range f.consts[:4] {
			for _, b := range f.consts[:4] {
				f.atoms = append(f.atoms, in.ID(p, []symbols.Const{a, b}))
			}
		}
	}
	// Every pattern of either predicate over X, Y, c0, c2 and c4: repeated
	// variables (p(X, X)), constants, a constant nothing mentions, and
	// fully ground ones.
	terms := []ast.CTerm{ast.CVar(0), ast.CVar(1), ast.CConst(f.consts[0]), ast.CConst(f.consts[2]), ast.CConst(f.consts[4])}
	for _, p := range f.preds {
		for _, s := range terms {
			for _, t := range terms {
				f.patterns = append(f.patterns, ast.CAtom{Pred: p, Args: []ast.CTerm{s, t}})
			}
		}
	}
	return f, db
}

// checkMatch builds a base from the input's first four bytes — bit i of
// the first two inserts atoms 2i and 2i+1, bit i of the next two removes
// atom 2i again — and walks states from its op bytes as checkStateHas
// does: each op picks an atom (low five bits), add or delete (bit 7), and
// whether to restart from the empty state first (bit 6). In every state
// reached, every pattern under every binding of X (unbound, c0, c3) must
// match exactly the instances brute force finds — every free slot ranged
// over the constants, each instance kept when the state has it — each
// once, and leave the binding as it found it. An Index of the state's
// atoms must match the same instances.
func checkMatch(t *testing.T, data []byte) {
	f, db := newMatchFixture()
	for len(data) < 4 {
		data = append(data, 0)
	}
	ins, rem := uint32(data[0])|uint32(data[1])<<8, uint32(data[2])|uint32(data[3])<<8
	for i := 0; i < 16; i++ {
		if ins&(1<<i) != 0 {
			db.Insert(f.atoms[2*i])
			db.Insert(f.atoms[2*i+1])
		}
		if rem&(1<<i) != 0 {
			db.Remove(f.atoms[2*i])
		}
	}
	st := NewState(db)
	f.checkState(t, "base", st)
	for i, op := range data[4:] {
		if op&0x40 != 0 {
			st = NewState(db)
		}
		if id := f.atoms[int(op&0x1f)]; op&0x80 != 0 {
			st = st.Del(id)
		} else {
			st = st.Add(id)
		}
		f.checkState(t, fmt.Sprint("op ", i), st)
	}
}

func (f *matchFixture) checkState(t *testing.T, at string, st State) {
	x := make(Index)
	for _, id := range f.atoms {
		if st.Has(id) {
			x.Add(f.in, id)
		}
	}
	for _, pattern := range f.patterns {
		for _, x0 := range []symbols.Const{ast.Unbound, f.consts[0], f.consts[3]} {
			binding := []symbols.Const{x0, ast.Unbound}
			want := f.bruteForce(st, pattern, binding)
			got, n, err := collect(binding, func(yield func() error) (int, error) {
				return Match(st, pattern, binding, yield)
			})
			if err != nil || !slices.Equal(got, want) || n < len(got) {
				t.Fatalf("%s: Match(%s, X=%d) = %v (%d tried, err %v), want %v in state %s",
					at, f.format(pattern), x0, got, n, err, want, st.Key())
			}
			if got, _, _ := collect(binding, func(yield func() error) (int, error) {
				return x.Match(f.in, pattern, binding, yield)
			}); !slices.Equal(got, want) {
				t.Fatalf("%s: Index.Match(%s, X=%d) = %v, want %v", at, f.format(pattern), x0, got, want)
			}
			if binding[0] != x0 || binding[1] != ast.Unbound {
				t.Fatalf("%s: Match(%s) left binding %v, want [%d -1]", at, f.format(pattern), binding, x0)
			}
		}
	}
}

// collect runs a match, recording each binding it yields, sorted.
func collect(binding []symbols.Const, match func(func() error) (int, error)) ([][2]symbols.Const, int, error) {
	var got [][2]symbols.Const
	n, err := match(func() error {
		got = append(got, [2]symbols.Const{binding[0], binding[1]})
		return nil
	})
	slices.SortFunc(got, cmpPair)
	return got, n, err
}

// bruteForce ranges the pattern's free slots over every constant and
// keeps each instance the state has: the sorted bindings a match must
// yield, each once.
func (f *matchFixture) bruteForce(st State, pattern ast.CAtom, binding []symbols.Const) [][2]symbols.Const {
	var out [][2]symbols.Const
	var free []int
	for _, t := range pattern.Args {
		if t.IsVar() && binding[t.VarSlot()] == ast.Unbound && !slices.Contains(free, t.VarSlot()) {
			free = append(free, t.VarSlot())
		}
	}
	b := slices.Clone(binding)
	var rec func(int)
	rec = func(i int) {
		if i < len(free) {
			for _, c := range f.consts {
				b[free[i]] = c
				rec(i + 1)
			}
			return
		}
		args := make([]symbols.Const, len(pattern.Args))
		for j, t := range pattern.Args {
			if t.IsVar() {
				args[j] = b[t.VarSlot()]
			} else {
				args[j] = t.ConstID()
			}
		}
		if id, ok := f.in.Lookup(pattern.Pred, args); ok && st.Has(id) {
			out = append(out, [2]symbols.Const{b[0], b[1]})
		}
	}
	rec(0)
	slices.SortFunc(out, cmpPair)
	return out
}

func cmpPair(a, b [2]symbols.Const) int {
	if a[0] != b[0] {
		return int(a[0] - b[0])
	}
	return int(a[1] - b[1])
}

func (f *matchFixture) format(a ast.CAtom) string {
	s := f.in.Syms().PredName(a.Pred) + "("
	for i, t := range a.Args {
		if i > 0 {
			s += ", "
		}
		if t.IsVar() {
			s += string(rune('X' + t.VarSlot()))
		} else {
			s += f.in.Syms().ConstName(t.ConstID())
		}
	}
	return s + ")"
}

// matchSeeds cover a state that adds and deletes, re-adds a deleted base
// atom, and walks past the tail bound so its additions sit in runs.
var matchSeeds = [][]byte{
	// Base p(c0, c0) … p(c1, c3); delete base p(c0, c0), add p(c3, c3),
	// then re-add the deleted atom.
	{0x0f, 0x00, 0x00, 0x00, 0x80, 15, 0},
	// A base with removals; adds of both predicates past the tail bound,
	// deletions of added and base atoms, a restart.
	{0xaa, 0x55, 0x0a, 0x01, 1, 3, 5, 7, 9, 11, 13, 17, 19, 21, 23, 25, 0x81, 0x80, 0x82, 27, 0x40 | 2, 2, 0x82, 2},
	// Empty base, every atom added, then half deleted again.
	{0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 0x80, 0x82, 0x84, 0x86, 0x88},
}

// FuzzMatch holds facts.Match, and Index.Match over an index of the same
// atoms, to brute force over random bases and states; the seed corpus
// runs under plain `go test`.
func FuzzMatch(f *testing.F) {
	for _, s := range matchSeeds {
		f.Add(s)
	}
	rng := rand.New(rand.NewSource(1989))
	for i := 0; i < 16; i++ {
		s := make([]byte, 40)
		rng.Read(s)
		f.Add(s)
	}
	f.Fuzz(checkMatch)
}
