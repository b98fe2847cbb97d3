package topdown

import (
	"math/rand"
	"testing"

	"hypodatalog/internal/facts"
)

// memoStates are the states checkMemo's ops name: dense ids in the first
// page, both sides of the first page boundary, and sparse ids pages past
// it, so that pages are allocated out of order and left unallocated
// between.
var memoStates = []facts.StateID{0, 1, 2, 3, pageSize - 1, pageSize, pageSize + 1, 7*pageSize + 5, 1 << 20}

// checkMemo drives the slot table from an op string and holds it to a
// plain map model after every op. Ops are three bytes: the low two bits of
// the first pick get, put, prune or reset (bit 2 is the value a put
// stores); the second picks a goal of eight, whose predicate is goal % 4;
// the third picks a state of memoStates (a prune uses it as the predicate
// to drop). Every get must agree with the model, the entry count with its
// size, and the bytes put and prune report with what the table charges:
// its pages and its overflow entries. A state's slot is full whenever the
// model holds an entry at that state, and every allocated page holds an
// entry.
func checkMemo(t *testing.T, ops []byte) {
	var m memo
	model := map[tableKey]bool{}
	charged, n := int64(0), 0
	for i := 0; i+2 < len(ops); i += 3 {
		k := tableKey{goal: facts.AtomID(ops[i+1] % 8), state: memoStates[int(ops[i+2])%len(memoStates)]}
		switch ops[i] % 4 {
		case 0:
			v, ok := m.get(k)
			if w, wok := model[k]; v != w || ok != wok {
				t.Fatalf("op %d: get%v = %v, %v; want %v, %v", i/3, k, v, ok, w, wok)
			}
		case 1:
			v := ops[i]&4 != 0
			added, grown := m.put(k, v)
			n += added
			charged += grown
			model[k] = v
		case 2:
			pred := facts.AtomID(ops[i+2] % 4)
			dropped, freed := m.prune(func(g facts.AtomID) bool { return g%4 == pred })
			want := 0
			for mk := range model {
				if mk.goal%4 == pred {
					delete(model, mk)
					want++
				}
			}
			if dropped != want {
				t.Fatalf("op %d: prune of predicate %d dropped %d entries, want %d", i/3, pred, dropped, want)
			}
			n -= dropped
			charged -= freed
		case 3:
			charged -= m.memBytes()
			n -= memoSize(&m)
			m = memo{}
			clear(model)
		}
		if n != len(model) || memoSize(&m) != len(model) {
			t.Fatalf("op %d: put and prune counted %d entries, the table holds %d, want %d", i/3, n, memoSize(&m), len(model))
		}
		if want := pageBytes*int64(m.npages) + overflowEntryBytes*int64(len(m.overflow)); charged != want || m.memBytes() != want {
			t.Fatalf("op %d: charged %d bytes, memBytes %d, want %d for %d pages and %d overflow entries", i/3, charged, m.memBytes(), want, m.npages, len(m.overflow))
		}
		for mk := range model {
			if s := m.slot(mk.state); s == nil || !s.full {
				t.Fatalf("op %d: state %d holds goal %d but its slot is empty", i/3, mk.state, mk.goal)
			}
		}
		pages := 0
		for p, pg := range m.pages {
			if pg == nil {
				continue
			}
			pages++
			if *pg == (memoPage{}) {
				t.Fatalf("op %d: page %d is allocated and holds no entry", i/3, p)
			}
		}
		if pages != m.npages {
			t.Fatalf("op %d: %d pages allocated, npages says %d", i/3, pages, m.npages)
		}
	}
}

// memoSize counts a table's entries: full slots plus overflow.
func memoSize(m *memo) int {
	n := len(m.overflow)
	for _, pg := range m.pages {
		if pg == nil {
			continue
		}
		for i := range pg {
			if pg[i].full {
				n++
			}
		}
	}
	return n
}

// memoSeeds exercise what the slot table adds to a map.
var memoSeeds = [][]byte{
	// Several goals at one state: the first takes the slot, the rest
	// overflow; each reads back, and a put overwrites in place.
	{1, 0, 1, 5, 1, 1, 1, 2, 1, 5, 3, 1, 0, 0, 1, 0, 1, 1, 0, 2, 1, 0, 3, 1, 1, 1, 1, 0, 1, 1, 0, 7, 1},
	// Overflow entries re-seated after their slot is pruned: goal 0 holds
	// the slot, goals 1, 5 and 2 overflow; pruning predicate 0 empties the
	// slot and one overflow entry takes it; pruning predicate 1 then takes
	// two entries, and goal 2 must still be found.
	{1, 0, 2, 5, 1, 2, 1, 5, 2, 5, 2, 2, 2, 0, 0, 0, 0, 2, 0, 1, 2, 0, 5, 2, 0, 2, 2, 2, 0, 1, 0, 2, 2, 1, 4, 2},
	// Sparse state ids past the first page, then a reset and a refill.
	{1, 3, 7, 5, 4, 8, 1, 3, 5, 0, 3, 7, 0, 4, 8, 0, 0, 0, 3, 0, 0, 0, 3, 7, 1, 3, 8, 0, 3, 8, 2, 0, 3, 0, 3, 8},
}

// FuzzMemo holds the state-indexed memo table to a map keyed by the
// (goal, state) pair under get, put, prune by predicate and reset; the
// seed corpus runs under plain `go test`.
func FuzzMemo(f *testing.F) {
	for _, s := range memoSeeds {
		f.Add(s)
	}
	rng := rand.New(rand.NewSource(1989))
	for i := 0; i < 32; i++ {
		s := make([]byte, 3*64)
		rng.Read(s)
		f.Add(s)
	}
	f.Fuzz(checkMemo)
}

// TestEngineTableSizeCountsEntries: the ledger's TableSize counts memo
// entries, not slots or pages, and pruning every predicate returns every
// entry and every byte, the emptied pages' too.
func TestEngineTableSizeCountsEntries(t *testing.T) {
	e, cp := newEngine(t, paritySrc(4), Options{})
	mem := NewMemTracker(0)
	e.budget.Mem = mem
	mem.Begin()
	expect(t, e, cp, "even", true)
	if got, want := e.budget.Stats.TableSize, memoSize(&e.table); got != want || got == 0 {
		t.Fatalf("TableSize = %d, want the %d entries", got, want)
	}
	if got, want := mem.Grown(), e.table.memBytes(); got != want {
		t.Fatalf("tracker grew %d bytes, want the table's %d", got, want)
	}
	e.PruneTable(everyPred(cp))
	if s, g, tb := e.budget.Stats.TableSize, mem.Grown(), e.table.memBytes(); s != 0 || g != 0 || tb != 0 {
		t.Fatalf("after pruning every predicate: TableSize %d, %d bytes still charged, the table's %d; want 0", s, g, tb)
	}
}
