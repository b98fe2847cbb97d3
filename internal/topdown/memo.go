package topdown

import "hypodatalog/internal/facts"

// memo is the engine's (goal, state) result table, indexed by the dense
// StateID of the key's state. A linear proof stands in a chain of states,
// each asked about one goal or a few, so every state gets one inline slot
// for its first goal, held in fixed-size pages that are allocated on first
// touch and never copied; a second or later goal at a state goes to a
// small overflow map. A lookup is then a page index and a slot compare,
// near the slots of the states just visited: a chain's states are interned
// one after another, so their ids, and their slots, are adjacent.
//
// The slot of a state is filled whenever the state has an entry at all:
// the overflow map holds a state's entries only beside a full slot, and
// prune re-seats one into a slot it empties. So an empty slot is a miss
// without a map probe.
type memo struct {
	pages    []*memoPage     // by state >> pageBits; nil until a slot in it is written
	overflow map[uint64]bool // entries beside a full slot, by packKey
	npages   int             // allocated pages
}

const (
	pageBits = 6
	pageSize = 1 << pageBits // slots a page

	// pageBytes is the heap a page takes (8-byte slots), charged when it is
	// allocated; overflowEntryBytes approximates an overflow map entry: an
	// 8-byte key, its value and its share of the map's spare slots.
	pageBytes          = 8 * pageSize
	overflowEntryBytes = 32
)

type memoPage [pageSize]memoSlot

// memoSlot is one state's inline entry; the zero value is empty.
type memoSlot struct {
	goal facts.AtomID
	full bool
	val  bool
}

// packKey is a key's overflow-map form: the state in the high word.
func packKey(k tableKey) uint64 { return uint64(k.state)<<32 | uint64(uint32(k.goal)) }

func unpackKey(p uint64) tableKey {
	return tableKey{goal: facts.AtomID(uint32(p)), state: facts.StateID(p >> 32)}
}

// slot returns the inline slot of a state, or nil when its page has not
// been allocated.
func (m *memo) slot(s facts.StateID) *memoSlot {
	p := int(s >> pageBits)
	if p >= len(m.pages) || m.pages[p] == nil {
		return nil
	}
	return &m.pages[p][s&(pageSize-1)]
}

// get returns the result stored for k, if there is one.
func (m *memo) get(k tableKey) (val, ok bool) {
	s := m.slot(k.state)
	if s == nil || !s.full {
		return false, false
	}
	if s.goal == k.goal {
		return s.val, true
	}
	val, ok = m.overflow[packKey(k)]
	return val, ok
}

// put stores the result for k, replacing any earlier one, and returns the
// entries it added (0 or 1) and the bytes it allocated: a page on its
// first touch, an overflow entry.
func (m *memo) put(k tableKey, val bool) (added int, grown int64) {
	p := int(k.state >> pageBits)
	if p >= len(m.pages) {
		m.pages = append(m.pages, make([]*memoPage, p+1-len(m.pages))...)
	}
	if m.pages[p] == nil {
		m.pages[p] = new(memoPage)
		m.npages++
		grown = pageBytes
	}
	s := &m.pages[p][k.state&(pageSize-1)]
	switch {
	case !s.full:
		*s = memoSlot{goal: k.goal, full: true, val: val}
		added = 1
	case s.goal == k.goal:
		s.val = val
	default:
		if m.overflow == nil {
			m.overflow = map[uint64]bool{}
		}
		n := len(m.overflow)
		m.overflow[packKey(k)] = val
		if len(m.overflow) > n {
			added = 1
			grown += overflowEntryBytes
		}
	}
	return added, grown
}

// prune deletes every entry whose goal drop selects and returns how many
// it deleted and the bytes that freed: the overflow entries and every page
// it leaves with no entry.
func (m *memo) prune(drop func(goal facts.AtomID) bool) (n int, freed int64) {
	before := m.memBytes()
	for key := range m.overflow {
		if drop(unpackKey(key).goal) {
			delete(m.overflow, key)
			n++
		}
	}
	emptied := false
	for _, pg := range m.pages {
		if pg == nil {
			continue
		}
		for i := range pg {
			if s := &pg[i]; s.full && drop(s.goal) {
				*s = memoSlot{}
				n++
				emptied = true
			}
		}
	}
	if emptied {
		// Re-seat: an emptied slot takes one of its state's overflow
		// entries, so that an empty slot still means no entry.
		for key, val := range m.overflow {
			k := unpackKey(key)
			if s := m.slot(k.state); !s.full {
				*s = memoSlot{goal: k.goal, full: true, val: val}
				delete(m.overflow, key)
			}
		}
		for p, pg := range m.pages {
			if pg != nil && *pg == (memoPage{}) {
				m.pages[p] = nil
				m.npages--
			}
		}
	}
	return n, before - m.memBytes()
}

// memBytes is the heap charged for the table: its pages and overflow
// entries.
func (m *memo) memBytes() int64 {
	return pageBytes*int64(m.npages) + overflowEntryBytes*int64(len(m.overflow))
}
