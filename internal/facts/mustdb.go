package facts

import (
	"errors"
	"slices"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/symbols"
)

// predKeys is what the keying stage knows of one predicate's must-add
// sets (Relevance doc): its static set and, for a goal whose set the data
// can widen, what computing that set reads.
type predKeys struct {
	must []uint64 // M(p) as a bit set over U; nil for ∅

	// reads is non-zero for a data-determined predicate: the summary bits
	// (predBit) of the rule-invariant predicates that computing M_DB of
	// one of its goals may match. A state that may mention none of them
	// is normalised by M_DB as well.
	reads uint16

	invariant bool // extensional, and no rule adds or deletes an atom of it
	addable   bool // extensional, and some rule adds an atom of it
}

// markData fills the keys' data-determined parts. A predicate is
// data-determined when it is intensional, has a hypothetical premise but
// no [del:] in its cone, and has a rule one of whose [add:] atoms is a
// non-ground extensional atom every variable of which the rule's plain
// premises over rule-invariant predicates bind: Example 5's
// ap(X) :- next(X, Y), ap(Y)[add: marker(Y)]. Its reads are the
// rule-invariant predicates of the plain premises in the rules of the
// data-determined predicates in its cone, the ones a computation can
// match.
func (r *Relevance) markData(cp *ast.CProgram, del, hyp []bool) {
	n := len(r.keys)
	added, deleted := make([]bool, n), make([]bool, n)
	for _, rule := range cp.Rules {
		for _, pr := range rule.Body {
			for _, a := range pr.Adds {
				added[a.Pred] = true
			}
			for _, a := range pr.Dels {
				deleted[a.Pred] = true
			}
		}
	}
	for p := range r.keys {
		ext := !cp.IDB[symbols.Pred(p)]
		r.keys[p].invariant = ext && !added[p] && !deleted[p]
		r.keys[p].addable = ext && added[p]
	}
	own := map[symbols.Pred]uint16{} // the data-determined predicates, to their own rules' reads
	for p := range r.keys {
		if !cp.IDB[symbols.Pred(p)] || del[p] || !hyp[p] {
			continue
		}
		var reads uint16
		bound := false
		for _, ri := range cp.ByHead[symbols.Pred(p)] {
			rule := &cp.Rules[ri]
			inv := make([]bool, rule.NumVars) // slots a rule-invariant premise binds
			for _, pr := range rule.Body {
				if pr.Kind == ast.Plain && r.keys[pr.Atom.Pred].invariant {
					reads |= predBit(pr.Atom.Pred)
					for _, t := range pr.Atom.Args {
						if t.IsVar() {
							inv[t.VarSlot()] = true
						}
					}
				}
			}
			for _, pr := range rule.Body {
				for _, a := range pr.Adds {
					if r.keys[a.Pred].addable && !a.IsGround() && boundBy(a, inv) {
						bound = true
					}
				}
			}
		}
		if bound {
			own[symbols.Pred(p)] = reads
		}
	}
	for p := range own {
		for q, reads := range own {
			if r.cones[p][q/64]>>(q%64)&1 != 0 {
				r.keys[p].reads |= reads
			}
		}
	}
}

// boundBy reports whether every variable of a is one of the slots set.
func boundBy(a ast.CAtom, set []bool) bool {
	for _, t := range a.Args {
		if t.IsVar() && !set[t.VarSlot()] {
			return false
		}
	}
	return true
}

// MustDB memoises the data-determined must-add sets of one engine's
// ground goals, M_DB(g), at its base database's current facts (DESIGN §3,
// "Data-determined must-add sets"). Each is computed the first time a
// state is normalised for its goal, and a commit drops the ones its cone
// touches (Prune). The zero value is empty and ready; like the engine
// that holds it, a MustDB is not safe for concurrent use.
type MustDB struct {
	sets   map[AtomID]dbSet       // M_DB(g), by goal
	static map[symbols.Pred]dbSet // M(p) as atom ids, by predicate: the rules alone fix it
	bytes  int64                  // the sets' approximate heap footprint
	run    mustRun                // scratch of a computation
}

// dbEntryBytes approximates one memoised set's fixed heap cost beyond its
// 4-byte atoms: its map entry, slice header and allocator slack. Like the
// other estimators it is linear in the real footprint.
const dbEntryBytes = 64

// MemBytes is the memo's approximate heap footprint.
func (m *MustDB) MemBytes() int64 { return m.bytes }

// Prune drops the sets of goals whose predicate is in a commit's
// affected cone (Relevance.Affected), and returns the bytes it freed.
// Every rule-invariant predicate a goal's computation matched is in its
// predicate's cone, so the sets it keeps read nothing the commit changed.
func (m *MustDB) Prune(in *Interner, cone map[symbols.Pred]bool) int64 {
	freed := int64(0)
	for g, set := range m.sets {
		if cone[in.Pred(g)] {
			delete(m.sets, g)
			freed += dbEntryBytes + 4*int64(len(set.atoms))
		}
	}
	m.bytes -= freed
	return freed
}

func (m *MustDB) store(g AtomID, set dbSet) {
	if m.sets == nil {
		m.sets = map[AtomID]dbSet{}
	}
	m.sets[g] = set
	m.bytes += dbEntryBytes + 4*int64(len(set.atoms))
}

// of returns M_DB(goal) over db, computing it if it is not memoised.
func (m *MustDB) of(db *DB, goal AtomID) dbSet {
	if set, ok := m.sets[goal]; ok {
		return set
	}
	m.run.compute(m, db, goal)
	return m.sets[goal]
}

// staticOf returns M(pred) as a set of atom ids.
func (m *MustDB) staticOf(in *Interner, pred symbols.Pred) dbSet {
	bits := in.rel.mustAdd(pred)
	if bits == nil {
		return dbSet{}
	}
	if set, ok := m.static[pred]; ok {
		return set
	}
	var ids []AtomID
	for b, a := range in.rel.u {
		if bits[b/64]>>(b%64)&1 != 0 {
			ids = append(ids, in.Ground(a, nil))
		}
	}
	slices.Sort(ids)
	if m.static == nil {
		m.static = map[symbols.Pred]dbSet{}
	}
	m.static[pred] = dbSet{atoms: ids}
	m.bytes += dbEntryBytes + 4*int64(len(ids))
	return m.static[pred]
}

// dbSet is a set of extensional atoms: the sorted ids, or, when top, every
// atom of an addable predicate (the greatest fixpoint's starting point,
// and the set of a goal that no state can prove, or every one can).
// Sets are never mutated once built, so they share their slices.
type dbSet struct {
	top   bool
	atoms []AtomID
}

func (a dbSet) isEmpty() bool { return !a.top && len(a.atoms) == 0 }

func (a dbSet) equal(b dbSet) bool { return a.top == b.top && slices.Equal(a.atoms, b.atoms) }

// has reports whether the atom id is in the set.
func (a dbSet) has(in *Interner, id AtomID) bool {
	if a.top {
		return in.rel.keysOf(in.atoms[id].pred).addable
	}
	_, ok := slices.BinarySearch(a.atoms, id)
	return ok
}

// meet is the intersection of two sets.
func (a dbSet) meet(b dbSet) dbSet {
	switch {
	case a.top:
		return b
	case b.top:
		return a
	}
	var out []AtomID
	for i, j := 0, 0; i < len(a.atoms) && j < len(b.atoms); {
		switch x, y := a.atoms[i], b.atoms[j]; {
		case x < y:
			i++
		case x > y:
			j++
		default:
			out = append(out, x)
			i++
			j++
		}
	}
	return dbSet{atoms: out}
}

// join is the union of two sets.
func (a dbSet) join(b dbSet) dbSet {
	switch {
	case a.top || b.top:
		return dbSet{top: true}
	case len(a.atoms) == 0:
		return b
	case len(b.atoms) == 0:
		return a
	}
	return dbSet{atoms: slices.Compact(mergeSorted(a.atoms, b.atoms))}
}

// Caps of one computation. A goal whose rule instances outnumber
// maxDBInstances keeps its static set, and so does a subgoal met after
// maxDBGoals goals: a smaller set is always sound, and the caps bound one
// ask's memo growth (a 512-element order memoises ≈ 0.5 MB).
const (
	maxDBGoals     = 512
	maxDBInstances = 1024
)

var (
	errDBInstances = errors.New("facts: too many rule instances")
	errDBEmpty     = errors.New("facts: set is empty")
)

// mustRun computes M_DB for the ground goals a goal reaches through the
// data-determined predicates' rules: the greatest fixpoint of the
// must-add equations (Relevance doc) over ground rule instances, one
// strongly connected component of goals at a time (Tarjan), iterating
// only inside one. An instance whose rule-invariant premise is false in
// the base contributes nothing; one that can fire contributes, premise by
// premise, ⊤ for a plain rule-invariant premise, M_DB(q) for a plain or
// hypothetical premise whose goal q is ground and data-determined, M(q)
// for any other goal, and its ground extensional adds for a hypothetical
// premise.
type mustRun struct {
	m     *MustDB
	db    *DB
	in    *Interner
	nodes []dbNode       // goals of the computation, by visit order
	at    map[AtomID]int // goals visited and not finished, to their node
	stack []int          // Tarjan's stack of unfinished nodes
}

type dbNode struct {
	goal AtomID
	set  dbSet
	low  int  // the lowest unfinished node its equation reaches
	self bool // its equation reads its own set
}

func (c *mustRun) compute(m *MustDB, db *DB, goal AtomID) {
	c.m, c.db, c.in = m, db, db.in
	if c.at == nil {
		c.at = map[AtomID]int{}
	}
	c.visit(goal)
	c.nodes, c.stack = c.nodes[:0], c.stack[:0]
}

// visit computes a goal's set; if the goal is the root of its component,
// it iterates the component to its fixpoint and memoises every member.
// It returns the goal's low link.
func (c *mustRun) visit(g AtomID) int {
	i := len(c.nodes)
	c.nodes = append(c.nodes, dbNode{goal: g, set: dbSet{top: true}, low: i})
	c.at[g] = i
	c.stack = append(c.stack, i)
	c.nodes[i].set = c.eval(i)
	if low := c.nodes[i].low; low < i {
		return low
	}
	k := len(c.stack) - 1
	for c.stack[k] != i {
		k--
	}
	comp := c.stack[k:]
	if len(comp) > 1 || c.nodes[i].self {
		for changed := true; changed; {
			changed = false
			for _, j := range comp {
				if set := c.eval(j); !set.equal(c.nodes[j].set) {
					c.nodes[j].set, changed = set, true
				}
			}
		}
	}
	for _, j := range comp {
		c.m.store(c.nodes[j].goal, c.nodes[j].set)
		delete(c.at, c.nodes[j].goal)
	}
	c.stack = c.stack[:k]
	return i
}

// eval is one evaluation of node i's equation: the intersection, over
// the instances of its goal's rules that the base lets fire, of their
// contributions.
func (c *mustRun) eval(i int) dbSet {
	g := c.nodes[i].goal
	pred := c.in.Pred(g)
	cp := c.in.rel.cp
	set, n := dbSet{top: true}, 0
	for _, ri := range cp.ByHead[pred] {
		rule := &cp.Rules[ri]
		binding := ast.NewBinding(rule.NumVars)
		if !ast.Unify(rule.Head, c.in.Args(g), binding) {
			continue
		}
		err := c.instances(rule, binding, 0, func() error {
			if n++; n > maxDBInstances {
				return errDBInstances
			}
			if set = set.meet(c.contribution(i, rule, binding)); set.isEmpty() {
				return errDBEmpty
			}
			return nil
		})
		switch err {
		case errDBInstances:
			return c.m.staticOf(c.in, pred)
		case errDBEmpty:
			return dbSet{}
		}
	}
	return set
}

// instances binds the rule's plain rule-invariant premises from the
// first premise on, in body order, to each of their joint matches in the
// base, and yields each binding.
func (c *mustRun) instances(rule *ast.CRule, binding []symbols.Const, from int, yield func() error) error {
	for k := from; k < len(rule.Body); k++ {
		if pr := &rule.Body[k]; pr.Kind == ast.Plain && c.in.rel.keysOf(pr.Atom.Pred).invariant {
			_, err := Match(NewState(c.db), pr.Atom, binding, func() error {
				return c.instances(rule, binding, k+1, yield)
			})
			return err
		}
	}
	return yield()
}

// contribution is the intersection of what each premise of one rule
// instance contributes.
func (c *mustRun) contribution(i int, rule *ast.CRule, binding []symbols.Const) dbSet {
	set := dbSet{top: true}
	for k := range rule.Body {
		pr := &rule.Body[k]
		var v dbSet
		switch pr.Kind {
		case ast.Plain:
			if c.in.rel.keysOf(pr.Atom.Pred).invariant {
				continue
			}
			v = c.goal(i, pr.Atom, binding)
		case ast.Hyp:
			v = c.goal(i, pr.Atom, binding).join(c.adds(pr, binding))
		case ast.NegHyp:
			v = c.m.staticOf(c.in, pr.Atom.Pred).join(c.adds(pr, binding))
		default:
			v = c.m.staticOf(c.in, pr.Atom.Pred)
		}
		if set = set.meet(v); set.isEmpty() {
			break
		}
	}
	return set
}

// goal is the set of a premise goal under binding, read by node i:
// M_DB of the ground goal when its predicate is data-determined, M of
// its predicate otherwise.
func (c *mustRun) goal(i int, a ast.CAtom, binding []symbols.Const) dbSet {
	if c.in.rel.keysOf(a.Pred).reads == 0 || !boundIn(a, binding) {
		return c.m.staticOf(c.in, a.Pred)
	}
	g := c.in.Ground(a, binding)
	if set, ok := c.m.sets[g]; ok {
		return set
	}
	j, ok := c.at[g]
	if !ok {
		if len(c.nodes) >= maxDBGoals {
			return c.m.staticOf(c.in, a.Pred)
		}
		low := c.visit(g)
		c.nodes[i].low = min(c.nodes[i].low, low)
		if set, ok := c.m.sets[g]; ok {
			return set
		}
		j = c.at[g]
	} else {
		c.nodes[i].low = min(c.nodes[i].low, j)
		c.nodes[i].self = c.nodes[i].self || j == i
	}
	return c.nodes[j].set
}

// adds is the set of a hypothetical premise's adds that are ground under
// binding and of an addable predicate.
func (c *mustRun) adds(pr *ast.CPremise, binding []symbols.Const) dbSet {
	var ids []AtomID
	for _, a := range pr.Adds {
		if c.in.rel.keysOf(a.Pred).addable && boundIn(a, binding) {
			ids = append(ids, c.in.Ground(a, binding))
		}
	}
	slices.Sort(ids)
	return dbSet{atoms: slices.Compact(ids)}
}

// boundIn reports whether binding binds every variable of a.
func boundIn(a ast.CAtom, binding []symbols.Const) bool {
	for _, t := range a.Args {
		if t.IsVar() && binding[t.VarSlot()] == ast.Unbound {
			return false
		}
	}
	return true
}

// Normalised returns the state an asked goal is proved in: s less its
// added members of M(p), p the goal's predicate, and, when s may mention
// none of the rule-invariant predicates computing it reads, of M_DB(goal)
// as well, which m memoises. Provability of the goal is the same in both
// (DESIGN §3, "Must-add keys" and "Data-determined must-add sets"). It is
// s itself, with no allocation, when s adds no member; M_DB(goal) is
// computed only once s adds an atom of an addable predicate that M(p)
// does not hold.
func (s State) Normalised(goal AtomID, m *MustDB) State {
	if s.Delta.n == 0 {
		return s
	}
	in := s.Base.in
	k := in.rel.keysOf(in.atoms[goal].pred)
	data := k.reads != 0 && !s.mayMentionAny(k.reads)
	if k.must == nil && !data {
		return s
	}
	var db *dbSet
	drop := func(id AtomID) bool {
		if k.must != nil && in.mustHas(k.must, id) {
			return true
		}
		if !data || !in.rel.keysOf(in.atoms[id].pred).addable {
			return false
		}
		if db == nil {
			set := m.of(s.Base, goal)
			db = &set
		}
		return db.has(in, id)
	}
	it := s.Delta.Added()
	for {
		id, ok := it.Next()
		if !ok {
			return s
		}
		if drop(id) {
			break
		}
	}
	keep := make([]AtomID, 0, s.Delta.n)
	for it := s.Delta.Added(); ; {
		id, ok := it.Next()
		if !ok {
			break
		}
		if !drop(id) {
			keep = append(keep, id)
		}
	}
	return s.rebuilt(keep, s.Delta.dels)
}

// mayMentionAny reports whether the state's delta may add or delete an
// atom of a predicate whose summary bit is in mask; like MayMention,
// false is exact.
func (s State) mayMentionAny(mask uint16) bool {
	return s.Delta.sid == uninterned || s.Base.in.states.preds[s.Delta.sid]&mask != 0
}
