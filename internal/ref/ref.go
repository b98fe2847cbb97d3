// Package ref is a direct, deliberately naive implementation of the
// inference relation of Definition 3 (plus stratified negation-as-failure,
// section 3.1, and the hypothetical-deletion extension). It enumerates
// every ground substitution over the domain and computes fixpoints by
// brute force.
//
// Evaluation proceeds SCC level by SCC level (callees first). Within one
// level it computes a joint least fixpoint over ALL database states
// reachable through hypothetical premises — necessary because deletions
// make state transitions non-monotone (a chain of [add]/[del] premises can
// revisit an earlier state), so a per-state recursion would not terminate.
// Negated premises always refer to strictly lower levels, whose values are
// final when read.
//
// Negated premises are read as written: a variable that occurs only in
// negated premises is quantified inside its negation, and a negated
// hypothetical ~A[add: B] is A's failure in the state B makes. The engines
// run the program section 3.1's rewrite makes of both (ast.RewriteNegation);
// this package shares nothing with that rewrite.
//
// It exists as the specification against which the real engines are
// differentially tested; it is exponential and must only be used on small
// programs. Programs must be free of recursion through negation (run
// strat.CheckNegation first) — this package does not re-verify it.
package ref

import (
	"sort"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/facts"
	"hypodatalog/internal/symbols"
)

// Interp evaluates a compiled program by exhaustive enumeration.
type Interp struct {
	prog *ast.CProgram
	in   *facts.Interner
	base *facts.DB
	dom  []symbols.Const

	sccOf      map[symbols.Pred]int // topo order: callees before callers
	numSCC     int
	rulesBySCC [][]int

	// final[(stateKey, level)] holds the completed set of atoms derived by
	// the rules of SCC `level` in that state.
	final map[cellKey]atomSet
}

type cellKey struct {
	state string
	level int
}

type atomSet map[facts.AtomID]struct{}

func (s atomSet) has(id facts.AtomID) bool { _, ok := s[id]; return ok }

// New builds an interpreter for a compiled program. The domain is the set
// of constants mentioned anywhere in the program (facts and rules), per
// the paper's dom(R, DB); extra constants may be appended for queries that
// mention fresh symbols.
func New(cp *ast.CProgram, extraDom ...symbols.Const) *Interp {
	in := facts.NewInterner(cp.Syms)
	ip := &Interp{
		prog:  cp,
		in:    in,
		base:  facts.NewDB(in),
		dom:   Domain(cp, extraDom...),
		final: make(map[cellKey]atomSet),
	}
	for _, f := range cp.Facts {
		// Compiled facts intern their predicate with their own arity, so a
		// mismatch here means a corrupted CProgram — unrecoverable.
		if _, err := ip.base.Insert(ip.ground(f, nil)); err != nil {
			panic(err)
		}
	}
	ip.computeSCCs()
	return ip
}

// Domain returns the constants of dom(R, DB) for a compiled program, plus
// any extras, without duplicates, in first-seen order.
func Domain(cp *ast.CProgram, extra ...symbols.Const) []symbols.Const {
	seen := map[symbols.Const]bool{}
	var dom []symbols.Const
	add := func(t ast.CTerm) {
		if t.IsVar() {
			return
		}
		c := t.ConstID()
		if !seen[c] {
			seen[c] = true
			dom = append(dom, c)
		}
	}
	atom := func(a ast.CAtom) {
		for _, t := range a.Args {
			add(t)
		}
	}
	for _, f := range cp.Facts {
		atom(f)
	}
	for _, r := range cp.Rules {
		atom(r.Head)
		for _, pr := range r.Body {
			atom(pr.Atom)
			for _, a := range pr.Adds {
				atom(a)
			}
			for _, a := range pr.Dels {
				atom(a)
			}
		}
	}
	for _, c := range extra {
		if !seen[c] {
			seen[c] = true
			dom = append(dom, c)
		}
	}
	return dom
}

// Base returns the interpreter's base database.
func (ip *Interp) Base() *facts.DB { return ip.base }

// EmptyState returns the state of the unmodified base database.
func (ip *Interp) EmptyState() facts.State { return facts.NewState(ip.base) }

// Interner returns the interpreter's ground-atom interner.
func (ip *Interp) Interner() *facts.Interner { return ip.in }

// Dom returns the interpreter's domain. The slice must not be modified.
func (ip *Interp) Dom() []symbols.Const { return ip.dom }

// computeSCCs builds the predicate dependency SCCs of the compiled program
// in reverse topological order (callees first).
func (ip *Interp) computeSCCs() {
	var nodes []symbols.Pred
	idx := map[symbols.Pred]int{}
	node := func(p symbols.Pred) int {
		if i, ok := idx[p]; ok {
			return i
		}
		i := len(nodes)
		nodes = append(nodes, p)
		idx[p] = i
		return i
	}
	adj := map[int][]int{}
	for _, r := range ip.prog.Rules {
		h := node(r.Head.Pred)
		for _, pr := range r.Body {
			adj[h] = append(adj[h], node(pr.Atom.Pred))
		}
	}
	n := len(nodes)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	counter := 0
	compOf := make([]int, n)
	numComp := 0
	var strongconnect func(v int)
	strongconnect = func(v int) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if index[w] == -1 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				compOf[w] = numComp
				if w == v {
					break
				}
			}
			numComp++
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == -1 {
			strongconnect(v)
		}
	}
	ip.numSCC = numComp
	ip.sccOf = make(map[symbols.Pred]int, n)
	for i, p := range nodes {
		ip.sccOf[p] = compOf[i]
	}
	ip.rulesBySCC = make([][]int, numComp)
	for ri, r := range ip.prog.Rules {
		c := compOf[idx[r.Head.Pred]]
		ip.rulesBySCC[c] = append(ip.rulesBySCC[c], ri)
	}
}

// sccOfPred returns the SCC of a predicate, or -1 if it has no defining
// rules (its derivations are exactly the state's facts).
func (ip *Interp) sccOfPred(p symbols.Pred) int {
	if c, ok := ip.sccOf[p]; ok {
		return c
	}
	return -1
}

// Holds reports whether the interned ground atom holds in the given state:
// R, DB±Δ ⊢ A per Definition 3 (with deletions).
func (ip *Interp) Holds(goal facts.AtomID, st facts.State) bool {
	if st.Has(goal) {
		return true
	}
	c := ip.sccOfPred(ip.in.Pred(goal))
	if c < 0 {
		return false
	}
	ip.computeLevel(st, c)
	return ip.final[cellKey{st.Key(), c}].has(goal)
}

// HoldsPremise evaluates a ground compiled premise in a state.
func (ip *Interp) HoldsPremise(p ast.CPremise, st facts.State) bool {
	goal := ip.ground(p.Atom, nil)
	switch p.Kind {
	case ast.Plain:
		return ip.Holds(goal, st)
	case ast.Negated:
		return !ip.Holds(goal, st)
	case ast.Hyp:
		next := st
		for _, a := range p.Adds {
			next = next.Add(ip.ground(a, nil))
		}
		for _, a := range p.Dels {
			next = next.Del(ip.ground(a, nil))
		}
		return ip.Holds(goal, next)
	default:
		return false
	}
}

// Derivable returns every atom derivable in the state (including the
// state's own visible facts).
func (ip *Interp) Derivable(st facts.State) map[facts.AtomID]bool {
	out := map[facts.AtomID]bool{}
	for lvl := 0; lvl < ip.numSCC; lvl++ {
		ip.computeLevel(st, lvl)
		for id := range ip.final[cellKey{st.Key(), lvl}] {
			out[id] = true
		}
	}
	for _, id := range ip.base.All() {
		if st.Has(id) {
			out[id] = true
		}
	}
	for _, id := range st.Delta.IDs() {
		out[id] = true
	}
	return out
}

// levelGroup is the working set of one joint level computation.
type levelGroup struct {
	level  int
	active map[string]atomSet     // stateKey -> growing set
	states map[string]facts.State // stateKey -> state value
	grown  bool                   // set when an atom or state was added
}

// computeLevel finalises the cell (st, lvl), jointly with every state at
// the same level reachable from it through hypothetical premises.
func (ip *Interp) computeLevel(st facts.State, lvl int) {
	key := cellKey{st.Key(), lvl}
	if _, ok := ip.final[key]; ok {
		return
	}
	// Lower levels of the seed state first.
	for l := 0; l < lvl; l++ {
		ip.computeLevel(st, l)
	}
	g := &levelGroup{
		level:  lvl,
		active: map[string]atomSet{st.Key(): {}},
		states: map[string]facts.State{st.Key(): st},
	}
	for {
		g.grown = false
		keys := make([]string, 0, len(g.states))
		for k := range g.states {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			T := g.states[k]
			// Lower levels of a discovered state are computed on demand
			// before its rules fire.
			for l := 0; l < lvl; l++ {
				ip.computeLevel(T, l)
			}
			for _, ri := range ip.rulesBySCC[lvl] {
				ip.applyRule(&ip.prog.Rules[ri], T, g)
			}
		}
		if !g.grown {
			break
		}
	}
	for k, set := range g.active {
		ip.final[cellKey{k, lvl}] = set
	}
}

// unboundC marks a variable slot not assigned by the outer substitution
// (it occurs only in negated premises and is quantified inside them).
const unboundC symbols.Const = -1

// applyRule fires every ground instance of r whose body holds in state st,
// adding head instances to the group's active set for st.
func (ip *Interp) applyRule(r *ast.CRule, st facts.State, g *levelGroup) {
	binding := make([]symbols.Const, r.NumVars)
	for i := range binding {
		binding[i] = unboundC
	}
	var posSlots []int
	for s, pos := range r.PosVar {
		if pos {
			posSlots = append(posSlots, s)
		}
	}
	derived := g.active[st.Key()]
	var rec func(v int)
	rec = func(v int) {
		if v == len(posSlots) {
			if ip.bodyHolds(r, binding, st, g) {
				h := ip.ground(r.Head, binding)
				if !derived.has(h) {
					derived[h] = struct{}{}
					g.grown = true
				}
			}
			return
		}
		for _, c := range ip.dom {
			binding[posSlots[v]] = c
			rec(v + 1)
		}
	}
	if len(ip.dom) == 0 && len(posSlots) > 0 {
		return
	}
	rec(0)
}

func (ip *Interp) ground(a ast.CAtom, binding []symbols.Const) facts.AtomID {
	args := make([]symbols.Const, len(a.Args))
	for i, t := range a.Args {
		if t.IsVar() {
			v := binding[t.VarSlot()]
			if v == unboundC {
				panic("ref: grounding with unbound variable")
			}
			args[i] = v
		} else {
			args[i] = t.ConstID()
		}
	}
	return ip.in.ID(a.Pred, args)
}

func (ip *Interp) bodyHolds(r *ast.CRule, binding []symbols.Const, st facts.State, g *levelGroup) bool {
	for i := range r.Body {
		pr := &r.Body[i]
		switch pr.Kind {
		case ast.Plain:
			if !ip.atomHoldsAt(ip.ground(pr.Atom, binding), st, g) {
				return false
			}
		case ast.Negated, ast.NegHyp:
			// Stratification guarantees the negated predicate's SCC is
			// strictly below the current level, so its value is final.
			// Variables occurring only in negated premises are quantified
			// inside the negation.
			if ip.negInstanceHolds(pr, binding, st, g) {
				return false
			}
		case ast.Hyp:
			if !ip.atomHoldsAt(ip.ground(pr.Atom, binding), ip.extend(pr, binding, st), g) {
				return false
			}
		}
	}
	return true
}

// extend applies a premise's hypothetical additions and deletions to st.
func (ip *Interp) extend(pr *ast.CPremise, binding []symbols.Const, st facts.State) facts.State {
	for _, a := range pr.Adds {
		st = st.Add(ip.ground(a, binding))
	}
	for _, a := range pr.Dels {
		st = st.Del(ip.ground(a, binding))
	}
	return st
}

// atomHoldsAt checks a ground atom in an arbitrary state, against the
// group's in-progress sets at the current level and final sets below it.
// States at the current level not yet in the group are registered
// (monotone: the joint fixpoint keeps iterating).
func (ip *Interp) atomHoldsAt(gid facts.AtomID, st facts.State, g *levelGroup) bool {
	if st.Has(gid) {
		return true
	}
	c := ip.sccOfPred(ip.in.Pred(gid))
	if c < 0 {
		return false
	}
	key := st.Key()
	if c < g.level {
		ip.computeLevel(st, c)
		return ip.final[cellKey{key, c}].has(gid)
	}
	// Same level: read the group cell (final from an earlier computation,
	// active in this one, or freshly discovered).
	if f, ok := ip.final[cellKey{key, g.level}]; ok {
		return f.has(gid)
	}
	if set, ok := g.active[key]; ok {
		return set.has(gid)
	}
	g.active[key] = atomSet{}
	g.states[key] = st
	g.grown = true
	return false
}

// negInstanceHolds reports whether some instantiation of the premise's
// unbound (negation-local) variables makes it derivable: its atom, in the
// state its additions and deletions make.
func (ip *Interp) negInstanceHolds(pr *ast.CPremise, binding []symbols.Const, st facts.State, g *levelGroup) bool {
	var local []int
	seen := map[int]bool{}
	for _, a := range append(append([]ast.CAtom{pr.Atom}, pr.Adds...), pr.Dels...) {
		for _, t := range a.Args {
			if t.IsVar() {
				s := t.VarSlot()
				if binding[s] == unboundC && !seen[s] {
					seen[s] = true
					local = append(local, s)
				}
			}
		}
	}
	found := false
	var rec func(i int)
	rec = func(i int) {
		if found {
			return
		}
		if i == len(local) {
			if ip.atomHoldsAt(ip.ground(pr.Atom, binding), ip.extend(pr, binding, st), g) {
				found = true
			}
			return
		}
		for _, c := range ip.dom {
			binding[local[i]] = c
			rec(i + 1)
			if found {
				break
			}
		}
	}
	rec(0)
	for _, s := range local {
		binding[s] = unboundC
	}
	return found
}
