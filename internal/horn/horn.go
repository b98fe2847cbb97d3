// Package horn is a plain Datalog engine: bottom-up evaluation of
// function-free Horn rules with stratified negation, with both naive and
// semi-naive fixpoint strategies.
//
// It exists as the baseline for the paper's framing claims: linear
// recursion and stratified negation do not change the data-complexity of
// Horn rulebases (both stay in P, section 1), in contrast to hypothetical
// rulebases where they generate the polynomial-time hierarchy. It rejects
// hypothetical premises — those need the hypo engines.
package horn

import (
	"fmt"
	"sort"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/facts"
	"hypodatalog/internal/symbols"
)

type indexKey struct {
	pred symbols.Pred
	pos  int
	val  symbols.Const
}

// Strategy selects the fixpoint algorithm.
type Strategy int

const (
	// SemiNaive re-joins only against atoms derived in the previous round.
	SemiNaive Strategy = iota
	// Naive re-joins against the full relation every round.
	Naive
)

// Stats counts evaluation work.
type Stats struct {
	Rounds     int   // fixpoint rounds across all strata
	RuleFires  int64 // rule body matches that produced a (possibly old) head
	Derived    int   // atoms in the computed model (excluding base facts)
	JoinProbes int64 // candidate atoms inspected during matching
}

// Engine evaluates a Horn program bottom-up and answers membership in its
// perfect model.
type Engine struct {
	prog     *ast.CProgram
	in       *facts.Interner
	base     *facts.DB
	strategy Strategy

	model    map[facts.AtomID]struct{}
	byPred   map[symbols.Pred][]facts.AtomID
	index    map[indexKey][]facts.AtomID // derived atoms by (pred, pos, val)
	computed bool
	stats    Stats

	levels [][]int // rules grouped by negation stratum
}

// New builds an engine over a compiled program. It returns an error if the
// program contains hypothetical premises or recursion through negation.
func New(cp *ast.CProgram, strategy Strategy) (*Engine, error) {
	for _, r := range cp.Rules {
		for _, pr := range r.Body {
			if pr.Kind == ast.Hyp || pr.Kind == ast.NegHyp {
				return nil, fmt.Errorf("horn: rule at line %d has a hypothetical premise; use the hypo engines", r.Line)
			}
		}
		// Range restriction: every head variable must occur in a positive
		// body premise, so bottom-up evaluation grounds heads fully.
		inBody := make([]bool, r.NumVars)
		for _, pr := range r.Body {
			if pr.Kind != ast.Plain {
				continue
			}
			for _, t := range pr.Atom.Args {
				if t.IsVar() {
					inBody[t.VarSlot()] = true
				}
			}
		}
		for _, t := range r.Head.Args {
			if t.IsVar() && !inBody[t.VarSlot()] {
				return nil, fmt.Errorf("horn: rule at line %d is not range-restricted (head variable %s)",
					r.Line, r.VarNames[t.VarSlot()])
			}
		}
	}
	in := facts.NewInterner(cp.Syms)
	base := facts.NewDB(in)
	for _, f := range cp.Facts {
		if _, err := base.Insert(in.InternGround(f)); err != nil {
			return nil, err
		}
	}
	e := &Engine{
		prog:     cp,
		in:       in,
		base:     base,
		strategy: strategy,
		model:    make(map[facts.AtomID]struct{}),
		byPred:   make(map[symbols.Pred][]facts.AtomID),
		index:    make(map[indexKey][]facts.AtomID),
	}
	lv, err := e.negationLevels()
	if err != nil {
		return nil, err
	}
	e.levels = lv
	return e, nil
}

// negationLevels stratifies the program by negation, failing on recursion
// through negation.
func (e *Engine) negationLevels() ([][]int, error) {
	level := map[symbols.Pred]int{}
	for p := range e.prog.IDB {
		level[p] = 1
	}
	n := len(level)
	for pass := 0; ; pass++ {
		if pass > 2*n+2 {
			return nil, fmt.Errorf("horn: recursion through negation")
		}
		changed := false
		for _, r := range e.prog.Rules {
			h := r.Head.Pred
			for _, pr := range r.Body {
				q := pr.Atom.Pred
				if !e.prog.IDB[q] {
					continue
				}
				need := level[q]
				if pr.Kind == ast.Negated {
					need++
				}
				if level[h] < need {
					level[h] = need
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	maxLvl := 1
	for _, l := range level {
		if l > maxLvl {
			maxLvl = l
		}
	}
	out := make([][]int, maxLvl)
	for ri, r := range e.prog.Rules {
		out[level[r.Head.Pred]-1] = append(out[level[r.Head.Pred]-1], ri)
	}
	return out, nil
}

// Interner returns the engine's ground-atom interner.
func (e *Engine) Interner() *facts.Interner { return e.in }

// Stats returns the evaluation counters (valid after the model has been
// computed by a query or by Compute).
func (e *Engine) Stats() Stats {
	s := e.stats
	s.Derived = len(e.model)
	return s
}

// Compute materialises the perfect model.
func (e *Engine) Compute() {
	if e.computed {
		return
	}
	for _, rules := range e.levels {
		switch e.strategy {
		case Naive:
			e.naiveFixpoint(rules)
		default:
			e.semiNaiveFixpoint(rules)
		}
	}
	e.computed = true
}

// Holds reports whether an interned atom is in the perfect model.
func (e *Engine) Holds(goal facts.AtomID) bool {
	e.Compute()
	if e.base.Has(goal) {
		return true
	}
	_, ok := e.model[goal]
	return ok
}

// Model returns the derived atoms, sorted. Base facts are not included.
func (e *Engine) Model() []facts.AtomID {
	e.Compute()
	out := make([]facts.AtomID, 0, len(e.model))
	for id := range e.model {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (e *Engine) insert(id facts.AtomID) bool {
	if e.base.Has(id) {
		return false
	}
	if _, ok := e.model[id]; ok {
		return false
	}
	e.model[id] = struct{}{}
	pred := e.in.Pred(id)
	e.byPred[pred] = append(e.byPred[pred], id)
	for pos, val := range e.in.Args(id) {
		k := indexKey{pred, pos, val}
		e.index[k] = append(e.index[k], id)
	}
	return true
}

// naiveFixpoint applies all rules against the full model until quiescence.
func (e *Engine) naiveFixpoint(rules []int) {
	for {
		e.stats.Rounds++
		changed := false
		for _, ri := range rules {
			if e.fireRule(ri, nil) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// semiNaiveFixpoint seeds with one naive round, then re-joins each rule
// only against bindings that touch the previous round's delta.
func (e *Engine) semiNaiveFixpoint(rules []int) {
	e.stats.Rounds++
	var delta []facts.AtomID
	collect := func(id facts.AtomID) { delta = append(delta, id) }
	for _, ri := range rules {
		e.fireRuleCollect(ri, nil, collect)
	}
	for len(delta) > 0 {
		e.stats.Rounds++
		// The previous round's atoms in derivation order (insert reports each
		// new atom once), so the work counters repeat exactly run to run.
		prev := delta
		delta = nil
		for _, ri := range rules {
			e.fireRuleCollect(ri, prev, collect)
		}
	}
}

// fireRule derives new instances of one rule; delta, when non-nil,
// restricts matching so at least one positive premise matches a delta atom.
func (e *Engine) fireRule(ri int, delta []facts.AtomID) bool {
	changed := false
	e.fireRuleCollect(ri, delta, func(facts.AtomID) { changed = true })
	return changed
}

func (e *Engine) fireRuleCollect(ri int, delta []facts.AtomID, onNew func(facts.AtomID)) {
	r := &e.prog.Rules[ri]
	binding := make([]symbols.Const, r.NumVars)
	for i := range binding {
		binding[i] = unbound
	}
	// Premise order: positive first, negations last.
	var pos, negs []int
	for i := range r.Body {
		if r.Body[i].Kind == ast.Negated {
			negs = append(negs, i)
		} else {
			pos = append(pos, i)
		}
	}

	yield := func() {
		h := e.groundHead(r, binding)
		if e.insert(h) {
			onNew(h)
		}
		e.stats.RuleFires++
	}
	if delta == nil {
		order := append(append([]int(nil), pos...), negs...)
		e.joinAt(r, order, binding, 0, nil, -1, yield)
		return
	}
	// Semi-naive: one pass per positive premise, with that premise bound
	// to the delta and — crucially — evaluated first, so the small delta
	// drives the join instead of a full-relation scan.
	for i := range pos {
		order := make([]int, 0, len(r.Body))
		order = append(order, pos[i])
		for j, p := range pos {
			if j != i {
				order = append(order, p)
			}
		}
		order = append(order, negs...)
		e.joinAt(r, order, binding, 0, delta, 0, yield)
	}
}

const unbound symbols.Const = -1

func (e *Engine) groundHead(r *ast.CRule, binding []symbols.Const) facts.AtomID {
	args := make([]symbols.Const, len(r.Head.Args))
	for i, t := range r.Head.Args {
		if t.IsVar() {
			v := binding[t.VarSlot()]
			if v == unbound {
				panic(fmt.Sprintf("horn: rule at line %d is not range-restricted (head variable %s unbound)",
					r.Line, r.VarNames[t.VarSlot()]))
			}
			args[i] = v
		} else {
			args[i] = t.ConstID()
		}
	}
	return e.in.ID(r.Head.Pred, args)
}

// joinAt enumerates bindings premise by premise.
func (e *Engine) joinAt(r *ast.CRule, order []int, binding []symbols.Const, pi int, delta []facts.AtomID, deltaAt int, yield func()) {
	if pi == len(order) {
		yield()
		return
	}
	pr := &r.Body[order[pi]]
	if pr.Kind == ast.Negated {
		if !e.negHolds(r, pr, binding) {
			e.joinAt(r, order, binding, pi+1, delta, deltaAt, yield)
		}
		return
	}
	mustDelta := pi == deltaAt && delta != nil
	e.match(pr.Atom, binding, mustDelta, delta, func() {
		e.joinAt(r, order, binding, pi+1, delta, deltaAt, yield)
	})
}

// negHolds evaluates a negated premise; unbound (negation-local) variables
// are quantified inside the negation.
func (e *Engine) negHolds(r *ast.CRule, pr *ast.CPremise, binding []symbols.Const) bool {
	for _, t := range pr.Atom.Args {
		if t.IsVar() && binding[t.VarSlot()] == unbound {
			// Some instance provable? Match against base + model.
			found := false
			e.match(pr.Atom, binding, false, nil, func() { found = true })
			return found
		}
	}
	args := make([]symbols.Const, len(pr.Atom.Args))
	for i, t := range pr.Atom.Args {
		if t.IsVar() {
			args[i] = binding[t.VarSlot()]
		} else {
			args[i] = t.ConstID()
		}
	}
	id, ok := e.in.Lookup(pr.Atom.Pred, args)
	if !ok {
		return false
	}
	if e.base.Has(id) {
		return true
	}
	_, ok = e.model[id]
	return ok
}

// match enumerates atoms in base+model matching the pattern under binding.
func (e *Engine) match(pattern ast.CAtom, binding []symbols.Const, mustDelta bool, delta []facts.AtomID, yield func()) {
	bestPos, bestVal := -1, unbound
	for i, t := range pattern.Args {
		var v symbols.Const
		if t.IsVar() {
			v = binding[t.VarSlot()]
		} else {
			v = t.ConstID()
		}
		if v != unbound {
			bestPos, bestVal = i, v
			break
		}
	}
	try := func(id facts.AtomID) {
		e.stats.JoinProbes++
		args := e.in.Args(id)
		var boundHere []int
		ok := true
		for i, t := range pattern.Args {
			if t.IsVar() {
				s := t.VarSlot()
				switch binding[s] {
				case unbound:
					binding[s] = args[i]
					boundHere = append(boundHere, s)
				case args[i]:
				default:
					ok = false
				}
			} else if t.ConstID() != args[i] {
				ok = false
			}
			if !ok {
				break
			}
		}
		if ok {
			yield()
		}
		for _, s := range boundHere {
			binding[s] = unbound
		}
	}
	if mustDelta {
		// Semi-naive: the delta premise scans only last round's new atoms.
		for _, id := range delta {
			if e.in.Pred(id) == pattern.Pred {
				try(id)
			}
		}
		return
	}
	// Derived atoms are snapshotted up front: yield may append to the
	// slices during iteration, and new atoms are picked up by the
	// enclosing fixpoint's next round.
	var derived []facts.AtomID
	if bestPos >= 0 {
		for _, id := range e.base.ByPredArg(pattern.Pred, bestPos, bestVal) {
			try(id)
		}
		derived = e.index[indexKey{pattern.Pred, bestPos, bestVal}]
	} else {
		for _, id := range e.base.ByPred(pattern.Pred) {
			try(id)
		}
		derived = e.byPred[pattern.Pred]
	}
	n := len(derived)
	for i := 0; i < n; i++ {
		try(derived[i])
	}
}
