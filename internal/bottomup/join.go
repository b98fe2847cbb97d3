// The join core: every evaluation of a Δ rule body — the full pass that
// opens a negation level, the delta-pinned rounds that close it and a
// commit's additions — is one joinAt over a plan compiled when the prover
// is built.
package bottomup

import (
	"fmt"
	"slices"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/facts"
	"hypodatalog/internal/symbols"
)

// stepKind is how one body premise is evaluated.
type stepKind uint8

const (
	stepOwn   stepKind = iota // plain, defined in this Δ part: matches the state and the growing model
	stepExt                   // plain, extensional: matches the state
	stepBelow                 // plain, defined below: ranged over the domain, answered by the oracle
	stepHyp                   // hypothetical: ranged over the domain, answered by askOracleOrModel
	stepNeg                   // negated: tested after every other premise
)

// step is one premise of a plan. The premise order is static, so which
// variable slots are still unbound when the step runs is known at compile
// time.
type step struct {
	pr    *ast.CPremise
	kind  stepKind
	binds []int // slots unbound on entry that the step binds: by matching (own, ext) or by ranging over the domain
}

// plan is a rule body in evaluation order, given what is bound before it
// starts; free lists the head slots still unbound after the body, which
// Definition 3 ranges over the whole domain.
type plan struct {
	steps []step
	free  []int
}

// pin is one way of driving a rule from a frontier: the premise matched
// against a frontier atom first, then the rest of the body.
type pin struct {
	atom ast.CAtom
	rest plan
}

// rule is a Δ rule with its plans.
type rule struct {
	r    *ast.CRule
	full plan  // nothing bound on entry
	pins []pin // one per plain premise matched locally (own or extensional)

	// rerun marks a rule with a hypothetical premise on an own predicate:
	// when its additions are no-ops, askOracleOrModel reads the growing
	// model by membership, which no frontier atom can be pinned to, so the
	// rule is re-run in full every round.
	rerun bool
}

func (p *Prover) compileRule(r *ast.CRule) *rule {
	cr := &rule{r: r, full: p.compilePlan(r, -1)}
	for bi := range r.Body {
		pr := &r.Body[bi]
		switch {
		case pr.Kind == ast.Hyp && p.own[pr.Atom.Pred]:
			cr.rerun = true
		case pr.Kind == ast.Plain && !p.oracleOwned(pr.Atom.Pred):
			cr.pins = append(cr.pins, pin{atom: pr.Atom, rest: p.compilePlan(r, bi, pr.Atom)})
		}
	}
	return cr
}

// compilePlan orders the body of r, minus premise skip, for evaluation
// with the variables of the pre atoms already bound.
func (p *Prover) compilePlan(r *ast.CRule, skip int, pre ...ast.CAtom) plan {
	bound := make([]bool, r.NumVars)
	bind := func(slots []int) []int {
		for _, s := range slots {
			bound[s] = true
		}
		return slots
	}
	bind(unboundIn(bound, pre...))
	var pl plan
	for _, bi := range p.premiseOrder(r) {
		if bi == skip {
			continue
		}
		pr := &r.Body[bi]
		s, atoms := step{pr: pr}, []ast.CAtom{pr.Atom}
		switch {
		case pr.Kind == ast.Negated:
			s.kind = stepNeg
		case pr.Kind == ast.Hyp:
			s.kind, atoms = stepHyp, append(append(atoms, pr.Adds...), pr.Dels...)
		case p.oracleOwned(pr.Atom.Pred):
			s.kind = stepBelow
		case p.own[pr.Atom.Pred]:
			s.kind = stepOwn
		default:
			s.kind = stepExt
		}
		s.binds = bind(unboundIn(bound, atoms...))
		pl.steps = append(pl.steps, s)
	}
	pl.free = unboundIn(bound, r.Head)
	return pl
}

// premiseOrder: state-matchable premises first (own preds and extensional,
// which bind variables by scanning materialised/state atoms), then
// hypothetical and oracle-answered premises, negations last.
func (p *Prover) premiseOrder(r *ast.CRule) []int {
	var matchable, middle, negs []int
	for i := range r.Body {
		pr := &r.Body[i]
		switch {
		case pr.Kind == ast.Negated:
			negs = append(negs, i)
		case pr.Kind == ast.Plain && !p.oracleOwned(pr.Atom.Pred):
			matchable = append(matchable, i)
		default:
			middle = append(middle, i)
		}
	}
	out := append(matchable, middle...)
	return append(out, negs...)
}

// oracleOwned reports whether a predicate must be answered by the oracle:
// it is intensional in the full program but not defined in this Δ part.
func (p *Prover) oracleOwned(pred symbols.Pred) bool {
	return p.prog.IDB[pred] && !p.own[pred]
}

// unboundIn lists, in order of first occurrence, the variable slots of
// the atoms that bound does not mark.
func unboundIn(bound []bool, atoms ...ast.CAtom) []int {
	var slots []int
	for _, a := range atoms {
		for _, t := range a.Args {
			if t.IsVar() && !bound[t.VarSlot()] && !slices.Contains(slots, t.VarSlot()) {
				slots = append(slots, t.VarSlot())
			}
		}
	}
	return slots
}

// model is a Δ-part model being computed or maintained. A
// materialisation indexes the atoms it derives in a facts.Index, whose
// lists only grow, so a probe that ranges over the list it found sees a
// stable snapshot while the rule it feeds keeps deriving. That index
// lives as long as the materialisation does: a cached model is its atom
// set, and indexed again only when a derivation first probes it as a
// parent. The commit-time passes over the empty state's model
// (index == nil) find candidates by scanning it.
//
// A model derived from an ancestor state's is an overlay on that model:
// levels below cut read through to parent, and atoms holds only what the
// state adds there plus the whole of every level from cut on. Cached
// parents are never mutated while an overlay reads them (a commit drops
// every overlay before it maintains the empty state's model in place).
type model struct {
	atoms    atomSet
	index    facts.Index
	idxBytes int64 // index footprint charged to the tracker so far

	parent *model // nil for a model of its own
	cut    int    // levels below cut read through to parent
	depth  int    // overlays between this model and one of its own
}

// idxSlotBytes approximates one index slot — the 4-byte id with slice
// growth slack; the map entry of a key amortises over the atoms that
// share it. An atom takes one slot per argument plus one by predicate.
const idxSlotBytes = 8

func (p *Prover) insert(m *model, id facts.AtomID) {
	m.atoms[id] = struct{}{}
	p.budget.Mem.Add(matAtomBytes)
	if m.index != nil {
		p.indexAtom(m, id)
	}
}

func (p *Prover) indexAtom(m *model, id facts.AtomID) {
	m.index.Add(p.in, id)
	n := idxSlotBytes * int64(1+len(p.in.Args(id)))
	m.idxBytes += n
	p.budget.Mem.Add(n)
}

// indexCached indexes a cached model a derivation probes as a parent, in
// atom id order so that the derivation, and every counter, repeats.
func (p *Prover) indexCached(m *model) {
	ids := make([]facts.AtomID, 0, len(m.atoms))
	for id := range m.atoms {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	m.index = make(facts.Index)
	for _, id := range ids {
		p.indexAtom(m, id)
	}
}

func (p *Prover) dropIndex(m *model) {
	p.budget.Mem.Add(-m.idxBytes)
	m.index, m.idxBytes = nil, 0
}

// has reports whether an atom of an own predicate is in the model, read
// through its overlays.
func (p *Prover) has(m *model, id facts.AtomID) bool {
	if m.atoms.has(id) {
		return true
	}
	if m.parent == nil {
		return false
	}
	lvl := p.level[p.in.Pred(id)]
	for ; m.parent != nil && lvl < m.cut; m = m.parent {
		if m.parent.atoms.has(id) {
			return true
		}
	}
	return false
}

// each calls f on every atom of the model, read through its overlays.
func (p *Prover) each(m *model, f func(facts.AtomID)) {
	for cut := len(p.levels); m != nil; m = m.parent {
		for id := range m.atoms {
			if p.level[p.in.Pred(id)] < cut {
				f(id)
			}
		}
		cut = min(cut, m.cut)
	}
}

// flatten gives an unindexed overlay the atoms it reads through, making
// it a model of its own.
func (p *Prover) flatten(m *model) {
	var inherited []facts.AtomID
	p.each(m.parent, func(id facts.AtomID) {
		if p.level[p.in.Pred(id)] < m.cut {
			inherited = append(inherited, id)
		}
	})
	for _, id := range inherited {
		p.insert(m, id)
	}
	m.parent, m.depth = nil, 0
}

// fullRule yields every head instance the rule derives from the state
// and the model as they stand.
func (p *Prover) fullRule(r *rule, st facts.State, m *model, yield func(facts.AtomID) error) error {
	binding := ast.NewBinding(r.r.NumVars)
	return p.joinAt(&r.full, binding, 0, st, m, func() error {
		return p.deriveHeads(r.r, r.full.free, binding, yield)
	})
}

// pinnedJoin joins every rule once per (locally matched plain premise,
// frontier atom of its predicate) pair: the premise is bound to the
// frontier atom, the remaining premises evaluate against the state and
// model, and every resulting head instance is yielded.
func (p *Prover) pinnedJoin(rules []*rule, st facts.State, m *model, frontier []facts.AtomID, yield func(facts.AtomID) error) error {
	byPred := make(map[symbols.Pred][]facts.AtomID)
	for _, id := range frontier {
		pred := p.in.Pred(id)
		byPred[pred] = append(byPred[pred], id)
	}
	for _, r := range rules {
		for i := range r.pins {
			pn := &r.pins[i]
			seeds := byPred[pn.atom.Pred]
			if len(seeds) == 0 {
				continue
			}
			binding := ast.NewBinding(r.r.NumVars)
			n, err := facts.MatchList(p.in, seeds, pn.atom, binding, func() error {
				return p.joinAt(&pn.rest, binding, 0, st, m, func() error {
					return p.deriveHeads(r.r, pn.rest.free, binding, yield)
				})
			})
			p.budget.Stats.JoinProbes += int64(n)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// deriveHeads grounds the rule head under the binding, ranging the head
// variables the body left unbound over the whole domain (Definition 3).
func (p *Prover) deriveHeads(r *ast.CRule, free []int, binding []symbols.Const, yield func(facts.AtomID) error) error {
	_, err := ast.Assign(free, p.dom, binding, func() error {
		return yield(p.in.Ground(r.Head, binding))
	})
	return err
}

func (p *Prover) joinAt(pl *plan, binding []symbols.Const, pi int, st facts.State, m *model, yield func() error) error {
	if ae := p.budget.Tick(); ae != nil {
		return ae
	}
	if pi == len(pl.steps) {
		return yield()
	}
	s := &pl.steps[pi]
	pr := s.pr
	next := func() error {
		return p.joinAt(pl, binding, pi+1, st, m, yield)
	}
	if s.kind == stepOwn || s.kind == stepExt {
		// TEST⁰: membership in DB (the state) or, for an own predicate, the
		// growing model.
		return p.match(s, binding, st, m, next)
	}
	// holds continues the join when a ranged-over premise instance holds.
	holds := func(ok bool, err error) error {
		if err != nil || !ok {
			return err
		}
		return next()
	}
	var leaf func() error
	switch s.kind {
	case stepBelow:
		leaf = func() error { return holds(p.askOracle(p.in.Ground(pr.Atom, binding), st)) }
	case stepHyp:
		leaf = func() error {
			goal, ext := p.in.Instance(pr, binding, st)
			return holds(p.askOracleOrModel(goal, st, ext, m))
		}
	default:
		leaf = func() error {
			ok, err := p.testAtom(p.in.Ground(pr.Atom, binding), st, m)
			return holds(!ok, err)
		}
	}
	_, err := ast.Assign(s.binds, p.dom, binding, leaf)
	return err
}

// askOracle answers a goal defined below the Δ part.
func (p *Prover) askOracle(goal facts.AtomID, st facts.State) (bool, error) {
	if st.Has(goal) {
		return true, nil
	}
	if !p.prog.IDB[p.in.Pred(goal)] {
		return false, nil
	}
	if p.oracle == nil {
		return false, fmt.Errorf("bottomup: goal %s needs an oracle but none is configured",
			p.in.Format(goal))
	}
	return p.oracle(goal, st)
}

// askOracleOrModel evaluates a hypothetical premise target. If the target
// predicate is owned by this Δ part and the additions changed nothing, it
// reads the growing model (monotone; the rule is marked rerun for it);
// owned targets with real additions are materialised recursively;
// everything else goes to the oracle.
func (p *Prover) askOracleOrModel(goal facts.AtomID, st, ext facts.State, m *model) (bool, error) {
	if ext.Has(goal) {
		return true, nil
	}
	if p.own[p.in.Pred(goal)] {
		if ext.ID() == st.ID() {
			return p.has(m, goal), nil
		}
		// H-stratification normally rules this out; fall back to a
		// recursive materialisation of the extended state for generality.
		em, err := p.materialise(ext)
		if err != nil {
			return false, err
		}
		return p.has(em, goal), nil
	}
	return p.askOracle(goal, ext)
}

// testAtom is TEST⁰ for a ground atom: state, then own model, then oracle.
func (p *Prover) testAtom(goal facts.AtomID, st facts.State, m *model) (bool, error) {
	if st.Has(goal) {
		return true, nil
	}
	if p.own[p.in.Pred(goal)] {
		return p.has(m, goal), nil
	}
	return p.askOracle(goal, st)
}

// match enumerates the bindings of a plain premise: from the state
// (facts.Match) and, for an own predicate, from the model, read through
// its overlays. Every candidate tried counts as a join probe.
func (p *Prover) match(s *step, binding []symbols.Const, st facts.State, m *model, yield func() error) error {
	pattern := s.pr.Atom
	n, err := facts.Match(st, pattern, binding, yield)
	p.budget.Stats.JoinProbes += int64(n)
	if err != nil || s.kind != stepOwn {
		return err
	}
	if m.index == nil {
		var candidates []facts.AtomID
		for id := range m.atoms {
			if p.in.Pred(id) == pattern.Pred {
				candidates = append(candidates, id)
			}
		}
		n, err = facts.MatchList(p.in, candidates, pattern, binding, yield)
		p.budget.Stats.JoinProbes += int64(n)
		return err
	}
	// yield may grow the model; what it adds is the next round's frontier,
	// so this probe reads a snapshot. An overlay's parents never grow.
	for {
		n, err = m.index.Match(p.in, pattern, binding, yield)
		p.budget.Stats.JoinProbes += int64(n)
		if err != nil || m.parent == nil || p.level[pattern.Pred] >= m.cut {
			return err
		}
		if m = m.parent; m.index == nil {
			p.indexCached(m)
		}
	}
}
