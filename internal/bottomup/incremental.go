// Incremental maintenance of cached Δ-part materialisations across base
// (extensional) fact commits.
//
// A commit that adds and removes base facts invalidates derived state
// only inside the *affected cone* — the predicates whose cones hold a
// changed predicate (facts.Relevance.Affected). A Δ prover
// whose own predicates are outside the cone keeps every cached model
// untouched. An affected prover drops the models of its hypothetical
// states — a later read derives them again from the empty state's — and
// maintains the empty state's model in place when the change is provably
// monotone from its point of view:
//
//   - semi-naive addition: new derivations must use at least one changed
//     atom, so rule bodies are joined with one premise pinned to a delta
//     atom and the rest evaluated normally;
//   - DRed-style retraction: first overdelete every cached atom with some
//     derivation through a removed atom (an overestimate, computed
//     against the pre-commit database), then rederive the overdeleted
//     atoms that still have a derivation from the survivors, and finally
//     propagate rederivations and additions semi-naively to a fixpoint.
//
// Rederivation subsumes the counting approach: counting is unsound for
// recursive strata (a cyclic derivation can keep its own count alive),
// while delete-and-rederive is correct for any monotone rule set, so the
// same machinery covers both the non-recursive and the linear-recursive
// strata of the paper's cascade.
//
// Eligibility (incrementalOK) is what keeps the monotonicity argument
// honest: a rule with a negated or oracle-answered premise inside the
// cone, or any hypothetical premise, can flip non-monotonically under the
// commit, so such provers drop their caches and fall back to the paper's
// from-scratch materialisation on the next query — stratum recomputation,
// exactly where linear recursion (or negation) makes local maintenance
// unsound.
package bottomup

import (
	"hypodatalog/internal/ast"
	"hypodatalog/internal/facts"
	"hypodatalog/internal/symbols"
)

// Plan is the first (pre-mutation) phase of a two-phase commit against a
// prover: the overdeletion set of the empty state's cached model, computed
// while the shared base database still holds its pre-commit contents. The
// caller mutates the base, then runs ApplyPlan.
type Plan struct {
	atoms atomSet // the empty state's model, updated in place
	over  atomSet // own atoms with some derivation through a removed atom
}

// Affected reports whether a commit touching the cone can change this
// prover's model. The prover's model consists solely of atoms of its own
// predicates, and the cone over-approximates every predicate whose
// extension can move, so unaffected provers keep all caches verbatim.
func (p *Prover) Affected(cone map[symbols.Pred]bool) bool {
	for q := range p.own {
		if cone[q] {
			return true
		}
	}
	return false
}

// incrementalOK reports whether in-place maintenance is sound for this
// prover under the given cone: every premise whose answer can change must
// be a plain positive one matched locally (own or extensional), so all
// change is monotone in the delta. Hypothetical premises are excluded
// outright — they evaluate recursively under extended states whose
// materialisations are themselves mid-update.
func (p *Prover) incrementalOK(cone map[symbols.Pred]bool) bool {
	for _, cr := range p.rules {
		for i := range cr.r.Body {
			pr := &cr.r.Body[i]
			switch pr.Kind {
			case ast.Hyp:
				return false
			case ast.Negated:
				if cone[pr.Atom.Pred] {
					return false
				}
			case ast.Plain:
				if p.oracleOwned(pr.Atom.Pred) && cone[pr.Atom.Pred] {
					return false
				}
			}
		}
	}
	return true
}

// drop deletes one cached model and returns its memory charges: the
// entry, the atoms it holds itself and any index it keeps.
func (p *Prover) drop(id facts.StateID) {
	m := p.cache[id]
	p.budget.Mem.Add(-(matEntryOverhead + matAtomBytes*int64(len(m.atoms)) + m.idxBytes))
	delete(p.cache, id)
	p.budget.Stats.IncDropped++
}

// PlanDelta is phase one of a commit. Only the empty state's model is
// maintained in place: every hypothetical state's model is dropped, to be
// derived again from the maintained one on demand, and the empty state's
// overdeletion set is computed against the pre-commit base. It returns
// nil when there is nothing to apply later — the prover is unaffected
// (caches stay), has no model to maintain, or maintenance is unsound.
func (p *Prover) PlanDelta(added, removed []facts.AtomID, cone map[symbols.Pred]bool) *Plan {
	if !p.Affected(cone) {
		return nil
	}
	for id := range p.cache {
		if id != facts.EmptyStateID {
			p.drop(id)
		}
	}
	root, ok := p.cache[facts.EmptyStateID]
	if !ok {
		return nil
	}
	if !p.incrementalOK(cone) {
		p.drop(facts.EmptyStateID)
		return nil
	}
	p.dropIndex(root) // the passes scan; the next derivation re-indexes
	over, err := p.overdelete(facts.NewState(p.base), root.atoms, removed)
	if err != nil {
		// An oracle failure mid-plan: dropping the entry is always sound —
		// the next query rematerialises and surfaces the error in its own
		// context.
		p.drop(facts.EmptyStateID)
		return nil
	}
	return &Plan{atoms: root.atoms, over: over}
}

// ApplyPlan is phase two, run after the shared base database has been
// mutated: remove the overdeleted atoms, rederive those still provable
// from the survivors, and propagate rederivations plus the added base
// atoms semi-naively to the new fixpoint. Errors never propagate — a
// model that fails mid-update is dropped, which degrades to lazy
// rematerialisation.
func (p *Prover) ApplyPlan(plan *Plan, added []facts.AtomID) {
	if plan == nil {
		return
	}
	if err := p.applyUpdate(plan, added); err != nil {
		p.drop(facts.EmptyStateID)
		return
	}
	p.budget.Stats.IncStates++
}

func (p *Prover) applyUpdate(u *Plan, added []facts.AtomID) error {
	m := &model{atoms: u.atoms}
	for id := range u.over {
		delete(m.atoms, id)
		p.budget.Mem.Add(-matAtomBytes)
	}
	st := facts.NewState(p.base) // post-commit facts now
	var frontier []facts.AtomID
	for id := range u.over {
		ok, err := p.rederivable(id, st, m)
		if err != nil {
			return err
		}
		if ok {
			p.insert(m, id)
			frontier = append(frontier, id)
		}
	}
	// Added base atoms seed the semi-naive rounds directly. The cone
	// admits no negated premise that can move (incrementalOK), so the
	// rounds run over every level's rules at once.
	frontier = append(frontier, added...)
	_, err := p.propagate(p.rules, st, m, frontier)
	return err
}

// overdelete computes the DRed overestimate for one cached state: every
// derived atom with some derivation using a removed base atom (or,
// transitively, an overdeleted one), joined against the pre-commit
// database and the still-intact model.
func (p *Prover) overdelete(st facts.State, atoms atomSet, removed []facts.AtomID) (atomSet, error) {
	if len(removed) == 0 {
		return atomSet{}, nil
	}
	m := &model{atoms: atoms}
	over := atomSet{}
	frontier := removed
	for len(frontier) > 0 {
		var next []facts.AtomID
		err := p.pinnedJoin(p.rules, st, m, frontier, func(h facts.AtomID) error {
			if atoms.has(h) && !over.has(h) {
				over[h] = struct{}{}
				next = append(next, h)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		frontier = next
	}
	return over, nil
}

// rederivable reports whether the goal still has a derivation from the
// current model and state (used after overdeleted atoms are removed).
func (p *Prover) rederivable(goal facts.AtomID, st facts.State, m *model) (bool, error) {
	gp := p.in.Pred(goal)
	gargs := p.in.Args(goal)
	for _, cr := range p.rules {
		if cr.r.Head.Pred != gp {
			continue
		}
		binding := ast.NewBinding(cr.r.NumVars)
		if !ast.Unify(cr.r.Head, gargs, binding) {
			continue
		}
		found := false
		err := p.joinAt(&cr.head, binding, 0, st, m, func() error {
			found = true
			return errStop
		})
		if err != nil && err != errStop {
			return false, err
		}
		if found {
			return true, nil
		}
	}
	return false, nil
}
