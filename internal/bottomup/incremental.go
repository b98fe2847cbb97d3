// Maintenance of cached Δ-part materialisations across base (extensional)
// fact commits.
//
// A commit that adds and removes base facts invalidates derived state
// only inside the *affected cone* — the predicates whose cones hold a
// changed predicate (facts.Relevance.Affected). A Δ prover whose own
// predicates are outside the cone keeps every cached model untouched. An
// affected prover drops the models of its hypothetical states — a later
// read derives them again from the empty state's — and either extends the
// empty state's model in place or drops it too:
//
//   - a commit that only adds facts extends it semi-naively: new
//     derivations must use at least one added atom, so rule bodies are
//     joined with one premise pinned to a frontier atom and the rest
//     evaluated normally, to the new fixpoint;
//   - a commit that removes a fact drops it, and the next read
//     rematerialises it from scratch, the paper's PROVE_Δ. Repairing the
//     model in place instead (delete and rederive) measured 8–22× slower
//     than that rematerialisation on a reach closure (DESIGN §10).
//
// Eligibility (incrementalOK) is what keeps the extension honest: a rule
// with a negated or oracle-answered premise inside the cone, or any
// hypothetical premise, can lose answers when facts are added, so such a
// prover drops its root model on every commit that touches its cone.
package bottomup

import (
	"hypodatalog/internal/ast"
	"hypodatalog/internal/facts"
	"hypodatalog/internal/symbols"
)

// affected reports whether a commit touching the cone can change this
// prover's model. The prover's model consists solely of atoms of its own
// predicates, and the cone over-approximates every predicate whose
// extension can move, so unaffected provers keep all caches verbatim.
func (p *Prover) affected(cone map[symbols.Pred]bool) bool {
	for q := range p.own {
		if cone[q] {
			return true
		}
	}
	return false
}

// incrementalOK reports whether extending the root model in place is
// sound for this prover under the given cone: every premise whose answer
// can change must be a plain positive one matched locally (own or
// extensional), so all change is monotone in the added atoms.
// Hypothetical premises are excluded outright — they evaluate recursively
// under extended states whose materialisations were just dropped.
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

// ApplyDelta brings the prover's cached models to a commit, after the
// shared base database has been mutated: every hypothetical state's model
// is dropped, and the empty state's is extended by the added atoms when
// the commit only adds and the prover is eligible, else dropped. Errors
// never propagate: a model that fails mid-extension is dropped, which
// degrades to rematerialising on the next read.
func (p *Prover) ApplyDelta(added, removed []facts.AtomID, cone map[symbols.Pred]bool) {
	if !p.affected(cone) {
		return
	}
	for id := range p.cache {
		if id != facts.EmptyStateID {
			p.drop(id)
		}
	}
	root, ok := p.cache[facts.EmptyStateID]
	if !ok {
		return
	}
	if len(removed) > 0 || !p.incrementalOK(cone) {
		p.drop(facts.EmptyStateID)
		return
	}
	p.dropIndex(root) // the rounds scan; the next derivation re-indexes
	// The cone admits no negated premise that can move (incrementalOK), so
	// the rounds run over every level's rules at once.
	if _, err := p.propagate(p.rules, facts.NewState(p.base), root, added); err != nil {
		p.drop(facts.EmptyStateID)
		return
	}
	p.budget.Stats.IncStates++
}
