// Package horn is a plain Datalog engine: bottom-up evaluation of
// function-free, range-restricted Horn rules with stratified negation.
//
// It exists as the baseline for the paper's framing claims: linear
// recursion and stratified negation do not change the data-complexity of
// Horn rulebases (both stay in P, section 1), in contrast to hypothetical
// rulebases where they generate the polynomial-time hierarchy. It rejects
// hypothetical premises — those need the hypo engines — and evaluates
// everything else as a single Δ part on internal/bottomup's join core.
package horn

import (
	"fmt"
	"sort"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/bottomup"
	"hypodatalog/internal/facts"
	"hypodatalog/internal/ref"
	"hypodatalog/internal/topdown"
)

// Engine evaluates a Horn program bottom-up and answers membership in its
// perfect model.
type Engine struct {
	base *facts.DB
	pv   *bottomup.Prover
	b    *topdown.Budget // no limits; its ledger counts the joins' work
}

// New builds an engine over a compiled program. It returns an error if the
// program contains hypothetical premises, a rule that is not
// range-restricted, or recursion through negation.
func New(cp *ast.CProgram) (*Engine, error) {
	rules := make([]int, len(cp.Rules))
	for ri, r := range cp.Rules {
		rules[ri] = ri
		// Range restriction: every head variable must occur in a positive
		// body premise, so bottom-up evaluation grounds heads fully.
		inBody := make([]bool, r.NumVars)
		for _, pr := range r.Body {
			if pr.Kind == ast.Hyp || pr.Kind == ast.NegHyp {
				return nil, fmt.Errorf("horn: rule at line %d has a hypothetical premise; use the hypo engines", r.Line)
			}
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
	base, err := facts.Load(cp, nil)
	if err != nil {
		return nil, err
	}
	// Every rule is in the one Δ part, so nothing is defined below it and
	// no oracle is needed.
	b := new(topdown.Budget)
	pv, err := bottomup.New(cp, base, ref.Domain(cp), rules, nil, b)
	if err != nil {
		return nil, fmt.Errorf("horn: %w", err)
	}
	return &Engine{base: base, pv: pv, b: b}, nil
}

// JoinProbes reports how many candidate atoms the joins have inspected.
func (e *Engine) JoinProbes() int64 { return e.b.Stats.JoinProbes }

// Model returns the derived atoms, sorted. Base facts are not included.
func (e *Engine) Model() ([]facts.AtomID, error) {
	out, err := e.pv.Model(facts.NewState(e.base))
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}
