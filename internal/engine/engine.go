// Package engine assembles the evaluator of a hypothetical Datalog
// program: one Cascade, the paper's PROVE_k, ..., PROVE_1 architecture
// (section 5.2). Given a linear stratification it builds one top-down
// PROVE_Σi engine (package topdown) per stratum's Σ part and one
// bottom-up PROVE_Δi materialiser per connected component of each Δ
// part, each stratum using the one below as its oracle. Given none it is
// the uniform evaluator: a single Σ engine over the whole rulebase, which
// works for any program with stratified negation.
//
// Either way the cascade is its top Σ engine — Ask, Read and Explain run
// there, every predicate below it answered by its resolver — and every
// component is built around one topdown.Budget: the caller begins it
// once per query with the query's context, and the goal allowance, the
// memory meter and the cancellation poll then bound the whole evaluator.
// A read is a one-premise body the top engine runs as it runs a rule
// body (topdown.Engine.Read).
package engine

import (
	"fmt"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/bottomup"
	"hypodatalog/internal/facts"
	"hypodatalog/internal/strat"
	"hypodatalog/internal/symbols"
	"hypodatalog/internal/topdown"
)

// Cascade is the stratified PROVE cascade of section 5.2, or, built
// without a stratification, its one-stratum form: the uniform evaluator.
// The embedded engine is the top stratum's PROVE_Σ, on which every query
// runs.
type Cascade struct {
	*topdown.Engine

	partOf map[symbols.Pred]int // partition number; 0 = extensional
	sigma  []*topdown.Engine    // sigma[i]: PROVE_Σ(i+1)
	// delta holds one PROVE_Δ prover per connected component of each Δ
	// part (strat.Stratification.DeltaComps), in stratum order; deltaOf
	// routes a Δ predicate to its component's prover, so a goal
	// materialises only the rules it can read.
	delta   []*bottomup.Prover
	deltaOf map[symbols.Pred]*bottomup.Prover
}

// NewCascadeWithBase builds the cascade over an existing base database
// (and its interner, whose keying stage — relevance classes and must-add
// sets — must be the whole program's or none); the program's facts are
// assumed to already be in it. This
// lets pooled engines clone their pool's base instead of re-interning
// the facts from scratch.
//
// Every PROVE_Σ engine and PROVE_Δ prover is built around b, so the goal
// allowance bounds the Σ engines' sum and one memory meter takes every
// component's charges. The meter's substrate sources (the shared interner
// and database) are the caller's to register, once. Δ-part work is not
// goal expansion: the meter and the query's context are what bound it.
//
// A nil s builds the uniform evaluator: one Σ engine over the whole
// program, with no Δ provers and no resolver.
func NewCascadeWithBase(cp *ast.CProgram, s *strat.Stratification, dom []symbols.Const, base *facts.DB, b *topdown.Budget) (*Cascade, error) {
	if b == nil {
		b = new(topdown.Budget)
	}
	if s == nil || s.NumStrata == 0 { // a program without strata has no rules
		top := topdown.NewWithBase(cp, base, dom, topdown.Options{}, b)
		return &Cascade{Engine: top, sigma: []*topdown.Engine{top}}, nil
	}
	c := &Cascade{
		partOf:  make(map[symbols.Pred]int),
		deltaOf: make(map[symbols.Pred]*bottomup.Prover),
	}
	for sig, part := range s.Part {
		p, ok := cp.Syms.LookupPred(sig.Name, sig.Arity)
		if !ok {
			continue
		}
		if cp.IDB[p] {
			c.partOf[p] = part
		}
	}
	c.sigma = make([]*topdown.Engine, s.NumStrata)
	for i := 1; i <= s.NumStrata; i++ {
		i := i
		var oracle bottomup.Oracle
		if i >= 2 {
			oracle = func(goal facts.AtomID, st facts.State) (bool, error) {
				return c.askAt(goal, st, 2*(i-1))
			}
		}
		for _, comp := range s.DeltaComps[i-1] {
			dp, err := bottomup.New(cp, base, dom, comp, oracle, b)
			if err != nil {
				return nil, fmt.Errorf("engine: stratum %d Δ part: %w", i, err)
			}
			c.delta = append(c.delta, dp)
			for _, ri := range comp {
				c.deltaOf[cp.Rules[ri].Head.Pred] = dp
			}
		}

		external := make(map[symbols.Pred]bool)
		for p, part := range c.partOf {
			if part <= 2*i-1 {
				external[p] = true
			}
		}
		c.sigma[i-1] = topdown.NewWithBase(cp.Restrict(s.Sigma[i-1]), base, dom, topdown.Options{
			Resolver: func(goal facts.AtomID, st facts.State) (bool, error) {
				return c.askAt(goal, st, 2*i-1)
			},
			ExternalIDB: external,
		}, b)
	}
	c.Engine = c.sigma[s.NumStrata-1]
	return c, nil
}

// ApplyDelta applies a commit's effective base-fact delta to the cascade
// in place instead of rebuilding it. cone is the affected cone of the
// changed predicates (facts.Relevance.Affected): everything outside it
// keeps its Σ memo entries and Δ materialisations verbatim. The shared
// base database is mutated first, then Σ memo entries whose goal
// predicate is in the cone are pruned, and then each Δ prover (one per
// component of each Δ part), lowest stratum first, extends its root model
// by the added atoms or drops it (bottomup.Prover.ApplyDelta), so an
// oracle it consults reads lower strata already at the new facts.
//
// The caller must hold the cascade exclusively (no query in flight). On
// error the cascade is left half-mutated and must be discarded.
func (c *Cascade) ApplyDelta(added, removed []facts.AtomID, cone map[symbols.Pred]bool) error {
	for _, id := range removed {
		c.Base().Remove(id)
	}
	for _, id := range added {
		if _, err := c.Base().Insert(id); err != nil {
			return err
		}
	}
	for _, se := range c.sigma {
		se.PruneTable(cone)
	}
	for _, dp := range c.delta {
		dp.ApplyDelta(added, removed, cone)
	}
	return nil
}

// askAt answers a goal whose predicate must live at partition <= maxPart,
// routing odd partitions to PROVE_Δ and even ones to PROVE_Σ.
func (c *Cascade) askAt(goal facts.AtomID, st facts.State, maxPart int) (bool, error) {
	if st.Has(goal) {
		return true, nil
	}
	pred := c.Interner().Pred(goal)
	part, ok := c.partOf[pred]
	if !ok {
		return false, nil // extensional and not in the state
	}
	if part > maxPart {
		return false, fmt.Errorf("engine: goal %s at partition %d consulted from partition bound %d (stratification violation)",
			c.Interner().Format(goal), part, maxPart)
	}
	if part%2 == 1 {
		return c.deltaOf[pred].Holds(goal, st)
	}
	return c.sigma[part/2-1].Ask(goal, st)
}
