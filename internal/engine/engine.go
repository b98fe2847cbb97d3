// Package engine assembles complete evaluators for hypothetical Datalog
// programs.
//
// Two evaluators implement the same inference relation:
//
//   - Uniform: the top-down tabled engine (package topdown) over the whole
//     rulebase. Works for any program with stratified negation.
//   - Cascade: the paper's PROVE_k, ..., PROVE_1 architecture (section
//     5.2): one top-down PROVE_Σi engine per stratum's Σ part, one
//     bottom-up PROVE_Δi materialiser per connected component of each Δ
//     part, each stratum using the one below as its oracle. Requires a
//     linear stratification.
//
// Both satisfy the Asker interface and are built around one
// topdown.Budget, which every component of a cascade shares: the caller
// begins it once per query with the query's context, and the goal
// allowance, the memory meter and the cancellation poll then bound the
// whole evaluator. AskPremise decides a premise instance on either, and
// Solutions enumerates the answers of a non-ground premise: an open read
// of a predicate the program does not define matches the state
// (facts.Match), and every other read ranges its variables over the
// domain.
package engine

import (
	"fmt"
	"slices"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/bottomup"
	"hypodatalog/internal/facts"
	"hypodatalog/internal/strat"
	"hypodatalog/internal/symbols"
	"hypodatalog/internal/topdown"
)

// Asker is the query interface shared by the uniform engine and the
// cascade. Its limits and its work ledger are not part of it: they are
// the Budget the evaluator was built with.
type Asker interface {
	// Ask reports whether the interned ground atom is derivable in the
	// state: R, DB+Δ ⊢ A. It aborts with a *topdown.AbortError when the
	// evaluator's Budget runs out or its query's context is done.
	Ask(goal facts.AtomID, st facts.State) (bool, error)
	// ApplyDelta applies a commit's effective base-fact delta in place,
	// keeping what lies outside cone, the commit's affected cone.
	ApplyDelta(added, removed []facts.AtomID, cone map[symbols.Pred]bool) error
	// Interner gives access to the ground-atom interner.
	Interner() *facts.Interner
	// EmptyState is the state of the unmodified base database.
	EmptyState() facts.State
	// Dom is the constant domain dom(R, DB).
	Dom() []symbols.Const
	// Extensional reports whether the evaluator has no rules for pred: a
	// goal of it holds exactly when the state has it.
	Extensional(pred symbols.Pred) bool
}

// Cascade is the stratified PROVE cascade of section 5.2.
type Cascade struct {
	prog *ast.CProgram
	in   *facts.Interner
	base *facts.DB
	dom  []symbols.Const

	partOf    map[symbols.Pred]int // partition number; 0 = extensional
	numStrata int
	sigma     []*topdown.Engine // sigma[i]: PROVE_Σ(i+1)
	// delta holds one PROVE_Δ prover per connected component of each Δ
	// part (strat.Stratification.DeltaComps), in stratum order; deltaOf
	// routes a Δ predicate to its component's prover, so a goal
	// materialises only the rules it can read.
	delta   []*bottomup.Prover
	deltaOf map[symbols.Pred]*bottomup.Prover
}

// NewCascade builds the cascade from a compiled program and its linear
// stratification (from strat.Stratify on the same source program). Every
// component draws on b; a nil b sets no limits.
func NewCascade(cp *ast.CProgram, s *strat.Stratification, dom []symbols.Const, b *topdown.Budget) (*Cascade, error) {
	base, err := facts.Load(cp, facts.NewRelevance(cp))
	if err != nil {
		return nil, err
	}
	return NewCascadeWithBase(cp, s, dom, base, b)
}

// NewCascadeWithBase builds the cascade over an existing base database
// (and its interner, whose keying stage — relevance classes and must-add
// sets — must be the whole program's or none); the program's facts are
// assumed to already be in it. This
// lets pooled engines share a per-version fact substrate by cloning
// instead of re-interning from scratch.
//
// Every PROVE_Σ engine and PROVE_Δ prover is built around b, so the goal
// allowance bounds the Σ engines' sum and one memory meter takes every
// component's charges. The meter's substrate sources (the shared interner
// and database) are the caller's to register, once. Δ-part work is not
// goal expansion: the meter and the query's context are what bound it.
func NewCascadeWithBase(cp *ast.CProgram, s *strat.Stratification, dom []symbols.Const, base *facts.DB, b *topdown.Budget) (*Cascade, error) {
	if b == nil {
		b = new(topdown.Budget)
	}
	c := &Cascade{
		prog:      cp,
		in:        base.Interner(),
		base:      base,
		dom:       dom,
		partOf:    make(map[symbols.Pred]int),
		numStrata: s.NumStrata,
		deltaOf:   make(map[symbols.Pred]*bottomup.Prover),
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
	return c, nil
}

// Interner returns the cascade's ground-atom interner.
func (c *Cascade) Interner() *facts.Interner { return c.in }

// Base returns the cascade's base database.
func (c *Cascade) Base() *facts.DB { return c.base }

// EmptyState returns the state of the unmodified base database.
func (c *Cascade) EmptyState() facts.State { return facts.NewState(c.base) }

// Dom returns the enumeration domain.
func (c *Cascade) Dom() []symbols.Const { return c.dom }

// Extensional reports whether the program does not define pred.
func (c *Cascade) Extensional(pred symbols.Pred) bool {
	_, ok := c.partOf[pred]
	return !ok
}

// Ask reports whether the goal is derivable in the state.
func (c *Cascade) Ask(goal facts.AtomID, st facts.State) (bool, error) {
	return c.askAt(goal, st, 2*c.numStrata)
}

// ApplyDelta applies a commit's effective base-fact delta to the cascade
// in place instead of rebuilding it. cone is the affected cone of the
// changed predicates (depgraph.Cone translated to interned predicates):
// everything outside it keeps its Σ memo entries and Δ materialisations
// verbatim. The update is two-phase because DRed overdeletion must join
// against the pre-commit database:
//
//  1. each Δ prover (one per component of each Δ part) plans — per cached
//     state, either drop the entry or compute its overdeletion set against
//     the old base;
//  2. the shared base database is mutated;
//  3. Σ memo entries whose goal predicate is in the cone are pruned;
//  4. each planned Δ entry is finished: overdeleted atoms are removed,
//     survivors rederived, and rederivations plus additions propagated
//     semi-naively to the new fixpoint, lowest stratum first so oracle
//     consultations during rederivation see fully-updated lower strata.
//
// The caller must hold the cascade exclusively (no query in flight). On
// error the cascade is left half-mutated and must be discarded.
func (c *Cascade) ApplyDelta(added, removed []facts.AtomID, cone map[symbols.Pred]bool) error {
	plans := make([]*bottomup.Plan, len(c.delta))
	for i, dp := range c.delta {
		plans[i] = dp.PlanDelta(added, removed, cone)
	}
	for _, id := range removed {
		c.base.Remove(id)
	}
	for _, id := range added {
		if _, err := c.base.Insert(id); err != nil {
			return err
		}
	}
	for _, se := range c.sigma {
		se.PruneTable(cone)
	}
	for i, dp := range c.delta {
		dp.ApplyPlan(plans[i], added)
	}
	return nil
}

// askAt answers a goal whose predicate must live at partition <= maxPart,
// routing odd partitions to PROVE_Δ and even ones to PROVE_Σ.
func (c *Cascade) askAt(goal facts.AtomID, st facts.State, maxPart int) (bool, error) {
	if st.Has(goal) {
		return true, nil
	}
	pred := c.in.Pred(goal)
	part, ok := c.partOf[pred]
	if !ok {
		return false, nil // extensional and not in the state
	}
	if part > maxPart {
		return false, fmt.Errorf("engine: goal %s at partition %d consulted from partition bound %d (stratification violation)",
			c.in.Format(goal), part, maxPart)
	}
	if part%2 == 1 {
		return c.deltaOf[pred].Holds(goal, st)
	}
	return c.sigma[part/2-1].Ask(goal, st)
}

// AskPremise decides the instance of a plain, negated or hypothetical
// premise under binding (nil for a ground premise) on a: R, DB+Δ ⊢ ψ.
func AskPremise(a Asker, p ast.CPremise, binding []symbols.Const, st facts.State) (bool, error) {
	ok, err := a.Ask(a.Interner().Instance(&p, binding, st))
	return ok != (p.Kind == ast.Negated), err
}

// Solution is one answer to a non-ground query: the values bound to its
// variables, in slot order.
type Solution []symbols.Const

// Solutions enumerates the answers of a (possibly non-ground) premise,
// passing each to yield as soon as it is found; nothing is accumulated,
// so an answer set larger than memory can be forwarded incrementally.
// The variable slots are numbered by first occurrence; numVars is the
// size of the premise's binding space (from ast.CompilePremise's names).
// The yielded slice is owned by the callee; a non-nil error from yield
// stops the enumeration and is returned verbatim.
//
// An open read of a predicate a does not define — plain, or hypothetical
// with ground adds and dels — matches the state it is asked in
// (facts.Match), asks no goal and streams its bindings in the state's
// index order. Every other read ranges its variables over the domain in
// dom order and asks a each instance; the bindings tried count into b's
// Enumerated. Every answer and every domain binding ticks b, a's Budget,
// so a read whose cost is the enumeration itself still aborts promptly.
func Solutions(a Asker, b *topdown.Budget, p ast.CPremise, numVars int, st facts.State, yield func(Solution) error) error {
	binding := ast.NewBinding(numVars)
	if numVars > 0 && matchable(a, &p) {
		_, err := facts.Match(a.Interner().Under(&p, nil, st), p.Atom, binding, func() error {
			if ae := b.Tick(); ae != nil {
				return ae
			}
			return yield(append(Solution{}, binding...))
		})
		return err
	}
	slots := make([]int, numVars)
	for i := range slots {
		slots[i] = i
	}
	tried, err := ast.Assign(slots, a.Dom(), binding, func() error {
		if ae := b.Tick(); ae != nil {
			return ae
		}
		ok, err := AskPremise(a, p, binding, st)
		if err != nil || !ok {
			return err
		}
		return yield(append(Solution{}, binding...))
	})
	b.Stats.Enumerated += int64(tried)
	return err
}

// matchable reports whether a premise's answers are the state's atoms
// matching it: a plain or hypothetical premise over a predicate a does not
// define, whose adds and dels are ground.
func matchable(a Asker, p *ast.CPremise) bool {
	open := func(h ast.CAtom) bool { return !h.IsGround() }
	return (p.Kind == ast.Plain || p.Kind == ast.Hyp) && a.Extensional(p.Atom.Pred) &&
		!slices.ContainsFunc(p.Adds, open) && !slices.ContainsFunc(p.Dels, open)
}
