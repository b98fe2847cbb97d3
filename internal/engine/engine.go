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
// Both satisfy the Asker interface; Solutions enumerates the answers of a
// non-ground query over the domain.
package engine

import (
	"context"
	"fmt"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/bottomup"
	"hypodatalog/internal/facts"
	"hypodatalog/internal/strat"
	"hypodatalog/internal/symbols"
	"hypodatalog/internal/topdown"
)

// Asker is the query interface shared by the uniform engine and the
// cascade.
type Asker interface {
	// Ask reports whether the interned ground atom is derivable in the
	// state: R, DB+Δ ⊢ A.
	Ask(goal facts.AtomID, st facts.State) (bool, error)
	// AskCtx is Ask with cancellation: evaluation aborts with an error
	// wrapping topdown.ErrCanceled or topdown.ErrDeadline when ctx is
	// canceled mid-proof.
	AskCtx(ctx context.Context, goal facts.AtomID, st facts.State) (bool, error)
	// AskPremise evaluates a ground premise (plain, negated or
	// hypothetical).
	AskPremise(p ast.CPremise, st facts.State) (bool, error)
	// AskPremiseCtx is AskPremise with cancellation; see AskCtx.
	AskPremiseCtx(ctx context.Context, p ast.CPremise, st facts.State) (bool, error)
	// Interner gives access to the ground-atom interner.
	Interner() *facts.Interner
	// EmptyState is the state of the unmodified base database.
	EmptyState() facts.State
	// Dom is the constant domain dom(R, DB).
	Dom() []symbols.Const
}

// NewUniform builds the uniform top-down engine for a compiled program.
func NewUniform(cp *ast.CProgram, dom []symbols.Const, opts topdown.Options) *topdown.Engine {
	return topdown.New(cp, dom, opts)
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

	// ctx is the cancellation source of the in-flight *Ctx call, or nil.
	// The Σ engines and Δ provers pick it up on every routed subgoal, so
	// one context covers the whole cascade. A Cascade is not safe for
	// concurrent use.
	ctx context.Context
}

// NewCascade builds the cascade from a compiled program and its linear
// stratification (from strat.Stratify on the same source program).
func NewCascade(cp *ast.CProgram, s *strat.Stratification, dom []symbols.Const) (*Cascade, error) {
	in := facts.NewInterner(cp.Syms)
	in.SetRelevance(facts.NewRelevance(cp))
	base := facts.NewDB(in)
	for _, f := range cp.Facts {
		if _, err := base.Insert(in.InternGround(f)); err != nil {
			return nil, err
		}
	}
	return NewCascadeWithBase(cp, s, dom, base)
}

// NewCascadeWithBase builds the cascade over an existing base database
// (and its interner, whose relevance classes must be the whole program's
// or none); the program's facts are assumed to already be in it. This
// lets pooled engines share a per-version fact substrate by cloning
// instead of re-interning from scratch.
func NewCascadeWithBase(cp *ast.CProgram, s *strat.Stratification, dom []symbols.Const, base *facts.DB) (*Cascade, error) {
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
			dp, err := bottomup.New(cp, base, dom, comp, oracle)
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
		})
	}
	return c, nil
}

// SetBudgets installs the per-query budgets the whole cascade shares: one
// footprint tracker into every Σ engine and Δ prover, and one goal
// allowance (nil = unlimited) into every Σ engine, so the goal budget
// bounds their sum. The components share a single interner and base
// database, so the tracker's sources are registered once by the caller,
// not per component; the components only charge their private
// memo/materialisation state into it. Δ-part work is not goal expansion:
// the tracker and the caller's deadline are what bound it.
func (c *Cascade) SetBudgets(t *topdown.MemTracker, goals *topdown.GoalBudget) {
	for _, se := range c.sigma {
		se.SetMem(t)
		se.SetGoals(goals)
	}
	for _, dp := range c.delta {
		dp.SetMem(t)
	}
}

// Interner returns the cascade's ground-atom interner.
func (c *Cascade) Interner() *facts.Interner { return c.in }

// Base returns the cascade's base database.
func (c *Cascade) Base() *facts.DB { return c.base }

// EmptyState returns the state of the unmodified base database.
func (c *Cascade) EmptyState() facts.State { return facts.NewState(c.base) }

// Dom returns the enumeration domain.
func (c *Cascade) Dom() []symbols.Const { return c.dom }

// Stats sums the work of every PROVE_Σ engine and PROVE_Δ prover.
func (c *Cascade) Stats() topdown.Stats {
	var sum topdown.Stats
	for _, se := range c.sigma {
		sum = sum.Add(se.Stats())
	}
	for _, dp := range c.delta {
		sum = sum.Add(dp.Stats())
	}
	return sum
}

// Ask reports whether the goal is derivable in the state.
func (c *Cascade) Ask(goal facts.AtomID, st facts.State) (bool, error) {
	return c.askAt(goal, st, 2*c.numStrata)
}

// AskCtx is Ask with cancellation: every Σ engine and Δ prover the query
// is routed through polls ctx and aborts with an error wrapping
// topdown.ErrCanceled or topdown.ErrDeadline.
func (c *Cascade) AskCtx(ctx context.Context, goal facts.AtomID, st facts.State) (bool, error) {
	restore, err := c.pushCtx(ctx)
	if err != nil {
		return false, err
	}
	if restore != nil {
		defer restore()
	}
	return c.askAt(goal, st, 2*c.numStrata)
}

// AskPremiseCtx is AskPremise with cancellation; see AskCtx.
func (c *Cascade) AskPremiseCtx(ctx context.Context, p ast.CPremise, st facts.State) (bool, error) {
	restore, err := c.pushCtx(ctx)
	if err != nil {
		return false, err
	}
	if restore != nil {
		defer restore()
	}
	return c.AskPremise(p, st)
}

// pushCtx installs ctx for the duration of one public call; nil or
// never-cancellable contexts disable polling and return a nil restore.
func (c *Cascade) pushCtx(ctx context.Context) (func(), error) {
	if ctx == nil || ctx.Done() == nil {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, topdown.ContextAbort(err, topdown.Stats{})
	}
	saved := c.ctx
	c.ctx = ctx
	return func() { c.ctx = saved }, nil
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
		return c.deltaOf[pred].HoldsCtx(c.ctx, goal, st)
	}
	return c.sigma[part/2-1].AskCtx(c.ctx, goal, st)
}

// AskPremise evaluates a ground premise against the cascade.
func (c *Cascade) AskPremise(p ast.CPremise, st facts.State) (bool, error) {
	if !p.Atom.IsGround() {
		return false, fmt.Errorf("engine: AskPremise requires a ground premise")
	}
	switch p.Kind {
	case ast.Plain:
		return c.Ask(c.in.InternGround(p.Atom), st)
	case ast.Negated:
		ok, err := c.Ask(c.in.InternGround(p.Atom), st)
		return !ok, err
	case ast.Hyp:
		next := st
		for _, a := range p.Adds {
			if !a.IsGround() {
				return false, fmt.Errorf("engine: non-ground hypothetical add")
			}
			next = next.Add(c.in.InternGround(a))
		}
		for _, a := range p.Dels {
			if !a.IsGround() {
				return false, fmt.Errorf("engine: non-ground hypothetical del")
			}
			next = next.Del(c.in.InternGround(a))
		}
		return c.Ask(c.in.InternGround(p.Atom), next)
	default:
		return false, fmt.Errorf("engine: unsupported premise kind %v", p.Kind)
	}
}

// Solution is one answer to a non-ground query: the values bound to its
// variables, in slot order.
type Solution []symbols.Const

// Solutions enumerates the answers of a (possibly non-ground) premise by
// instantiating its variables over the domain and asking the engine. The
// variable slots are numbered by first occurrence; numVars is the size of
// the premise's binding space (from ast.CompilePremise's names).
func Solutions(a Asker, p ast.CPremise, numVars int, st facts.State) ([]Solution, error) {
	return SolutionsCtx(context.Background(), a, p, numVars, st)
}

// SolutionsCtx is Solutions with cancellation: both the domain
// enumeration and each per-instance proof poll ctx, so even queries whose
// cost is dominated by the dom^numVars instantiation loop abort promptly
// with an error wrapping topdown.ErrCanceled or topdown.ErrDeadline.
func SolutionsCtx(ctx context.Context, a Asker, p ast.CPremise, numVars int, st facts.State) ([]Solution, error) {
	var out []Solution
	err := SolutionsEachCtx(ctx, a, p, numVars, st, func(s Solution) error {
		out = append(out, s)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SolutionsEachCtx is SolutionsCtx with streaming delivery: each solution
// is passed to yield as soon as its proof succeeds, and nothing is
// accumulated, so an answer set larger than memory can be forwarded
// incrementally (e.g. onto a network connection). The yielded slice is
// owned by the callee. A non-nil error from yield stops the enumeration
// and is returned verbatim, so callers can distinguish their own
// delivery failures from evaluation aborts.
func SolutionsEachCtx(ctx context.Context, a Asker, p ast.CPremise, numVars int, st facts.State, yield func(Solution) error) error {
	if numVars == 0 {
		ok, err := a.AskPremiseCtx(ctx, p, st)
		if err != nil {
			return err
		}
		if ok {
			return yield(Solution{})
		}
		return nil
	}
	cancellable := ctx != nil && ctx.Done() != nil
	dom := a.Dom()
	binding := make([]symbols.Const, numVars)
	var tried int64
	var rec func(i int) error
	rec = func(i int) error {
		if i == numVars {
			tried++
			if cancellable && tried%ctxCheckInterval == 0 {
				if err := ctx.Err(); err != nil {
					return topdown.ContextAbort(err, topdown.Stats{})
				}
			}
			g, err := groundPremise(p, binding)
			if err != nil {
				return err
			}
			ok, err := a.AskPremiseCtx(ctx, g, st)
			if err != nil {
				return err
			}
			if ok {
				return yield(append(Solution(nil), binding...))
			}
			return nil
		}
		for _, c := range dom {
			binding[i] = c
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0)
}

// ctxCheckInterval is how many query instantiations pass between context
// polls in SolutionsCtx.
const ctxCheckInterval = 256

// groundPremise substitutes binding into a premise.
func groundPremise(p ast.CPremise, binding []symbols.Const) (ast.CPremise, error) {
	g := ast.CPremise{Kind: p.Kind, Atom: groundCAtom(p.Atom, binding)}
	for _, a := range p.Adds {
		g.Adds = append(g.Adds, groundCAtom(a, binding))
	}
	for _, a := range p.Dels {
		g.Dels = append(g.Dels, groundCAtom(a, binding))
	}
	return g, nil
}

func groundCAtom(a ast.CAtom, binding []symbols.Const) ast.CAtom {
	out := ast.CAtom{Pred: a.Pred}
	if len(a.Args) > 0 {
		out.Args = make([]ast.CTerm, len(a.Args))
	}
	for i, t := range a.Args {
		if t.IsVar() {
			out.Args[i] = ast.CConst(binding[t.VarSlot()])
		} else {
			out.Args[i] = t
		}
	}
	return out
}
