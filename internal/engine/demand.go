package engine

import (
	"context"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/bottomup"
	"hypodatalog/internal/facts"
	"hypodatalog/internal/magic"
	"hypodatalog/internal/metrics"
	"hypodatalog/internal/symbols"
	"hypodatalog/internal/topdown"
)

// Demand is the demand-driven (magic-sets) evaluation mode: an Asker
// that answers ground goals by evaluating the magic-transformed program
// for the goal's predicate, seeded with the goal's arguments, and routes
// everything else — non-intensional goals, patterns the transform cannot
// restrict, out-of-scope subgoals reached during evaluation — to the
// full inner engine it wraps.
//
// The magic seed travels in the query state's hypothetical delta: asking
// p(ā) under state S evaluates the transformed program over S + the seed
// atom 'magic$p$b..b'(ā). The per-state materialisation cache of the
// underlying bottom-up prover therefore keys demand models by (state,
// seed) pairs with no extra bookkeeping, and hypothetical [add:]/[del:]
// contexts compose with demand for free — the effective delta and the
// seed are one delta.
//
// A Demand is engine-local and, like the engines it wraps, not safe for
// concurrent use; the transform/compile cache (magic.Set) is shared and
// concurrency-safe.
type Demand struct {
	inner Asker
	set   *magic.Set
	cp    *ast.CProgram
	base  *facts.DB
	in    *facts.Interner
	dom   []symbols.Const
	mets  *metrics.Set
	mem   *topdown.MemTracker

	// ctx is the cancellation source for oracle callbacks into the inner
	// engine, installed per public call (the provers poll their own).
	ctx context.Context

	pats map[symbols.Pred]*demandPattern
}

// demandPattern is one per-engine installed pattern: the shared compiled
// transform plus this engine's prover for it. comp.CP == nil marks an
// ineligible predicate (cached so the fallback decision is made once).
type demandPattern struct {
	comp *magic.Compiled
	pv   *bottomup.Prover
}

// NewDemand wraps an engine's asker in demand-driven evaluation. cp is
// the source program's compiled form (for intensionality checks), set
// the program's shared pattern cache.
func NewDemand(inner Asker, set *magic.Set, cp *ast.CProgram, mets *metrics.Set) *Demand {
	base := inner.EmptyState().Base
	return &Demand{
		inner: inner,
		set:   set,
		cp:    cp,
		base:  base,
		in:    base.Interner(),
		dom:   inner.Dom(),
		mets:  mets,
		pats:  map[symbols.Pred]*demandPattern{},
	}
}

// SetMem installs the engine's shared memory tracker on provers built
// from now on (call before use, as hypo does).
func (d *Demand) SetMem(t *topdown.MemTracker) { d.mem = t }

// Stats sums the Δ-part work of the demand provers installed so far (the
// inner engine reports its own).
func (d *Demand) Stats() topdown.Stats {
	var sum topdown.Stats
	for _, pat := range d.pats {
		if pat.pv != nil {
			sum = sum.Add(pat.pv.Stats())
		}
	}
	return sum
}

// Interner returns the shared atom interner.
func (d *Demand) Interner() *facts.Interner { return d.in }

// EmptyState returns the state of the unmodified base database.
func (d *Demand) EmptyState() facts.State { return facts.NewState(d.base) }

// Dom returns the active constant domain.
func (d *Demand) Dom() []symbols.Const { return d.dom }

// Ask answers a ground goal demand-driven.
func (d *Demand) Ask(goal facts.AtomID, st facts.State) (bool, error) {
	return d.AskCtx(nil, goal, st)
}

// AskCtx is Ask with cancellation.
func (d *Demand) AskCtx(ctx context.Context, goal facts.AtomID, st facts.State) (bool, error) {
	pat, err := d.pattern(d.in.Pred(goal))
	if err != nil {
		return false, err
	}
	if pat == nil {
		return d.inner.AskCtx(ctx, goal, st)
	}
	d.mets.MagicQueries.Inc()
	seed := d.in.ID(pat.comp.Seed, d.in.Args(goal))
	saved := d.ctx
	d.ctx = ctx
	defer func() { d.ctx = saved }()
	return pat.pv.HoldsCtx(ctx, goal, st.Add(seed))
}

// AskPremise evaluates one ground premise against a state.
func (d *Demand) AskPremise(p ast.CPremise, st facts.State) (bool, error) {
	return d.AskPremiseCtx(nil, p, st)
}

// AskPremiseCtx evaluates one ground premise — plain, negated, or
// hypothetical — routing the resulting ground goal through demand.
func (d *Demand) AskPremiseCtx(ctx context.Context, p ast.CPremise, st facts.State) (bool, error) {
	if !p.Atom.IsGround() {
		return d.inner.AskPremiseCtx(ctx, p, st)
	}
	switch p.Kind {
	case ast.Plain:
		return d.AskCtx(ctx, d.in.InternGround(p.Atom), st)
	case ast.Negated:
		ok, err := d.AskCtx(ctx, d.in.InternGround(p.Atom), st)
		return !ok, err
	case ast.Hyp:
		next := st
		for _, a := range p.Adds {
			if !a.IsGround() {
				return d.inner.AskPremiseCtx(ctx, p, st)
			}
			next = next.Add(d.in.InternGround(a))
		}
		for _, a := range p.Dels {
			if !a.IsGround() {
				return d.inner.AskPremiseCtx(ctx, p, st)
			}
			next = next.Del(d.in.InternGround(a))
		}
		return d.AskCtx(ctx, d.in.InternGround(p.Atom), next)
	default:
		return d.inner.AskPremiseCtx(ctx, p, st)
	}
}

// pattern returns the engine-local pattern for a predicate, installing
// it on first use, or nil when the predicate must fall back to the inner
// engine (extensional, degenerate transform, or compile failure).
func (d *Demand) pattern(pred symbols.Pred) (*demandPattern, error) {
	if pat, ok := d.pats[pred]; ok {
		if pat.comp == nil {
			return nil, nil
		}
		return pat, nil
	}
	if !d.cp.IDB[pred] {
		// Extensional goals are a state lookup either way; not a magic
		// fallback, just not demand's business.
		d.pats[pred] = &demandPattern{}
		return nil, nil
	}
	sig := ast.PredSig{Name: d.cp.Syms.PredName(pred), Arity: d.cp.Syms.PredArity(pred)}
	comp := d.set.For(sig)
	if !comp.Eligible() {
		d.mets.MagicFallbacks.Inc()
		d.pats[pred] = &demandPattern{}
		return nil, nil
	}
	pv, err := bottomup.New(comp.CP, d.base, d.dom, comp.RuleIdx, d.oracle)
	if err != nil {
		// The transformed program introduced no negation of its own, so
		// this should be unreachable; degrade to the full engine rather
		// than failing queries.
		d.mets.MagicFallbacks.Inc()
		d.pats[pred] = &demandPattern{}
		return nil, nil
	}
	pv.SetMem(d.mem)
	d.mets.MagicTransforms.Inc()
	pat := &demandPattern{comp: comp, pv: pv}
	d.pats[pred] = pat
	return pat, nil
}

// oracle answers out-of-scope subgoals with the full inner engine. The
// state it receives may carry magic seed atoms in its delta; user rules
// never mention magic predicates, so they are inert there (and make the
// inner memo keys demand-distinct for free).
func (d *Demand) oracle(goal facts.AtomID, st facts.State) (bool, error) {
	return d.inner.AskCtx(d.ctx, goal, st)
}

// Invalidate maintains the demand caches across a base-fact commit with
// the given affected-predicate cone. A pattern whose transformed rules
// mention a cone predicate may derive different answers now: its whole
// materialisation cache is dropped. Patterns disjoint from the cone keep
// their models, but entries whose state delta touches the committed
// atoms are dropped anyway — their state keys are no longer canonical
// against the new base.
func (d *Demand) Invalidate(cone map[symbols.Pred]bool, added, removed []facts.AtomID) {
	for _, pat := range d.pats {
		if pat.comp == nil || pat.pv == nil {
			continue
		}
		stale := false
		for _, m := range pat.comp.Mentioned {
			if cone[m] {
				stale = true
				break
			}
		}
		if stale {
			pat.pv.DropCache()
			d.mets.MagicInvalidations.Inc()
		} else {
			pat.pv.DropTouching(added, removed)
		}
	}
}

// InstalledRules returns the transformed rules of every pattern compiled
// for this program so far (across all engines sharing the Set), for
// dependency-graph extension in commit-cone computation.
func (d *Demand) InstalledRules() []ast.Rule { return d.set.Installed() }
