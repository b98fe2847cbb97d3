// Package bottomup implements the paper's PROVE_Δi procedure (section
// 5.2.2): bottom-up materialisation of a Δ part — a set of Horn rules with
// stratified negation, possibly containing hypothetical premises whose
// predicates are defined in lower strata.
//
// Following the paper, the Δ rules are sub-partitioned into negation
// strata Δ_i1, ..., Δ_im; LFP applies each sub-stratum's rules to a
// fixpoint in order, building the perfect model of Δ_i and the state.
// TEST⁰ routes hypothetical premises and lower-strata predicates to an
// oracle (PROVE_Σ(i-1) in the cascade). Materialisations are cached per
// hypothetical state. Each fixpoint is semi-naive over an index of the
// atoms derived so far (join.go); incremental.go maintains cached models
// across base-fact commits with the same joins.
package bottomup

import (
	"context"
	"fmt"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/facts"
	"hypodatalog/internal/symbols"
	"hypodatalog/internal/topdown"
)

// Oracle answers goals whose predicates are defined below this Δ part —
// in the cascade, PROVE_Σ(i-1).Ask. The state passed may extend the
// current one with hypothetical additions.
type Oracle func(goal facts.AtomID, st facts.State) (bool, error)

// Prover materialises the perfect model of one Δ part per state.
// A Prover is not safe for concurrent use.
type Prover struct {
	prog   *ast.CProgram // full program (for rule storage and symbols)
	in     *facts.Interner
	base   *facts.DB
	dom    []symbols.Const
	oracle Oracle

	rules    []*rule                   // the rules forming this Δ part, compiled
	own      map[symbols.Pred]bool     // predicates defined by those rules
	levels   [][]*rule                 // rules grouped by negation sub-stratum
	cache    map[facts.StateID]atomSet // state -> materialised model
	maxCache int

	// ctx is the cancellation source of the in-flight *Ctx call, or nil
	// when the call is not cancellable; the join loop polls it every
	// ctxCheckInterval steps and the fixpoint loop once per round.
	ctx   context.Context
	steps int64
	args  []symbols.Const // ground's scratch

	// mem is the shared footprint tracker of the enclosing cascade (via
	// SetMem); nil disables accounting and the budget. Derived atoms, the
	// index over them while a materialisation runs, and cached
	// materialisations are charged into it as they grow, and the join loop
	// polls it at the same points as the context.
	mem *topdown.MemTracker

	// stats counts this prover's work (Materialisations, JoinProbes,
	// IncStates, IncDropped) as plain integers; whoever owns the prover
	// reads them with Stats and does the metrics accounting, once per query.
	stats topdown.Stats
}

// ctxCheckInterval is how many join steps pass between context polls.
const ctxCheckInterval = 1024

// matAtomBytes approximates the heap cost of one derived atom in a
// materialised model; matEntryOverhead the fixed cost of one cache entry
// beyond its atoms (map slot with its 4-byte state id, the atom set's
// header). The state itself is charged by the interner's state table.
const (
	matAtomBytes     = 16
	matEntryOverhead = 64
)

// SetMem installs the cascade's shared footprint tracker.
func (p *Prover) SetMem(t *topdown.MemTracker) { p.mem = t }

// Stats returns the prover's Δ-part work counters.
func (p *Prover) Stats() topdown.Stats { return p.stats }

type atomSet map[facts.AtomID]struct{}

func (s atomSet) has(id facts.AtomID) bool { _, ok := s[id]; return ok }

// New builds a Δ prover over a subset of the program's rules. oracle may
// be nil when the Δ part is self-contained (stratum 1 with no
// hypothetical premises); it is then an error for evaluation to need it.
func New(cp *ast.CProgram, base *facts.DB, dom []symbols.Const, rules []int, oracle Oracle) (*Prover, error) {
	p := &Prover{
		prog:     cp,
		in:       base.Interner(),
		base:     base,
		dom:      dom,
		oracle:   oracle,
		own:      make(map[symbols.Pred]bool),
		cache:    make(map[facts.StateID]atomSet),
		maxCache: 1 << 16,
	}
	for _, ri := range rules {
		p.own[cp.Rules[ri].Head.Pred] = true
	}
	// Plans depend on the whole own set (it decides which premises match
	// locally), so rules compile only once it is complete.
	for _, ri := range rules {
		p.rules = append(p.rules, p.compileRule(&cp.Rules[ri]))
	}
	lv, err := p.negationLevels()
	if err != nil {
		return nil, err
	}
	p.levels = lv
	return p, nil
}

// negationLevels sub-partitions the Δ rules so that within each level,
// negation refers only to lower levels (the Δ_i1..Δ_im of the paper).
// It fails if the part has recursion through negation.
func (p *Prover) negationLevels() ([][]*rule, error) {
	level := map[symbols.Pred]int{}
	for q := range p.own {
		level[q] = 1
	}
	n := len(p.own)
	// Relax: level(head) >= level(pos premise); > level(negated premise).
	for pass := 0; ; pass++ {
		if pass > 2*n+2 {
			return nil, fmt.Errorf("bottomup: recursion through negation in Δ part")
		}
		changed := false
		for _, cr := range p.rules {
			h := cr.r.Head.Pred
			for _, pr := range cr.r.Body {
				q := pr.Atom.Pred
				if !p.own[q] {
					continue
				}
				switch pr.Kind {
				case ast.Plain:
					if level[h] < level[q] {
						level[h] = level[q]
						changed = true
					}
				case ast.Negated:
					if level[h] <= level[q] {
						level[h] = level[q] + 1
						changed = true
					}
				case ast.Hyp:
					// H-stratification places hypothetical premises of a Δ
					// part strictly below it, so q should not be owned;
					// treat an owned one like a positive dependency.
					if level[h] < level[q] {
						level[h] = level[q]
						changed = true
					}
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
	out := make([][]*rule, maxLvl)
	for _, cr := range p.rules {
		l := level[cr.r.Head.Pred]
		out[l-1] = append(out[l-1], cr)
	}
	return out, nil
}

// Owns reports whether the prover's Δ part defines the predicate.
func (p *Prover) Owns(pred symbols.Pred) bool { return p.own[pred] }

// Holds reports whether the goal atom is in the perfect model of the Δ
// part over the state (or in the state itself).
func (p *Prover) Holds(goal facts.AtomID, st facts.State) (bool, error) {
	if st.Has(goal) {
		return true, nil
	}
	m, err := p.Materialise(st)
	if err != nil {
		return false, err
	}
	return m.has(goal), nil
}

// HoldsCtx is Holds with cancellation: a materialisation in progress is
// aborted with topdown.ErrCanceled / topdown.ErrDeadline (wrapped in a
// *topdown.AbortError) when ctx is canceled. Aborted materialisations are
// not cached.
func (p *Prover) HoldsCtx(ctx context.Context, goal facts.AtomID, st facts.State) (bool, error) {
	restore, err := p.pushCtx(ctx)
	if err != nil {
		return false, err
	}
	if restore != nil {
		defer restore()
	}
	return p.Holds(goal, st)
}

// pushCtx installs ctx as the prover's cancellation source for one public
// call; nil or never-cancellable contexts disable polling (and return a
// nil restore, keeping that path allocation-free).
func (p *Prover) pushCtx(ctx context.Context) (func(), error) {
	if ctx == nil || ctx.Done() == nil {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, topdown.ContextAbort(err, topdown.Stats{})
	}
	saved := p.ctx
	p.ctx = ctx
	return func() { p.ctx = saved }, nil
}

// poll checks the installed context, then the shared memory budget.
func (p *Prover) poll() error {
	if p.ctx != nil {
		if err := p.ctx.Err(); err != nil {
			return topdown.ContextAbort(err, topdown.Stats{})
		}
	}
	if p.mem.Over() {
		return &topdown.AbortError{
			Reason: topdown.ErrMemory,
			Limit:  p.mem.Max(),
			Stats:  topdown.Stats{MemBytes: p.mem.Grown()},
		}
	}
	return nil
}

// Materialise computes (or returns the cached) perfect model of the Δ part
// over the state, per the paper's PROVE_Δi main loop. Cached models are
// held by state id alone; incremental maintenance (incremental.go)
// rebuilds the state a model belongs to from the interner's table.
func (p *Prover) Materialise(st facts.State) (atomSet, error) {
	key := st.ID()
	if atoms, ok := p.cache[key]; ok {
		return atoms, nil
	}
	p.stats.Materialisations++
	m := &model{atoms: atomSet{}, index: make(map[indexKey][]facts.AtomID)}
	err := p.fixpoint(st, m)
	// The index goes with the materialisation, finished or aborted; the
	// atoms stay charged only while a cache entry holds them.
	p.mem.Add(-m.idxBytes)
	if err == nil && len(p.cache) < p.maxCache {
		p.cache[key] = m.atoms
		p.mem.Add(matEntryOverhead)
	} else {
		p.mem.Add(-matAtomBytes * int64(len(m.atoms)))
	}
	if err != nil {
		return nil, err
	}
	return m.atoms, nil
}

// fixpoint builds the model level by level (the paper's LFP_i / T_i
// procedures, semi-naively): one full pass of the level's rules, then
// rounds that join each rule only through the atoms the previous round
// derived. Only own-predicate premises of the level can be delta sources.
// Everything else a rule reads is fixed while the level runs — extensional
// premises by the state, oracle-answered and hypothetical ones because
// H-stratification defines them strictly below this part, negated ones
// because they refer to completed lower levels — and so only filters the
// join.
func (p *Prover) fixpoint(st facts.State, m *model) error {
	for _, lvl := range p.levels {
		var frontier []facts.AtomID
		derive := p.deriveInto(st, m, &frontier)
		for _, r := range lvl {
			if err := p.fullRule(r, st, m, derive); err != nil {
				return err
			}
		}
		if err := p.propagate(lvl, st, m, frontier); err != nil {
			return err
		}
	}
	return nil
}

// deriveInto is the head sink of an addition pass: heads not yet in the
// model or state join the model and are appended to *fresh.
func (p *Prover) deriveInto(st facts.State, m *model, fresh *[]facts.AtomID) func(facts.AtomID) error {
	return func(h facts.AtomID) error {
		if !m.atoms.has(h) && !st.Has(h) {
			p.insert(m, h)
			*fresh = append(*fresh, h)
		}
		return nil
	}
}

// propagate runs semi-naive addition rounds over the rules to a fixpoint:
// each round joins every rule with one premise pinned to a frontier atom
// and re-runs the rerun rules in full; the heads new to the model form
// the next frontier.
func (p *Prover) propagate(rules []*rule, st facts.State, m *model, frontier []facts.AtomID) error {
	for len(frontier) > 0 {
		if err := p.poll(); err != nil {
			return err
		}
		var next []facts.AtomID
		derive := p.deriveInto(st, m, &next)
		if err := p.pinnedJoin(rules, st, m, frontier, derive); err != nil {
			return err
		}
		for _, r := range rules {
			if !r.rerun {
				continue
			}
			if err := p.fullRule(r, st, m, derive); err != nil {
				return err
			}
		}
		frontier = next
	}
	return nil
}
