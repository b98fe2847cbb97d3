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
// hypothetical state.
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

	rules    []int                 // rule indexes forming this Δ part
	own      map[symbols.Pred]bool // predicates defined by those rules
	levels   [][]int               // rules grouped by negation sub-stratum
	cache    map[string]*matEntry  // state key -> materialised model
	maxCache int

	// ctx is the cancellation source of the in-flight *Ctx call, or nil
	// when the call is not cancellable; the join loop polls it every
	// ctxCheckInterval steps and the fixpoint loop once per pass.
	ctx   context.Context
	steps int64

	// mem is the shared footprint tracker of the enclosing cascade (via
	// SetMem); nil disables accounting and the budget. Derived atoms and
	// cached materialisations are charged into it as they grow, and the
	// join loop polls it at the same points as the context.
	mem *topdown.MemTracker

	// stats counts this prover's work (Materialisations, IncStates,
	// IncDropped) as plain integers; whoever owns the prover reads them
	// with Stats and does the metrics accounting, once per query.
	stats topdown.Stats
}

// ctxCheckInterval is how many join steps pass between context polls.
const ctxCheckInterval = 1024

// matAtomBytes approximates the heap cost of one derived atom in a
// materialised model; matEntryOverhead the fixed cost of one cache entry
// beyond its atoms (key string, map slot, matEntry struct).
const (
	matAtomBytes     = 16
	matEntryOverhead = 96
)

// SetMem installs the cascade's shared footprint tracker.
func (p *Prover) SetMem(t *topdown.MemTracker) { p.mem = t }

// Stats returns the prover's Δ-part work counters.
func (p *Prover) Stats() topdown.Stats { return p.stats }

type atomSet map[facts.AtomID]struct{}

func (s atomSet) has(id facts.AtomID) bool { _, ok := s[id]; return ok }

// matEntry is one cached materialisation: the perfect model of the Δ part
// over the state with the given hypothetical delta. The delta is kept so
// incremental maintenance (incremental.go) can reconstruct the state a
// cached model belongs to and update it in place on a base-fact commit.
type matEntry struct {
	delta facts.Delta
	atoms atomSet
}

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
		rules:    rules,
		own:      make(map[symbols.Pred]bool),
		cache:    make(map[string]*matEntry),
		maxCache: 1 << 16,
	}
	for _, ri := range rules {
		p.own[cp.Rules[ri].Head.Pred] = true
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
func (p *Prover) negationLevels() ([][]int, error) {
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
		for _, ri := range p.rules {
			r := &p.prog.Rules[ri]
			h := r.Head.Pred
			for _, pr := range r.Body {
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
	out := make([][]int, maxLvl)
	for _, ri := range p.rules {
		l := level[p.prog.Rules[ri].Head.Pred]
		out[l-1] = append(out[l-1], ri)
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

// checkCtx polls the installed context.
func (p *Prover) checkCtx() error {
	if p.ctx == nil {
		return nil
	}
	if err := p.ctx.Err(); err != nil {
		return topdown.ContextAbort(err, topdown.Stats{})
	}
	return nil
}

// checkMem polls the shared memory budget.
func (p *Prover) checkMem() error {
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
// over the state, per the paper's PROVE_Δi main loop.
func (p *Prover) Materialise(st facts.State) (atomSet, error) {
	key := st.Key()
	if m, ok := p.cache[key]; ok {
		return m.atoms, nil
	}
	p.stats.Materialisations++
	derived := atomSet{}
	for _, lvlRules := range p.levels {
		if err := p.lfp(lvlRules, st, derived); err != nil {
			// The partial model is discarded; release its charges.
			p.mem.Add(-matAtomBytes * int64(len(derived)))
			return nil, err
		}
	}
	if len(p.cache) < p.maxCache {
		p.cache[key] = &matEntry{delta: st.Delta, atoms: derived}
		p.mem.Add(matEntryOverhead + int64(len(key)))
	} else {
		// Not cached: the model is garbage once the caller is done.
		p.mem.Add(-matAtomBytes * int64(len(derived)))
	}
	return derived, nil
}

// lfp applies the rules of one sub-stratum to a fixpoint (the paper's
// LFP_i / T_i procedures).
func (p *Prover) lfp(rules []int, st facts.State, derived atomSet) error {
	for {
		if err := p.checkCtx(); err != nil {
			return err
		}
		if err := p.checkMem(); err != nil {
			return err
		}
		changed := false
		for _, ri := range rules {
			c, err := p.applyRule(ri, st, derived)
			if err != nil {
				return err
			}
			if c {
				changed = true
			}
		}
		if !changed {
			return nil
		}
	}
}

// applyRule derives all new head instances of one rule (one step of T_i).
func (p *Prover) applyRule(ri int, st facts.State, derived atomSet) (bool, error) {
	r := &p.prog.Rules[ri]
	binding := make([]symbols.Const, r.NumVars)
	for i := range binding {
		binding[i] = unbound
	}
	changed := false
	err := p.join(r, binding, 0, st, derived, func() error {
		// Head variables with no body occurrence remain unbound here; the
		// Definition 3 substitution ranges them over the whole domain.
		var free []int
		for _, t := range r.Head.Args {
			if t.IsVar() && binding[t.VarSlot()] == unbound && !contains(free, t.VarSlot()) {
				free = append(free, t.VarSlot())
			}
		}
		return p.enumSlotsThen(free, binding, func() error {
			h := p.ground(r.Head, binding)
			if !derived.has(h) && !st.Has(h) {
				derived[h] = struct{}{}
				p.mem.Add(matAtomBytes)
				changed = true
			}
			return nil
		})
	})
	return changed, err
}

const unbound symbols.Const = -1

// join evaluates body premises left-to-right after a one-time static
// reorder (done implicitly by premiseOrder), enumerating bindings.
func (p *Prover) join(r *ast.CRule, binding []symbols.Const, pi int, st facts.State, derived atomSet, yield func() error) error {
	order := p.premiseOrder(r)
	return p.joinAt(r, order, binding, pi, st, derived, yield)
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
		case pr.Kind == ast.Plain && (p.own[pr.Atom.Pred] || !p.oracleOwned(pr.Atom.Pred)):
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

func (p *Prover) joinAt(r *ast.CRule, order []int, binding []symbols.Const, pi int, st facts.State, derived atomSet, yield func() error) error {
	p.steps++
	if p.steps%ctxCheckInterval == 0 {
		if err := p.checkCtx(); err != nil {
			return err
		}
		if err := p.checkMem(); err != nil {
			return err
		}
	}
	if pi == len(order) {
		return yield()
	}
	pr := &r.Body[order[pi]]
	next := func() error {
		return p.joinAt(r, order, binding, pi+1, st, derived, yield)
	}
	switch pr.Kind {
	case ast.Plain:
		if p.own[pr.Atom.Pred] {
			// TEST⁰: membership in DB (state) or the growing model.
			return p.matchOwn(pr.Atom, binding, st, derived, next)
		}
		if !p.oracleOwned(pr.Atom.Pred) {
			// Extensional: match the state.
			return p.matchStateOnly(pr.Atom, binding, st, next)
		}
		// Defined below: enumerate and ask the oracle.
		return p.enumThen(pr, binding, func() error {
			ok, err := p.askOracle(p.ground(pr.Atom, binding), st)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			return next()
		})
	case ast.Hyp:
		return p.enumThen(pr, binding, func() error {
			ext := st
			for _, a := range pr.Adds {
				ext = ext.Add(p.ground(a, binding))
			}
			for _, a := range pr.Dels {
				ext = ext.Del(p.ground(a, binding))
			}
			ok, err := p.askOracleOrModel(p.ground(pr.Atom, binding), st, ext, derived)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			return next()
		})
	case ast.Negated:
		// Negation-local variables (not occurring positively in the rule)
		// are quantified inside the negation.
		var enumSlots, localSlots []int
		for _, s := range unboundSlots(pr, binding) {
			if r.PosVar[s] {
				enumSlots = append(enumSlots, s)
			} else {
				localSlots = append(localSlots, s)
			}
		}
		return p.enumSlotsThen(enumSlots, binding, func() error {
			holds, err := p.negInstance(pr.Atom, binding, localSlots, st, derived)
			if err != nil {
				return err
			}
			if holds {
				return nil
			}
			return next()
		})
	default:
		return fmt.Errorf("bottomup: premise kind %v", pr.Kind)
	}
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
// reads the growing model (monotone); owned targets with real additions
// are materialised recursively; everything else goes to the oracle.
func (p *Prover) askOracleOrModel(goal facts.AtomID, st, ext facts.State, derived atomSet) (bool, error) {
	if ext.Has(goal) {
		return true, nil
	}
	pred := p.in.Pred(goal)
	if p.own[pred] {
		if ext.Key() == st.Key() {
			return derived.has(goal), nil
		}
		// H-stratification normally rules this out; fall back to a
		// recursive materialisation of the extended state for generality.
		m, err := p.Materialise(ext)
		if err != nil {
			return false, err
		}
		return m.has(goal), nil
	}
	return p.askOracle(goal, ext)
}

// negInstance reports whether some instantiation of localSlots makes the
// atom derivable (state, model, or oracle).
func (p *Prover) negInstance(a ast.CAtom, binding []symbols.Const, localSlots []int, st facts.State, derived atomSet) (bool, error) {
	if len(localSlots) == 0 {
		return p.testAtom(p.ground(a, binding), st, derived)
	}
	found := false
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(localSlots) {
			ok, err := p.testAtom(p.ground(a, binding), st, derived)
			if err != nil {
				return err
			}
			if ok {
				found = true
				return errStop
			}
			return nil
		}
		for _, c := range p.dom {
			binding[localSlots[i]] = c
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	err := rec(0)
	for _, s := range localSlots {
		binding[s] = unbound
	}
	if err != nil && err != errStop {
		return false, err
	}
	return found, nil
}

// testAtom is TEST⁰ for a ground atom: state, then own model, then oracle.
func (p *Prover) testAtom(goal facts.AtomID, st facts.State, derived atomSet) (bool, error) {
	if st.Has(goal) {
		return true, nil
	}
	if p.own[p.in.Pred(goal)] {
		return derived.has(goal), nil
	}
	return p.askOracle(goal, st)
}

var errStop = fmt.Errorf("bottomup: stop")

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// enumThen enumerates all unbound slots of a premise over the domain.
func (p *Prover) enumThen(pr *ast.CPremise, binding []symbols.Const, leaf func() error) error {
	return p.enumSlotsThen(unboundSlots(pr, binding), binding, leaf)
}

func (p *Prover) enumSlotsThen(slots []int, binding []symbols.Const, leaf func() error) error {
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(slots) {
			return leaf()
		}
		for _, c := range p.dom {
			binding[slots[i]] = c
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		binding[slots[i]] = unbound
		return nil
	}
	return rec(0)
}

func unboundSlots(pr *ast.CPremise, binding []symbols.Const) []int {
	var slots []int
	seen := map[int]bool{}
	note := func(a ast.CAtom) {
		for _, t := range a.Args {
			if t.IsVar() {
				s := t.VarSlot()
				if binding[s] == unbound && !seen[s] {
					seen[s] = true
					slots = append(slots, s)
				}
			}
		}
	}
	note(pr.Atom)
	for _, a := range pr.Adds {
		note(a)
	}
	for _, a := range pr.Dels {
		note(a)
	}
	return slots
}

// matchOwn enumerates bindings from the state plus the growing model for
// an owned predicate.
func (p *Prover) matchOwn(pattern ast.CAtom, binding []symbols.Const, st facts.State, derived atomSet, yield func() error) error {
	if err := p.matchStateOnly(pattern, binding, st, yield); err != nil {
		return err
	}
	// Snapshot first: yield may grow derived while we iterate (new atoms
	// are picked up by the enclosing fixpoint's next pass).
	var candidates []facts.AtomID
	for id := range derived {
		if p.in.Pred(id) == pattern.Pred {
			candidates = append(candidates, id)
		}
	}
	for _, id := range candidates {
		if err := p.tryMatch(pattern, binding, id, yield); err != nil {
			return err
		}
	}
	return nil
}

// matchStateOnly enumerates bindings from the state (base indexes plus
// delta scan).
func (p *Prover) matchStateOnly(pattern ast.CAtom, binding []symbols.Const, st facts.State, yield func() error) error {
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
	var candidates []facts.AtomID
	if bestPos >= 0 {
		candidates = p.base.ByPredArg(pattern.Pred, bestPos, bestVal)
	} else {
		candidates = p.base.ByPred(pattern.Pred)
	}
	for _, id := range candidates {
		if st.Delta.Deleted(id) {
			continue // hypothetically deleted
		}
		if err := p.tryMatch(pattern, binding, id, yield); err != nil {
			return err
		}
	}
	for _, id := range st.Delta.IDs() {
		if p.in.Pred(id) != pattern.Pred || p.base.Has(id) {
			continue
		}
		if err := p.tryMatch(pattern, binding, id, yield); err != nil {
			return err
		}
	}
	return nil
}

func (p *Prover) tryMatch(pattern ast.CAtom, binding []symbols.Const, id facts.AtomID, yield func() error) error {
	args := p.in.Args(id)
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
	var err error
	if ok {
		err = yield()
	}
	for _, s := range boundHere {
		binding[s] = unbound
	}
	return err
}

func (p *Prover) ground(a ast.CAtom, binding []symbols.Const) facts.AtomID {
	args := make([]symbols.Const, len(a.Args))
	for i, t := range a.Args {
		if t.IsVar() {
			v := binding[t.VarSlot()]
			if v == unbound {
				panic("bottomup: grounding with unbound variable")
			}
			args[i] = v
		} else {
			args[i] = t.ConstID()
		}
	}
	return p.in.ID(a.Pred, args)
}
