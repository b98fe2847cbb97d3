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
// hypothetical state, and a state's model is derived from its nearest
// cached ancestor's where the added atoms allow, stored as an overlay on
// it. Each fixpoint is semi-naive over an index of the atoms derived so
// far (join.go); across base-fact commits, incremental.go extends the
// empty state's model with the same joins or drops it.
package bottomup

import (
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

	rules    []*rule                  // the rules forming this Δ part, compiled
	own      map[symbols.Pred]bool    // predicates defined by those rules
	levels   [][]*rule                // rules grouped by negation sub-stratum
	level    map[symbols.Pred]int     // own predicate -> index of its level
	movable  []movable                // premises a grown state can move, besides by growing them
	cache    map[facts.StateID]*model // state -> materialised model
	maxCache int
	rootBusy bool // the empty state's model is being computed

	// budget is the enclosing evaluator's per-query limits and ledger:
	// every join step ticks it, the prover's work (Materialisations,
	// DerivedModels, JoinProbes, IncStates, IncDropped) counts into its
	// Stats, and derived atoms, the index over them while a materialisation
	// runs, and cached materialisations are charged to its memory meter as
	// they grow.
	budget *topdown.Budget
}

// matAtomBytes approximates the heap cost of one derived atom in a
// materialised model; matEntryOverhead the fixed cost of one cache entry
// beyond its atoms (map slot with its 4-byte state id, the atom set's
// header). The state itself is charged by the interner's state table.
const (
	matAtomBytes     = 16
	matEntryOverhead = 64
)

type atomSet map[facts.AtomID]struct{}

func (s atomSet) has(id facts.AtomID) bool { _, ok := s[id]; return ok }

// New builds a Δ prover over a subset of the program's rules. oracle may
// be nil when the Δ part is self-contained (stratum 1 with no
// hypothetical premises); it is then an error for evaluation to need it.
// A nil budget sets no limits.
func New(cp *ast.CProgram, base *facts.DB, dom []symbols.Const, rules []int, oracle Oracle, b *topdown.Budget) (*Prover, error) {
	if b == nil {
		b = new(topdown.Budget)
	}
	p := &Prover{
		prog:     cp,
		in:       base.Interner(),
		base:     base,
		dom:      dom,
		oracle:   oracle,
		budget:   b,
		own:      make(map[symbols.Pred]bool),
		level:    make(map[symbols.Pred]int),
		cache:    make(map[facts.StateID]*model),
		maxCache: 1 << 16,
	}
	for _, ri := range rules {
		// A negated premise is tested ground (testAtom): a variable of its
		// own would be read under the wrong quantifier.
		if err := cp.Rules[ri].CheckRewritten(); err != nil {
			return nil, fmt.Errorf("bottomup: %w", err)
		}
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
	for _, cr := range p.rules {
		for i := range cr.r.Body {
			pr := &cr.r.Body[i]
			if pr.Kind != ast.Plain || p.oracleOwned(pr.Atom.Pred) {
				p.movable = append(p.movable, movable{pred: pr.Atom.Pred, level: p.level[cr.r.Head.Pred], neg: pr.Kind == ast.Negated})
			}
		}
	}
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
	for q, l := range level {
		p.level[q] = l - 1
	}
	out := make([][]*rule, maxLvl)
	for _, cr := range p.rules {
		l := level[cr.r.Head.Pred]
		out[l-1] = append(out[l-1], cr)
	}
	return out, nil
}

// Holds reports whether the goal atom is in the perfect model of the Δ
// part over the state (or in the state itself). A materialisation the
// budget aborts is not cached.
func (p *Prover) Holds(goal facts.AtomID, st facts.State) (bool, error) {
	if st.Has(goal) {
		return true, nil
	}
	m, err := p.materialise(st)
	if err != nil {
		return false, err
	}
	return p.has(m, goal), nil
}

// maxOverlayDepth is how many overlays a cached model may read through
// before it is flattened into an atom set of its own.
const maxOverlayDepth = 8

// materialise computes (or returns the cached) perfect model of the Δ part
// over the state, per the paper's PROVE_Δi main loop. Cached models are
// held by state id alone; a miss derives the model from an ancestor
// state's when it can (derive), and a commit (incremental.go) extends
// the empty state's model or drops it.
func (p *Prover) materialise(st facts.State) (*model, error) {
	key := st.ID()
	if m, ok := p.cache[key]; ok {
		return m, nil
	}
	p.budget.Stats.Materialisations++
	m := &model{atoms: atomSet{}, index: make(facts.Index)}
	if key == facts.EmptyStateID {
		p.rootBusy = true
		defer func() { p.rootBusy = false }()
	}
	err := p.derive(st, m)
	// The index goes with the materialisation, finished or aborted; the
	// atoms stay charged only while a cache entry holds them.
	p.dropIndex(m)
	if err == nil && len(p.cache) < p.maxCache {
		if m.depth > maxOverlayDepth {
			p.flatten(m)
		}
		p.cache[key] = m
		p.budget.Mem.Add(matEntryOverhead)
	} else {
		p.budget.Mem.Add(-matAtomBytes * int64(len(m.atoms)))
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Model returns the atoms of the perfect model of the Δ part over the
// state, in no particular order.
func (p *Prover) Model(st facts.State) ([]facts.AtomID, error) {
	m, err := p.materialise(st)
	if err != nil {
		return nil, err
	}
	var out []facts.AtomID
	p.each(m, func(id facts.AtomID) { out = append(out, id) })
	return out, nil
}

// derive computes st's model into m: as an overlay on the model of the
// nearest ancestor state with a cached one when the tokens between them
// allow it (DESIGN §15), else from nothing.
func (p *Prover) derive(st facts.State, m *model) error {
	anc, grown, from, err := p.ancestor(st)
	if err != nil {
		return err
	}
	if anc == nil {
		return p.fixpoint(st, m, 0, nil)
	}
	p.budget.Stats.DerivedModels++
	m.parent, m.cut, m.depth = anc, from, anc.depth+1
	return p.fixpoint(st, m, from, grown)
}

// ancestor walks st's parent links in the state table up to the nearest
// state with a cached model — the empty state's, materialised now if it
// is not cached — and returns that model, the atoms st adds over it, and
// the first negation level those atoms can shrink. It returns a nil model
// when st is computed from nothing: st is the empty state, a token on the
// way deletes, or one makes every level recompute or reaches a premise
// only a from-scratch evaluation answers (effect), or the empty state's
// model is itself still being computed or finds no room in the cache.
func (p *Prover) ancestor(st facts.State) (*model, []facts.AtomID, int, error) {
	from := len(p.levels)
	var grown []facts.AtomID
	for id := st.ID(); id != facts.EmptyStateID; {
		parent, atom, added := facts.StateParent(p.base, id)
		eff := p.effect(p.in.Pred(atom))
		if from = min(from, eff.from); !added || eff.cold || from == 0 {
			return nil, nil, 0, nil
		}
		grown = append(grown, atom)
		if m, ok := p.cache[parent]; ok {
			return m, grown, from, nil
		}
		if parent == facts.EmptyStateID {
			if p.rootBusy {
				break // st is asked for while the empty state's model is built
			}
			root, err := p.materialise(facts.NewState(p.base))
			if _, ok := p.cache[parent]; err != nil || !ok {
				return nil, nil, 0, err // an uncached parent would keep an index nothing releases
			}
			return root, grown, from, nil
		}
		id = parent
	}
	return nil, nil, 0, nil
}

// effect is what adding an atom of one predicate to the state does to
// the part's model. A level whose inputs only grow keeps its atoms and
// gains what semi-naive rounds from the new ones derive; from is the
// first level that can also lose atoms — one with a negated premise that
// depends on the predicate — or len(levels) when none can. cold marks a
// predicate whose additions the model is recomputed for from nothing: an
// own predicate (the model never holds atoms of the state), or one an
// oracle-answered or hypothetical premise depends on, whose answers at
// the new state nothing here tracks.
type effect struct {
	from int
	cold bool
}

// movable is a premise whose answers a grown state can change other than
// by growing them: a negated one, which can lose answers from its level
// on, or an oracle-answered or hypothetical one (cold).
type movable struct {
	pred  symbols.Pred
	level int
	neg   bool
}

// effect reads the program's cones (facts.Relevance.Reads): a movable
// premise moves when its cone holds q.
func (p *Prover) effect(q symbols.Pred) effect {
	e := effect{from: len(p.levels), cold: p.own[q]}
	rel := p.in.Relevance()
	for _, m := range p.movable {
		switch {
		case !rel.Reads(m.pred, q):
		case m.neg:
			e.from = min(e.from, m.level)
		default:
			e.cold = true
		}
	}
	return e
}

// fixpoint builds the model level by level (the paper's LFP_i / T_i
// procedures, semi-naively). A level from on is computed afresh: one full
// pass of its rules, then rounds that join each rule only through the
// atoms the previous round derived. A level below from extends the
// parent model m overlays: only its inputs grew — by the atoms in grown,
// the state's over the parent's, and by what the levels below added — so
// rounds seeded with those reach the level's new least fixpoint.
//
// Only own-predicate premises of the level can be delta sources.
// Everything else a rule reads is fixed while the level runs — extensional
// premises by the state, oracle-answered and hypothetical ones because
// H-stratification defines them strictly below this part, negated ones
// because they refer to completed lower levels — and so only filters the
// join.
func (p *Prover) fixpoint(st facts.State, m *model, from int, grown []facts.AtomID) error {
	for l, lvl := range p.levels {
		frontier := grown
		if l >= from {
			frontier = nil
			derive := p.deriveInto(st, m, &frontier)
			for _, r := range lvl {
				if err := p.fullRule(r, st, m, derive); err != nil {
					return err
				}
			}
		}
		added, err := p.propagate(lvl, st, m, frontier)
		if err != nil {
			return err
		}
		if l+1 < from {
			grown = append(grown, added...)
		}
	}
	return nil
}

// deriveInto is the head sink of an addition pass: heads not yet in the
// model or state join the model and are appended to *fresh. Each one
// grows the footprint, so it checks the budget's memory ceiling.
func (p *Prover) deriveInto(st facts.State, m *model, fresh *[]facts.AtomID) func(facts.AtomID) error {
	return func(h facts.AtomID) error {
		if !p.has(m, h) && !st.Has(h) {
			p.insert(m, h)
			*fresh = append(*fresh, h)
			if ae := p.budget.OverMem(); ae != nil {
				return ae
			}
		}
		return nil
	}
}

// propagate runs semi-naive addition rounds over the rules to a fixpoint:
// each round joins every rule with one premise pinned to a frontier atom
// and re-runs the rerun rules in full; the heads new to the model form
// the next frontier. It returns every atom it added, in order.
func (p *Prover) propagate(rules []*rule, st facts.State, m *model, frontier []facts.AtomID) ([]facts.AtomID, error) {
	var added []facts.AtomID
	derive := p.deriveInto(st, m, &added)
	for len(frontier) > 0 {
		start := len(added)
		if err := p.pinnedJoin(rules, st, m, frontier, derive); err != nil {
			return nil, err
		}
		for _, r := range rules {
			if !r.rerun {
				continue
			}
			if err := p.fullRule(r, st, m, derive); err != nil {
				return nil, err
			}
		}
		frontier = added[start:]
	}
	return added, nil
}
