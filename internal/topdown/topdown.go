// Package topdown is the goal-directed evaluation engine for hypothetical
// Datalog. It is the deterministic realisation of the paper's PROVE_Σ
// procedure (section 5.2.1): goals are expanded through rules exactly as in
// lines 1-3 of the procedure, hypothetical premises extend the database
// state, and negated premises (which the paper routes to PROVE_Δ) are
// evaluated by recursive proof in an independent region, which is sound
// because stratification forbids loops across negation.
//
// Where the paper's procedure chooses nondeterministically, this engine
// searches depth-first with:
//
//   - an on-stack check on (goal, state) pairs — complete because every
//     derivable goal has a derivation with no repeated (goal, state) pair
//     on a root-to-leaf path;
//   - a table of proven results — successes are unconditional and always
//     cached; failures are cached only when *clean*, i.e. the failed
//     subtree never consulted an in-progress ancestor, tracked with a
//     lowlink-style minimum-touched-frame index;
//   - a premise planner that orders rule-body premises greedily by
//     boundness, realising the "some ground substitution over dom(R,DB)"
//     semantics of Definition 3 without blind enumeration.
package topdown

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/facts"
	"hypodatalog/internal/symbols"
)

// Resolver decides goals whose predicate has no defining rule in this
// engine's program view. The stratified cascade uses it to route subgoals
// below Σ_i to PROVE_Δi; the resolver's answer must be unconditional
// (independent of any in-progress computation in this engine).
type Resolver func(goal facts.AtomID, st facts.State) (bool, error)

// Options configure an Engine. The zero value enables all features.
type Options struct {
	// Resolver handles goals of predicates not defined in this engine's
	// rule set. When nil, such predicates are extensional: only state
	// membership makes them true.
	Resolver Resolver
	// ExternalIDB marks predicates that are intensional but defined
	// outside this engine's rule set (and answered by Resolver).
	// Predicates neither in the engine's rule set nor in ExternalIDB are
	// treated as extensional and matched against the state by index.
	ExternalIDB map[symbols.Pred]bool
	// NoTabling disables the (goal, state) result table. Proofs remain
	// correct (the on-stack check still guarantees termination) but can be
	// exponentially slower. Used by the ablation experiment.
	NoTabling bool
	// NoPlanner evaluates rule bodies strictly left to right, enumerating
	// unbound variables over the domain as encountered.
	NoPlanner bool
}

// Sentinel causes for aborted evaluations. The error returned by the
// engine wraps one of these in an *AbortError carrying a Stats snapshot,
// so both errors.Is(err, ErrDeadline) and errors.As(err, &abortErr) work.
var (
	// ErrBudget is returned when a Budget's goal allowance is exhausted.
	ErrBudget = errors.New("topdown: goal budget exhausted")
	// ErrCanceled is returned when the caller's context is canceled
	// mid-evaluation.
	ErrCanceled = errors.New("topdown: evaluation canceled")
	// ErrDeadline is returned when the caller's context deadline expires
	// mid-evaluation.
	ErrDeadline = errors.New("topdown: evaluation deadline exceeded")
	// ErrMemory is returned when a query grows a Budget's memory meter
	// past its ceiling.
	ErrMemory = errors.New("topdown: memory budget exhausted")
)

// AbortError reports an evaluation cut short — by the goal budget, by
// caller cancellation, or by a deadline — together with a snapshot of the
// work done up to the abort.
type AbortError struct {
	// Reason is ErrBudget, ErrCanceled, ErrDeadline, or ErrMemory.
	Reason error
	// Limit is the goal allowance (Budget.Max) for budget aborts, or the
	// byte ceiling for memory aborts; 0 otherwise.
	Limit int64
	// Stats is the aborted query's work (Budget.Work), set by its caller.
	Stats Stats
}

func (e *AbortError) Error() string {
	if e.Reason == ErrBudget && e.Limit > 0 {
		return fmt.Sprintf("%v (limit %d)", e.Reason, e.Limit)
	}
	if e.Reason == ErrMemory {
		return fmt.Sprintf("%v (limit %d bytes, grew %d)", e.Reason, e.Limit, e.Stats.MemBytes)
	}
	return fmt.Sprintf("%v after %d goal expansions", e.Reason, e.Stats.Goals)
}

func (e *AbortError) Unwrap() error { return e.Reason }

// ContextAbort wraps a context error (context.Canceled or
// context.DeadlineExceeded) as an *AbortError with the corresponding
// sentinel reason. Shared by every evaluation layer that polls a context.
func ContextAbort(ctxErr error) *AbortError {
	reason := ErrCanceled
	if errors.Is(ctxErr, context.DeadlineExceeded) {
		reason = ErrDeadline
	}
	return &AbortError{Reason: reason}
}

// Stats are evaluation counters, kept once per evaluator (a uniform engine
// or a cascade) in its Budget's ledger, which every top-down engine and Δ
// prover of it counts into. They back the Appendix A experiment (polynomial
// goal-sequence length). The last five are Δ-part work, counted by
// bottomup.Prover; a top-down engine on its own leaves them zero.
type Stats struct {
	Goals      int64 // prove() entries
	TableHits  int64
	LoopCuts   int64 // on-stack hits
	MaxDepth   int   // deepest proof stack
	TableSize  int   // entries currently in the memo tables
	Enumerated int64 // domain bindings tried by the planner
	NegCalls   int64 // nested negation regions started
	MemBytes   int64 // tracked footprint growth since the query began

	Materialisations int64 // Δ models computed (cache misses)
	DerivedModels    int64 // the Materialisations built from a cached parent state's model
	JoinProbes       int64 // candidate atoms the Δ-part joins tried to unify a premise with
	IncStates        int64 // cached Δ models maintained in place by a commit
	IncDropped       int64 // cached Δ models a commit dropped instead
}

// Sub returns the evaluation work between an earlier snapshot of the same
// ledger and s: counters are differenced, the MaxDepth and TableSize
// gauges keep s's reading. A ledger's MaxDepth is its evaluator's lifetime
// maximum; a query's own is in Budget.Work.
func (s Stats) Sub(before Stats) Stats {
	s.Goals -= before.Goals
	s.TableHits -= before.TableHits
	s.LoopCuts -= before.LoopCuts
	s.Enumerated -= before.Enumerated
	s.NegCalls -= before.NegCalls
	s.MemBytes -= before.MemBytes
	s.Materialisations -= before.Materialisations
	s.DerivedModels -= before.DerivedModels
	s.JoinProbes -= before.JoinProbes
	s.IncStates -= before.IncStates
	s.IncDropped -= before.IncDropped
	return s
}

// Engine proves ground goals against hypothetical states.
// An Engine is not safe for concurrent use.
type Engine struct {
	prog *ast.CProgram
	in   *facts.Interner
	base *facts.DB
	dom  []symbols.Const
	opts Options

	// kinds and byHead are the program's per-predicate facts, indexed by
	// Pred and built once (indexPreds): every goal reads its kind and its
	// rules without a map probe. A predicate past their end, interned
	// after the engine was built, is extensional and has no rules.
	kinds  []predKind
	byHead [][]int

	table   memo
	must    facts.MustDB // M_DB of the goals asked here (entry)
	onStack map[tableKey]int
	// spare holds emptied on-stack sets for negation regions to reuse.
	spare []map[tableKey]int

	// budget is the evaluator's per-query limits and ledger, shared with
	// the other components of a cascade; prove charges every goal expansion
	// and its counters to it and the memo table's footprint to its meter.
	budget *Budget
}

// tableKey is a (goal, hypothetical state) pair. Both halves are interned
// ids of the engine's interner, so key equality is exact. In the memo
// table the state is the goal's relevant part of the state
// (facts.State.RelevantID); on the proof stack it is the whole state.
type tableKey struct {
	goal  facts.AtomID
	state facts.StateID
}

const maxFrame = math.MaxInt

// predKind is how the engine answers a goal of a predicate.
type predKind uint8

const (
	extensional predKind = iota // state membership alone
	intensional                 // the engine's own rules
	external                    // Options.Resolver
)

// New builds an engine over a compiled program. The base database is
// populated from the program's facts, over an interner keyed by the
// program's relevance classes and must-add sets; dom is the constant domain
// used when the planner must enumerate (pass ref.Domain(cp) for the
// paper's dom(R, DB)). A nil budget sets no limits.
func New(cp *ast.CProgram, dom []symbols.Const, opts Options, b *Budget) *Engine {
	base, err := facts.Load(cp, facts.NewRelevance(cp))
	if err != nil {
		// Compiled facts intern their predicate with their own arity, so a
		// mismatch here means a corrupted CProgram — unrecoverable.
		panic(err)
	}
	return NewWithBase(cp, base, dom, opts, b)
}

// NewWithBase builds an engine sharing an existing base database (and its
// interner, whose keying stage must be the whole program's or none). The
// program's facts are NOT re-inserted. Both constructors panic on a
// program ast.RewriteNegation has not rewritten: the engine tests every
// negated premise ground and would answer one with a variable of its own
// under the wrong quantifier.
func NewWithBase(cp *ast.CProgram, base *facts.DB, dom []symbols.Const, opts Options, b *Budget) *Engine {
	if err := cp.CheckRewritten(); err != nil {
		panic(err)
	}
	if b == nil {
		b = new(Budget)
	}
	e := &Engine{
		prog:    cp,
		in:      base.Interner(),
		base:    base,
		dom:     dom,
		opts:    opts,
		budget:  b,
		onStack: make(map[tableKey]int),
	}
	e.indexPreds()
	return e
}

// indexPreds builds the per-predicate tables from the program's rule
// index and Options.ExternalIDB. A predicate with rules here is
// intensional even if ExternalIDB lists it, and without a Resolver
// ExternalIDB lists nothing.
func (e *Engine) indexPreds() {
	n := e.prog.Syms.NumPreds()
	e.kinds = make([]predKind, n)
	e.byHead = make([][]int, n)
	for p, ok := range e.opts.ExternalIDB {
		if ok && e.opts.Resolver != nil {
			e.kinds[p] = external
		}
	}
	for p, rules := range e.prog.ByHead {
		e.byHead[p] = rules
	}
	for p, ok := range e.prog.IDB {
		if ok {
			e.kinds[p] = intensional
		}
	}
}

// kind returns how goals of p are answered.
func (e *Engine) kind(p symbols.Pred) predKind {
	if int(p) < len(e.kinds) {
		return e.kinds[p]
	}
	return extensional
}

// rules returns the indexes of the rules whose head predicate is p.
func (e *Engine) rules(p symbols.Pred) []int {
	if int(p) < len(e.byHead) {
		return e.byHead[p]
	}
	return nil
}

// Base returns the engine's base database.
func (e *Engine) Base() *facts.DB { return e.base }

// EmptyState returns the state of the unmodified base database.
func (e *Engine) EmptyState() facts.State { return facts.NewState(e.base) }

// Interner returns the engine's ground-atom interner.
func (e *Engine) Interner() *facts.Interner { return e.in }

// store tables a goal's result, counting a new entry into the ledger's
// TableSize and the bytes it took into the meter.
func (e *Engine) store(key tableKey, val bool) {
	added, grown := e.table.put(key, val)
	e.budget.Stats.TableSize += added
	e.budget.Mem.Add(grown)
}

// PruneTable drops every memo entry whose goal predicate lies in the
// affected cone of a base-fact commit and returns how many were dropped.
// Entries outside the cone stay: their truth values are functions of
// extensions the commit cannot have changed. The state component of a
// key needs no inspection — a hypothetical delta only narrows which base
// atoms are visible, and visibility of non-cone predicates is unchanged;
// a state id names an (adds, dels) pair, not a visible set, so it stays
// exact across the commit, and states whose delta mentions a committed
// atom are simply never asked again (the canonical state for the new base
// differs), so stale entries under them are unreachable, not wrong.
//
// It drops the data-determined must-add sets of the cone's goals too:
// such a set read only rule-invariant predicates in its goal's cone.
func (e *Engine) PruneTable(cone map[symbols.Pred]bool) int {
	n, freed := e.table.prune(func(goal facts.AtomID) bool { return cone[e.in.Pred(goal)] })
	e.budget.Stats.TableSize -= n
	e.budget.Mem.Add(-freed - e.must.Prune(e.in, cone))
	return n
}

// Ask reports whether the interned ground atom is derivable in the state:
// R, DB+Δ ⊢ A. State membership, an extensional predicate and a
// resolver-owned one are answered before a goal is counted; every other
// goal is proved in its entry state (entry). It aborts with an
// *AbortError when the engine's Budget runs out or its query's context is
// done.
func (e *Engine) Ask(goal facts.AtomID, st facts.State) (bool, error) {
	if st.Has(goal) {
		return true, nil
	}
	pred := e.in.Pred(goal)
	switch e.kind(pred) {
	case extensional:
		return false, nil
	case external:
		return e.opts.Resolver(goal, st)
	}
	ok, _, err := e.prove(goal, e.entry(goal, st), 0)
	return ok, err
}

// entry is the state an asked goal is proved and explained in: st
// normalised by the goal's must-add sets, static and data-determined
// (facts.State.Normalised). The data-determined sets it computes are
// memoised on the engine and charged to its meter.
func (e *Engine) entry(goal facts.AtomID, st facts.State) facts.State {
	before := e.must.MemBytes()
	st = st.Normalised(goal, &e.must)
	e.budget.Mem.Add(e.must.MemBytes() - before)
	return st
}

// Read streams the bindings under which a read holds in st. The read is a
// one-premise body, NumVars its variables; evalBody runs it as it runs a
// rule body, and the continuation yields each binding and rejects it, so
// the search moves on to the next. Ask decides each instance of the
// premise, read negated for a negated premise. Every instance and every
// matched answer ticks the Budget, so a read whose cost is the
// enumeration itself still aborts promptly. The yielded slice, in slot
// order, is valid only during the call; a non-nil error from yield stops
// the enumeration and is returned verbatim.
func (e *Engine) Read(body *ast.CRule, st facts.State, yield func([]symbols.Const) error) error {
	binding := ast.NewBinding(body.NumVars)
	_, _, err := e.evalBody(body, binding, 1, st, 0, func() (bool, error) {
		return false, yield(binding)
	})
	return err
}

// prove implements the tabled DFS. depth doubles as this goal's frame
// index; the second result is the minimum frame index of any in-progress
// ancestor the (failed) subtree consulted, or maxFrame when untouched.
// Ask proves the entry goal in its entry state (entry); a
// premise's state is the rule's state plus its adds, which may still hold
// members of the premise goal's must-add set. Either is an exact key
// (DESIGN §3, "Must-add keys"): un-normalised, it is only unshared.
func (e *Engine) prove(goal facts.AtomID, st facts.State, depth int) (bool, int, error) {
	if ae := e.budget.Goal(); ae != nil {
		return false, maxFrame, ae
	}
	e.budget.Stats.Goals++
	e.budget.noteDepth(depth)
	if st.Has(goal) {
		return true, maxFrame, nil
	}
	pred := e.in.Pred(goal)
	switch e.kind(pred) {
	case extensional: // only state membership can make it true
		return false, maxFrame, nil
	case external:
		ok, err := e.opts.Resolver(goal, st)
		return ok, maxFrame, err
	}
	// The table keys on the part of the state the goal can read, which
	// decides it (DESIGN §3); the on-stack check keys on the whole state.
	var key tableKey
	if !e.opts.NoTabling {
		key = tableKey{goal, st.RelevantID(pred)}
		if v, ok := e.table.get(key); ok {
			e.budget.Stats.TableHits++
			return v, maxFrame, nil
		}
	}
	frame := tableKey{goal, st.ID()}
	if f, ok := e.onStack[frame]; ok {
		e.budget.Stats.LoopCuts++
		return false, f, nil
	}
	e.onStack[frame] = depth
	defer delete(e.onStack, frame)

	minTouched := maxFrame
	for _, ri := range e.rules(pred) {
		rule := &e.prog.Rules[ri]
		binding := ast.NewBinding(rule.NumVars)
		if !ast.Unify(rule.Head, e.in.Args(goal), binding) {
			continue
		}
		ok, touched, err := e.evalBody(rule, binding, fullMask(len(rule.Body)), st, depth+1, nil)
		if err != nil {
			return false, maxFrame, err
		}
		if touched < minTouched {
			minTouched = touched
		}
		if ok {
			if !e.opts.NoTabling {
				e.store(key, true)
			}
			return true, maxFrame, nil
		}
	}
	if !e.opts.NoTabling && minTouched >= depth {
		// Clean failure: nothing above this frame was consulted.
		e.store(key, false)
	}
	return false, minTouched, nil
}

// isExtensional reports whether a predicate is neither defined by this
// engine's rules nor owned by the resolver: a goal of it holds exactly
// when the state has it.
func (e *Engine) isExtensional(p symbols.Pred) bool {
	return e.kind(p) == extensional
}

// fullMask returns a bitmask with the low n bits set (bodies are capped at
// 64 premises, far beyond anything the compiler produces in practice).
func fullMask(n int) uint64 {
	if n >= 64 {
		panic("topdown: rule body longer than 64 premises")
	}
	return (uint64(1) << n) - 1
}

// bodyCont is called when every premise of a rule body holds under the
// now-ground binding; it accepts the instance (true) or rejects it, and a
// rejection sends the enumeration on to the body's next instance.
type bodyCont func() (bool, error)

// evalBody proves the premises indicated by mask under binding, choosing
// the next premise with the planner. A nil k accepts the first instance
// that holds — prove's path; Explain passes one that builds the
// instance's derivation, and Read one that yields it. depth is the frame
// index the premises' proofs start at: 0 only for a read's premise, whose
// instances Ask decides. Returns (proved, minTouchedFrame).
func (e *Engine) evalBody(rule *ast.CRule, binding []symbols.Const, mask uint64, st facts.State, depth int, k bodyCont) (bool, int, error) {
	if mask == 0 {
		if k == nil {
			return true, maxFrame, nil
		}
		ok, err := k()
		return ok, maxFrame, err
	}
	idx := e.pickPremise(rule, binding, mask, st)
	pr := &rule.Body[idx]
	rest := mask &^ (uint64(1) << idx)

	// Enumerate any unbound variables the premise needs, then evaluate it
	// and recurse on the remaining premises.
	if e.matchable(pr, binding) {
		return e.evalEDBPremise(rule, pr, binding, rest, st, depth, k)
	}
	return e.evalEnumerated(rule, pr, binding, rest, st, depth, k)
}

// matchable reports whether a premise's instances that hold are the
// matches of its atom in the state it is asked in: a plain or
// hypothetical premise over an extensional predicate, whose adds and dels
// are bound.
func (e *Engine) matchable(pr *ast.CPremise, binding []symbols.Const) bool {
	return pr.Kind != ast.Negated && e.isExtensional(pr.Atom.Pred) && bound(pr.Adds, binding) && bound(pr.Dels, binding)
}

// bound reports whether binding binds every variable of atoms.
func bound(atoms []ast.CAtom, binding []symbols.Const) bool {
	for _, a := range atoms {
		for _, t := range a.Args {
			if t.IsVar() && binding[t.VarSlot()] == ast.Unbound {
				return false
			}
		}
	}
	return true
}

// evalEDBPremise matches an extensional premise against the state it is
// asked in (the rule's, extended by its adds and dels), which is complete
// because extensional predicates have no rules. Each match extends the
// binding and ticks the Budget.
func (e *Engine) evalEDBPremise(rule *ast.CRule, pr *ast.CPremise, binding []symbols.Const, rest uint64, st facts.State, depth int, k bodyCont) (bool, int, error) {
	minTouched := maxFrame
	_, err := facts.Match(e.in.Under(pr, binding, st), pr.Atom, binding, func() error {
		if ae := e.budget.Tick(); ae != nil {
			return ae
		}
		res, touched, err := e.evalBody(rule, binding, rest, st, depth, k)
		minTouched = min(minTouched, touched)
		if err == nil && res {
			err = errStop
		}
		return err
	})
	switch err {
	case nil:
		return false, minTouched, nil
	case errStop:
		return true, maxFrame, nil
	}
	return false, maxFrame, err
}

// errStop is an internal sentinel to stop match enumeration early.
var errStop = fmt.Errorf("topdown: stop")

// evalEnumerated handles every premise matchable does not: unbound
// variables range over the domain (Definition 3's "ground substitution
// over dom(R, DB)"), and each ground instance is proved recursively — a
// negated one in a region of its own (negCheck). The negation rewrite
// leaves no variable that only a negation binds.
func (e *Engine) evalEnumerated(rule *ast.CRule, pr *ast.CPremise, binding []symbols.Const, rest uint64, st facts.State, depth int, k bodyCont) (bool, int, error) {
	minTouched := maxFrame
	tried, err := ast.Assign(appendUnboundSlots(nil, pr, binding), e.dom, binding, func() error {
		res, touched, err := e.instanceHolds(pr, binding, st, depth)
		if err != nil || !res {
			minTouched = min(minTouched, touched)
			return err
		}
		res, touched2, err := e.evalBody(rule, binding, rest, st, depth, k)
		minTouched = min(minTouched, touched, touched2)
		if err == nil && res {
			err = errStop
		}
		return err
	})
	e.budget.Stats.Enumerated += int64(tried)
	switch err {
	case nil:
		return false, minTouched, nil
	case errStop:
		return true, maxFrame, nil
	}
	return false, maxFrame, err
}

// instanceHolds proves the ground instance of a plain, hypothetical or
// negated premise under binding; a negated one in a region of its own. A
// read's instance (depth 0) is its root: Ask decides it, after a tick,
// since Ask may count no goal.
func (e *Engine) instanceHolds(pr *ast.CPremise, binding []symbols.Const, st facts.State, depth int) (bool, int, error) {
	goal, st := e.in.Instance(pr, binding, st)
	if depth == 0 {
		if ae := e.budget.Tick(); ae != nil {
			return false, maxFrame, ae
		}
		ok, err := e.Ask(goal, st)
		return ok != (pr.Kind == ast.Negated), maxFrame, err
	}
	if pr.Kind == ast.Negated {
		held, err := e.negCheck(goal, st)
		return !held, maxFrame, err
	}
	return e.prove(goal, st, depth)
}

// negCheck decides R, DB+Δ ⊢ A for a negated premise in a fresh region.
// Stratification guarantees the goal's predicate is strictly below every
// in-progress frame's predicate, so the nested proof cannot consult them;
// its result is unconditional.
//
// The region's on-stack set is empty when the proof returns (every frame
// removes itself), so it is kept for a later region to reuse instead of
// being allocated per region.
func (e *Engine) negCheck(goal facts.AtomID, st facts.State) (bool, error) {
	e.budget.Stats.NegCalls++
	savedStack := e.onStack
	if n := len(e.spare); n > 0 {
		e.onStack, e.spare = e.spare[n-1], e.spare[:n-1]
	} else {
		e.onStack = make(map[tableKey]int)
	}
	ok, _, err := e.prove(goal, st, 0)
	if len(e.onStack) == 0 {
		e.spare = append(e.spare, e.onStack)
	}
	e.onStack = savedStack
	return ok, err
}

// appendUnboundSlots appends to dst (empty on entry) the unbound variable
// slots of a premise — atom, adds and dels — each once, in
// first-occurrence order. A premise has a handful of variables, so
// scanning dst is the dedupe.
func appendUnboundSlots(dst []int, pr *ast.CPremise, binding []symbols.Const) []int {
	dst = appendUnbound(dst, pr.Atom, binding)
	for _, a := range pr.Adds {
		dst = appendUnbound(dst, a, binding)
	}
	for _, a := range pr.Dels {
		dst = appendUnbound(dst, a, binding)
	}
	return dst
}

func appendUnbound(dst []int, a ast.CAtom, binding []symbols.Const) []int {
	for _, t := range a.Args {
		if !t.IsVar() {
			continue
		}
		if s := t.VarSlot(); binding[s] == ast.Unbound && !slices.Contains(dst, s) {
			dst = append(dst, s)
		}
	}
	return dst
}

// pickPremise chooses the next premise to evaluate from mask: the one with
// the lowest estimated cost given the current binding.
func (e *Engine) pickPremise(rule *ast.CRule, binding []symbols.Const, mask uint64, st facts.State) int {
	if e.opts.NoPlanner {
		for i := 0; i < len(rule.Body); i++ {
			if mask&(uint64(1)<<i) != 0 {
				return i
			}
		}
	}
	best, bestCost := -1, math.Inf(1)
	for i := 0; i < len(rule.Body); i++ {
		if mask&(uint64(1)<<i) == 0 {
			continue
		}
		c := e.premiseCost(&rule.Body[i], binding, st)
		if c < bestCost {
			best, bestCost = i, c
		}
	}
	return best
}

// premiseCost estimates the branching a premise introduces right now.
func (e *Engine) premiseCost(pr *ast.CPremise, binding []symbols.Const, st facts.State) float64 {
	var buf [8]int // keeps the planner's count off the heap
	unboundCount := len(appendUnboundSlots(buf[:0], pr, binding))
	domN := float64(len(e.dom))
	if domN == 0 {
		domN = 1
	}
	switch pr.Kind {
	case ast.Plain:
		if e.isExtensional(pr.Atom.Pred) {
			if unboundCount == 0 {
				return 0
			}
			// Index-supported match: estimate candidates.
			n := len(e.base.ByPred(pr.Atom.Pred)) + st.Delta.Len()
			for i, t := range pr.Atom.Args {
				var v symbols.Const
				if t.IsVar() {
					v = binding[t.VarSlot()]
				} else {
					v = t.ConstID()
				}
				if v != ast.Unbound {
					m := len(e.base.ByPredArg(pr.Atom.Pred, i, v)) + st.Delta.Len()
					if m < n {
						n = m
					}
				}
			}
			return 1 + float64(n)
		}
		if unboundCount == 0 {
			return 2 // a single recursive proof
		}
		return 10 * math.Pow(domN, float64(unboundCount))
	case ast.Negated:
		if unboundCount == 0 {
			return 3
		}
		// Prefer to bind the variables elsewhere first.
		return 100 * math.Pow(domN, float64(unboundCount))
	case ast.Hyp:
		if unboundCount == 0 {
			return 5
		}
		return 20 * math.Pow(domN, float64(unboundCount))
	default:
		return math.Inf(1)
	}
}
