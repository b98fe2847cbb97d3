package ast

import (
	"fmt"

	"hypodatalog/internal/symbols"
)

// CTerm is an interned term: a non-negative value is a constant id, a
// negative value -(i+1) is the rule-local variable slot i.
type CTerm int32

// CConst encodes a constant id as a CTerm.
func CConst(c symbols.Const) CTerm { return CTerm(c) }

// CVar encodes rule-local variable slot i as a CTerm.
func CVar(i int) CTerm { return CTerm(-(i + 1)) }

// IsVar reports whether the term is a variable slot.
func (t CTerm) IsVar() bool { return t < 0 }

// VarSlot returns the variable slot index; it panics on constants.
func (t CTerm) VarSlot() int {
	if t >= 0 {
		panic("ast: VarSlot on constant CTerm")
	}
	return int(-t) - 1
}

// ConstID returns the constant id; it panics on variables.
func (t CTerm) ConstID() symbols.Const {
	if t < 0 {
		panic("ast: ConstID on variable CTerm")
	}
	return symbols.Const(t)
}

// CAtom is an interned atom.
type CAtom struct {
	Pred symbols.Pred
	Args []CTerm
}

// IsGround reports whether the atom contains no variable slots.
func (a CAtom) IsGround() bool {
	for _, t := range a.Args {
		if t.IsVar() {
			return false
		}
	}
	return true
}

// Unbound marks a binding slot no constant is bound to yet. A binding is
// a rule's (or query's) variable slots, indexed by CTerm.VarSlot.
const Unbound symbols.Const = -1

// NewBinding returns a binding of n slots, all Unbound.
func NewBinding(n int) []symbols.Const {
	b := make([]symbols.Const, n)
	for i := range b {
		b[i] = Unbound
	}
	return b
}

// Unify matches pattern against the ground arguments args, binding the
// pattern's unbound slots. It fails on a constant mismatch or on a slot
// already bound — before the call or by an earlier argument — to another
// constant. Slots it bound stay bound either way: the caller unbinds the
// ones that were unbound on entry.
func Unify(pattern CAtom, args []symbols.Const, binding []symbols.Const) bool {
	for i, t := range pattern.Args {
		if !t.IsVar() {
			if t.ConstID() != args[i] {
				return false
			}
		} else if s := t.VarSlot(); binding[s] == Unbound {
			binding[s] = args[i]
		} else if binding[s] != args[i] {
			return false
		}
	}
	return true
}

// Assign ranges slots over dom, calling leaf under every assignment, the
// last slot varying fastest: Definition 3's ground substitutions over
// dom(R, DB). A non-nil error from leaf stops the ranging and is
// returned. The slots are Unbound again on return; tried counts the
// values bound, at every slot.
func Assign(slots []int, dom []symbols.Const, binding []symbols.Const, leaf func() error) (tried int, err error) {
	if len(slots) == 0 {
		return 0, leaf()
	}
	s := slots[0]
	for _, c := range dom {
		binding[s] = c
		n, err := Assign(slots[1:], dom, binding, leaf)
		tried += 1 + n
		if err != nil {
			binding[s] = Unbound
			return tried, err
		}
	}
	binding[s] = Unbound
	return tried, nil
}

// CPremise is an interned premise.
type CPremise struct {
	Kind PremiseKind
	Atom CAtom
	Adds []CAtom
	Dels []CAtom
}

// CRule is an interned rule with its variables renamed to dense slots.
type CRule struct {
	Head     CAtom
	Body     []CPremise
	NumVars  int
	VarNames []string // slot -> surface name, for diagnostics
	Line     int

	// PosVar[slot] reports whether the variable occurs positively — in the
	// head, in a plain premise, or anywhere in a hypothetical premise
	// (queried atom or added atoms). Variables that occur only in negated
	// premises are quantified inside the negation: ~B(x) with x occurring
	// nowhere else reads "no instance of B is provable", which is what
	// Examples 6 and 7 of the paper require (the rule EVEN ← ~SELECT(x̄)
	// must fire exactly when nothing is selectable). RewriteNegation
	// leaves no such variable; internal/ref quantifies it itself.
	PosVar []bool
}

// CProgram is a compiled program: interned rules, ground facts, queries,
// and rule indexes used by the engines.
type CProgram struct {
	Syms    *symbols.Table
	Rules   []CRule
	Facts   []CAtom // all ground
	Queries []CPremise

	// ByHead indexes rule positions by head predicate.
	ByHead map[symbols.Pred][]int
	// IDB marks predicates that have at least one defining rule.
	IDB map[symbols.Pred]bool
	// MaxArity is the largest predicate arity in the program.
	MaxArity int
}

// Compile interns a validated program into syms. Facts must be ground and
// queries must not be negated-hypothetical; Compile reports an error
// otherwise. Rules may keep what RewriteNegation rewrites: internal/ref
// evaluates them as written, and the engines refuse them (CheckRewritten).
func Compile(p *Program, syms *symbols.Table) (*CProgram, error) {
	cp := &CProgram{
		Syms:   syms,
		ByHead: make(map[symbols.Pred][]int),
		IDB:    make(map[symbols.Pred]bool),
	}
	for _, f := range p.Facts {
		if !f.IsGround() {
			return nil, fmt.Errorf("ast: fact %s is not ground", f)
		}
		ca, _ := compileAtom(f, syms, nil)
		cp.Facts = append(cp.Facts, ca)
		cp.noteArity(ca)
	}
	for _, r := range p.Rules {
		cr, err := compileRule(r, syms)
		if err != nil {
			return nil, err
		}
		idx := len(cp.Rules)
		cp.Rules = append(cp.Rules, cr)
		cp.ByHead[cr.Head.Pred] = append(cp.ByHead[cr.Head.Pred], idx)
		cp.IDB[cr.Head.Pred] = true
		cp.noteArity(cr.Head)
		for _, pr := range cr.Body {
			cp.noteArity(pr.Atom)
			for _, a := range pr.Adds {
				cp.noteArity(a)
			}
			for _, a := range pr.Dels {
				cp.noteArity(a)
			}
		}
	}
	for _, q := range p.Queries {
		if q.Kind == NegHyp {
			return nil, fmt.Errorf("ast: query %s: negated hypotheticals are not supported", q)
		}
		vars := map[string]int{}
		var names []string
		cq, err := compilePremise(q, syms, vars, &names)
		if err != nil {
			return nil, err
		}
		cp.Queries = append(cp.Queries, cq)
	}
	return cp, nil
}

// Restrict returns a view of the program containing only the given rules
// (by index). Symbols, rule storage, facts and queries are shared; ByHead
// and IDB are rebuilt for the subset. Used by the stratified cascade to
// hand each Σ_i its own rule set.
func (cp *CProgram) Restrict(ruleIdx []int) *CProgram {
	out := &CProgram{
		Syms:     cp.Syms,
		Rules:    cp.Rules,
		Facts:    cp.Facts,
		Queries:  cp.Queries,
		ByHead:   make(map[symbols.Pred][]int),
		IDB:      make(map[symbols.Pred]bool),
		MaxArity: cp.MaxArity,
	}
	for _, ri := range ruleIdx {
		p := cp.Rules[ri].Head.Pred
		out.ByHead[p] = append(out.ByHead[p], ri)
		out.IDB[p] = true
	}
	return out
}

func (cp *CProgram) noteArity(a CAtom) {
	if len(a.Args) > cp.MaxArity {
		cp.MaxArity = len(a.Args)
	}
}

func compileRule(r Rule, syms *symbols.Table) (CRule, error) {
	vars := map[string]int{}
	var names []string
	head, err := compileAtomVars(r.Head, syms, vars, &names)
	if err != nil {
		return CRule{}, err
	}
	cr := CRule{Head: head, Line: r.Line}
	for _, pr := range r.Body {
		cpr, err := compilePremise(pr, syms, vars, &names)
		if err != nil {
			return CRule{}, err
		}
		cr.Body = append(cr.Body, cpr)
	}
	cr.NumVars = len(names)
	cr.VarNames = names
	if len(cr.Body) > 64 {
		return CRule{}, fmt.Errorf("ast: rule at line %d has %d premises; the engines support at most 64", r.Line, len(cr.Body))
	}
	cr.PosVar = make([]bool, cr.NumVars)
	markPos := func(a CAtom) {
		for _, t := range a.Args {
			if t.IsVar() {
				cr.PosVar[t.VarSlot()] = true
			}
		}
	}
	markPos(cr.Head)
	for _, pr := range cr.Body {
		switch pr.Kind {
		case Plain, Hyp:
			markPos(pr.Atom)
			for _, a := range pr.Adds {
				markPos(a)
			}
			for _, a := range pr.Dels {
				markPos(a)
			}
		}
	}
	return cr, nil
}

// CheckRewritten reports the first rule premise RewriteNegation would
// rewrite: a negated hypothetical, or a negation with a variable that
// occurs positively nowhere in its rule. The engines test every negated
// premise ground, so they refuse such a program rather than answer it
// with the wrong quantifier.
func (cp *CProgram) CheckRewritten() error {
	for i := range cp.Rules {
		if err := cp.Rules[i].CheckRewritten(); err != nil {
			return err
		}
	}
	return nil
}

// CheckRewritten is CProgram.CheckRewritten for one rule.
func (r *CRule) CheckRewritten() error {
	for _, pr := range r.Body {
		switch pr.Kind {
		case NegHyp:
			return fmt.Errorf("ast: rule at line %d: negated hypothetical premise; run RewriteNegation first", r.Line)
		case Negated:
			for _, t := range pr.Atom.Args {
				if t.IsVar() && !r.PosVar[t.VarSlot()] {
					return fmt.Errorf("ast: rule at line %d: variable %s occurs only under negation; run RewriteNegation first",
						r.Line, r.VarNames[t.VarSlot()])
				}
			}
		}
	}
	return nil
}

// CompilePremise interns a standalone premise (typically a query). vars
// and names accumulate variable slots across calls, so several premises
// can share a binding space.
func CompilePremise(p Premise, syms *symbols.Table, vars map[string]int, names *[]string) (CPremise, error) {
	return compilePremise(p, syms, vars, names)
}

func compilePremise(p Premise, syms *symbols.Table, vars map[string]int, names *[]string) (CPremise, error) {
	a, err := compileAtomVars(p.Atom, syms, vars, names)
	if err != nil {
		return CPremise{}, err
	}
	cp := CPremise{Kind: p.Kind, Atom: a}
	for _, add := range p.Adds {
		ca, err := compileAtomVars(add, syms, vars, names)
		if err != nil {
			return CPremise{}, err
		}
		cp.Adds = append(cp.Adds, ca)
	}
	for _, del := range p.Dels {
		ca, err := compileAtomVars(del, syms, vars, names)
		if err != nil {
			return CPremise{}, err
		}
		cp.Dels = append(cp.Dels, ca)
	}
	return cp, nil
}

func compileAtomVars(a Atom, syms *symbols.Table, vars map[string]int, names *[]string) (CAtom, error) {
	out := CAtom{Pred: syms.Pred(a.Pred, a.Arity())}
	if len(a.Args) > 0 {
		out.Args = make([]CTerm, len(a.Args))
	}
	for i, t := range a.Args {
		if t.IsVar {
			slot, ok := vars[t.Name]
			if !ok {
				slot = len(*names)
				vars[t.Name] = slot
				*names = append(*names, t.Name)
			}
			out.Args[i] = CVar(slot)
		} else {
			out.Args[i] = CConst(syms.Const(t.Name))
		}
	}
	return out, nil
}

// compileAtom interns a ground atom (vars map unused).
func compileAtom(a Atom, syms *symbols.Table, _ map[string]int) (CAtom, error) {
	out := CAtom{Pred: syms.Pred(a.Pred, a.Arity())}
	if len(a.Args) > 0 {
		out.Args = make([]CTerm, len(a.Args))
	}
	for i, t := range a.Args {
		if t.IsVar {
			return CAtom{}, fmt.Errorf("ast: variable %s in ground atom %s", t.Name, a)
		}
		out.Args[i] = CConst(syms.Const(t.Name))
	}
	return out, nil
}
