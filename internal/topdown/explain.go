package topdown

import (
	"fmt"
	"strings"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/facts"
	"hypodatalog/internal/symbols"
)

// ProofKind classifies a node of a derivation tree.
type ProofKind int

// Proof node kinds.
const (
	// ProofFact: the goal is in the (hypothetically extended) database.
	ProofFact ProofKind = iota
	// ProofRule: the goal follows from a rule instance; Children prove
	// the premises.
	ProofRule
	// ProofNegation: a negated premise ~A, established by the failure of
	// every instance of A (no subtree — failure has no finite witness).
	ProofNegation
	// ProofHyp: a hypothetical premise A[add: ...]; the single child
	// proves A in the extended state.
	ProofHyp
)

// Proof is one node of a derivation tree for R, DB+Δ ⊢ A.
type Proof struct {
	Kind ProofKind
	// Goal is the proven atom (for ProofNegation, the negated premise as
	// written, without its "not", and with the variables bound outside it
	// rendered ground).
	Goal string
	// Rule is the instantiated rule head :- body for ProofRule nodes.
	Rule string
	// Added and Deleted list the hypothetically inserted and removed atoms
	// for ProofHyp nodes.
	Added   []string
	Deleted []string
	// Children are the sub-proofs (premises for ProofRule; the inner
	// proof for ProofHyp).
	Children []*Proof
}

// String renders the proof as an indented tree.
func (p *Proof) String() string {
	var b strings.Builder
	p.render(&b, 0)
	return b.String()
}

func (p *Proof) render(b *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	switch p.Kind {
	case ProofFact:
		fmt.Fprintf(b, "%s%s  [fact]\n", indent, p.Goal)
	case ProofRule:
		fmt.Fprintf(b, "%s%s  [rule %s]\n", indent, p.Goal, p.Rule)
	case ProofNegation:
		fmt.Fprintf(b, "%snot %s  [no instance provable]\n", indent, p.Goal)
	case ProofHyp:
		mods := ""
		if len(p.Added) > 0 {
			mods = "add: " + strings.Join(p.Added, ", ")
		}
		if len(p.Deleted) > 0 {
			if mods != "" {
				mods += "; "
			}
			mods += "del: " + strings.Join(p.Deleted, ", ")
		}
		fmt.Fprintf(b, "%s%s  [under %s]\n", indent, p.Goal, mods)
	}
	for _, c := range p.Children {
		c.render(b, depth+1)
	}
}

// Explain produces a derivation tree for a provable ground goal, or nil
// when the goal does not hold. It reuses the engine's memo table, so
// explaining after asking is cheap.
func (e *Engine) Explain(goal facts.AtomID, st facts.State) (*Proof, error) {
	ok, err := e.Ask(goal, st)
	if err != nil || !ok {
		return nil, err
	}
	seen := map[tableKey]struct{}{}
	return e.explain(goal, e.entry(goal, st), seen)
}

// explain reconstructs one derivation through prove's own body evaluation:
// evalBody offers each rule instance that holds, in the planner's order, to
// a continuation that builds its sub-proofs. The premises are proved one
// frame below the goal, as prove proves them. An on-path set guards against
// cyclic reconstruction; an instance whose sub-proof would repeat an
// on-path goal is rejected and the enumeration moves on (a provable goal
// always has an acyclic derivation, so this stays complete).
func (e *Engine) explain(goal facts.AtomID, st facts.State, onPath map[tableKey]struct{}) (*Proof, error) {
	if st.Has(goal) {
		return &Proof{Kind: ProofFact, Goal: e.in.Format(goal)}, nil
	}
	key := tableKey{goal, st.ID()}
	if _, ok := onPath[key]; ok {
		return nil, nil
	}
	onPath[key] = struct{}{}
	defer delete(onPath, key)

	for _, ri := range e.rules(e.in.Pred(goal)) {
		rule := &e.prog.Rules[ri]
		binding := ast.NewBinding(rule.NumVars)
		if !ast.Unify(rule.Head, e.in.Args(goal), binding) {
			continue
		}
		var proof *Proof
		ok, _, err := e.evalBody(rule, binding, fullMask(len(rule.Body)), st, 1, func() (bool, error) {
			children, ok, err := e.explainInstance(rule, binding, st, onPath)
			if ok {
				proof = &Proof{
					Kind:     ProofRule,
					Goal:     e.in.Format(goal),
					Rule:     e.formatRuleInstance(rule, binding),
					Children: children,
				}
			}
			return ok, err
		})
		if err != nil {
			return nil, err
		}
		if ok {
			return proof, nil
		}
	}
	return nil, nil
}

// explainInstance builds, in source order, the sub-proofs of a rule body
// that holds under the ground binding: a fact, negation or rule node per
// plain or negated premise, a hypothesis frame per hypothetical one. It
// reports false when some premise has no derivation off the path.
func (e *Engine) explainInstance(rule *ast.CRule, binding []symbols.Const, st facts.State, onPath map[tableKey]struct{}) ([]*Proof, bool, error) {
	children := make([]*Proof, 0, len(rule.Body))
	for i := range rule.Body {
		pr := &rule.Body[i]
		if pr.Kind == ast.Negated {
			children = append(children, &Proof{Kind: ProofNegation, Goal: e.formatNegated(pr, binding, rule.VarNames)})
			continue
		}
		goal, next := e.in.Instance(pr, binding, st)
		sub, err := e.explain(goal, next, onPath)
		if sub == nil || err != nil {
			return nil, false, err
		}
		if pr.Kind == ast.Hyp {
			sub = &Proof{Kind: ProofHyp, Goal: e.in.Format(goal), Added: e.formatAtoms(pr.Adds, binding),
				Deleted: e.formatAtoms(pr.Dels, binding), Children: []*Proof{sub}}
		}
		children = append(children, sub)
	}
	return children, true, nil
}

// formatRuleInstance renders a rule with its current (possibly partial)
// binding applied.
func (e *Engine) formatRuleInstance(rule *ast.CRule, binding []symbols.Const) string {
	var b strings.Builder
	b.WriteString(e.formatPattern(rule.Head, binding, rule.VarNames))
	if len(rule.Body) > 0 {
		b.WriteString(" :- ")
		for i := range rule.Body {
			if i > 0 {
				b.WriteString(", ")
			}
			pr := &rule.Body[i]
			if pr.Kind == ast.Negated {
				b.WriteString("not " + e.formatNegated(pr, binding, rule.VarNames))
			} else {
				b.WriteString(e.formatPremise(pr, binding, rule.VarNames))
			}
		}
	}
	return b.String()
}

// formatNegated renders the premise a negation ~A was written as, without
// its "not". For an auxiliary A of the negation rewrite that is the aux
// rule's single premise, under the binding A's arguments give its head.
func (e *Engine) formatNegated(pr *ast.CPremise, binding []symbols.Const, varNames []string) string {
	if !ast.IsAux(e.prog.Syms.PredName(pr.Atom.Pred)) {
		return e.formatPattern(pr.Atom, binding, varNames)
	}
	aux := &e.prog.Rules[e.rules(pr.Atom.Pred)[0]]
	auxBinding := ast.NewBinding(aux.NumVars)
	for i, t := range aux.Head.Args { // variables on both sides
		auxBinding[t.VarSlot()] = binding[pr.Atom.Args[i].VarSlot()]
	}
	return e.formatPremise(&aux.Body[0], auxBinding, aux.VarNames)
}

// formatPremise renders a plain or hypothetical premise under a partial
// binding.
func (e *Engine) formatPremise(pr *ast.CPremise, binding []symbols.Const, varNames []string) string {
	var b strings.Builder
	b.WriteString(e.formatPattern(pr.Atom, binding, varNames))
	for _, mod := range []struct {
		label string
		atoms []ast.CAtom
	}{{"[add: ", pr.Adds}, {"[del: ", pr.Dels}} {
		if len(mod.atoms) == 0 {
			continue
		}
		b.WriteString(mod.label)
		for j, a := range mod.atoms {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.formatPattern(a, binding, varNames))
		}
		b.WriteString("]")
	}
	return b.String()
}

// formatAtoms renders ground instances of atoms, nil for none.
func (e *Engine) formatAtoms(atoms []ast.CAtom, binding []symbols.Const) []string {
	var out []string
	for _, a := range atoms {
		out = append(out, e.formatPattern(a, binding, nil))
	}
	return out
}

// formatPattern renders an atom under a partial binding: bound slots show
// their constants, unbound slots their variable names.
func (e *Engine) formatPattern(a ast.CAtom, binding []symbols.Const, varNames []string) string {
	syms := e.prog.Syms
	if len(a.Args) == 0 {
		return syms.PredName(a.Pred)
	}
	var b strings.Builder
	b.WriteString(syms.PredName(a.Pred))
	b.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case !t.IsVar():
			b.WriteString(syms.ConstName(t.ConstID()))
		case binding[t.VarSlot()] != ast.Unbound:
			b.WriteString(syms.ConstName(binding[t.VarSlot()]))
		default:
			b.WriteString(varNames[t.VarSlot()])
		}
	}
	b.WriteByte(')')
	return b.String()
}
