package ast

import (
	"fmt"
	"slices"
	"strings"
)

// ValidateError describes a static error in a program, with the offending
// rule when available.
type ValidateError struct {
	Rule *Rule  // nil for fact/query errors
	Line int    // 1-based, 0 if unknown
	Msg  string // human-readable description
}

func (e *ValidateError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("line %d: %s", e.Line, e.Msg)
	}
	return e.Msg
}

// Validate checks the static well-formedness rules that the inference
// system of the paper assumes:
//
//   - facts must be ground;
//   - predicate symbols must be used with a consistent arity (this is
//     already enforced by treating name/arity as the identity, but mixed
//     arities are usually typos, so they are reported);
//   - hypothetical premises must add at least one atom.
//
// It returns all problems found, not just the first.
func Validate(p *Program) []error {
	var errs []error
	for _, f := range p.Facts {
		if !f.IsGround() {
			errs = append(errs, &ValidateError{
				Msg: fmt.Sprintf("fact %s is not ground", f),
			})
		}
	}
	for i := range p.Rules {
		r := &p.Rules[i]
		for _, pr := range r.Body {
			if (pr.Kind == Hyp || pr.Kind == NegHyp) && len(pr.Adds)+len(pr.Dels) == 0 {
				errs = append(errs, &ValidateError{
					Rule: r, Line: r.Line,
					Msg: fmt.Sprintf("hypothetical premise %s neither adds nor deletes atoms", pr),
				})
			}
		}
	}
	errs = append(errs, checkArities(p)...)
	return errs
}

func checkArities(p *Program) []error {
	arities := map[string]map[int]bool{}
	note := func(a Atom) {
		m := arities[a.Pred]
		if m == nil {
			m = map[int]bool{}
			arities[a.Pred] = m
		}
		m[a.Arity()] = true
	}
	for _, f := range p.Facts {
		note(f)
	}
	for _, r := range p.Rules {
		note(r.Head)
		for _, pr := range r.Body {
			note(pr.Atom)
			for _, a := range pr.Adds {
				note(a)
			}
			for _, a := range pr.Dels {
				note(a)
			}
		}
	}
	var errs []error
	for name, m := range arities {
		if len(m) > 1 {
			var as []string
			for k := range m {
				as = append(as, fmt.Sprintf("%d", k))
			}
			errs = append(errs, &ValidateError{
				Msg: fmt.Sprintf("predicate %s used with multiple arities {%s}",
					name, strings.Join(as, ", ")),
			})
		}
	}
	return errs
}

// auxMark is in the name of every auxiliary predicate RewriteNegation
// makes. It is not valid UTF-8 and the lexer decodes its input, so no
// lexed name contains it: no user predicate collides with an auxiliary and
// no query names one.
const auxMark = "\xff"

// IsAux reports whether a predicate name is one RewriteNegation made.
func IsAux(pred string) bool { return strings.Contains(pred, auxMark) }

// RewriteNegation returns p with every negated premise that the engines
// do not test ground rewritten by the device of section 3.1. Such a
// premise is either negated-hypothetical, ~A[add: B̄], or has a variable
// that occurs in no head, plain premise or hypothetical premise of its
// rule: Definition 3 reads ~A(Y), with Y nowhere else, as "no Y makes A(Y)
// provable". The premise becomes ~C(V̄) for a fresh predicate C, where V̄
// are its variables that occur positively elsewhere in the rule, and the
// rule
//
//	C(V̄) ← A[add: B̄]    (or C(V̄) ← A)
//
// is appended. C(V̄) holds iff some instance of the premise's own
// variables makes A provable, so ~C(V̄) is the user's premise with every
// variable ground. The input is not modified; the output shares the
// rules, facts and queries the rewrite leaves alone. The rewrite is
// idempotent: no premise it writes needs it again.
func RewriteNegation(p *Program) *Program {
	out := &Program{Rules: make([]Rule, 0, len(p.Rules)), Facts: p.Facts, Queries: p.Queries}
	var aux []Rule
	for _, r := range p.Rules {
		pos := positiveVars(r)
		var body []Premise // r.Body, copied on its first rewrite
		for j, pr := range r.Body {
			vars := pr.Vars(nil)
			local := slices.ContainsFunc(vars, func(v string) bool { return !pos[v] })
			if !(pr.Kind == NegHyp || pr.Kind == Negated && local) {
				continue
			}
			if body == nil {
				body = slices.Clone(r.Body)
			}
			var args []Term
			for _, v := range vars {
				if pos[v] {
					args = append(args, Var(v))
				}
			}
			head := Atom{Pred: fmt.Sprintf("neg%s%d", auxMark, len(aux)+1), Args: args}
			kind := Plain
			if pr.Kind == NegHyp {
				kind = Hyp
			}
			aux = append(aux, Rule{Head: head, Body: []Premise{{Kind: kind, Atom: pr.Atom, Adds: pr.Adds, Dels: pr.Dels}}, Line: r.Line})
			body[j] = NegP(head)
		}
		if body != nil {
			r.Body = body
		}
		out.Rules = append(out.Rules, r)
	}
	out.Rules = append(out.Rules, aux...)
	return out
}

// positiveVars returns the variables of a rule that occur in its head, a
// plain premise or a hypothetical premise.
func positiveVars(r Rule) map[string]bool {
	vs := r.Head.Vars(nil)
	for _, pr := range r.Body {
		if pr.Kind == Plain || pr.Kind == Hyp {
			vs = pr.Vars(vs)
		}
	}
	pos := make(map[string]bool, len(vs))
	for _, v := range vs {
		pos[v] = true
	}
	return pos
}
