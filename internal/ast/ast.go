// Package ast defines the abstract syntax of hypothetical Datalog programs:
// terms, atoms, rule premises (plain, negated, and hypothetical), rules, and
// whole programs. It also provides validation, the negation rewrite of
// section 3.1 of the paper, and compilation into the interned form
// consumed by the evaluation engines.
//
// The syntax follows Bonner (PODS 1989): a rule is
//
//	A ← φ1, ..., φk
//
// where A is an atom and each premise φi is an atom B, a negated atom ~B, or
// a hypothetical query B[add: C1, ..., Cm] meaning "B is provable if the
// ground atoms Ci were inserted into the database".
package ast

import (
	"fmt"
	"strings"
)

// Term is a variable or a constant. Variables start with an upper-case
// letter or underscore in the surface syntax; constants start lower-case.
type Term struct {
	Name  string
	IsVar bool
}

// Var returns a variable term.
func Var(name string) Term { return Term{Name: name, IsVar: true} }

// Const returns a constant term.
func Const(name string) Term { return Term{Name: name} }

// String renders the term in surface syntax, quoting constants that are
// not plain identifiers or integers.
func (t Term) String() string {
	if t.IsVar {
		return t.Name
	}
	return quoteName(t.Name)
}

// quoteName renders a constant or predicate name, quoting when it would
// not lex back as a single identifier or integer token.
func quoteName(s string) string {
	if isPlainName(s) {
		return s
	}
	var b strings.Builder
	b.WriteByte('\'')
	for _, r := range s {
		if r == '\'' || r == '\\' {
			b.WriteByte('\\')
		}
		b.WriteRune(r)
	}
	b.WriteByte('\'')
	return b.String()
}

// isPlainName reports whether s lexes as a bare identifier (lower-case
// first letter) or an integer literal.
func isPlainName(s string) bool {
	if s == "" || s == "not" {
		return false
	}
	if s[0] >= '0' && s[0] <= '9' {
		for i := 0; i < len(s); i++ {
			if s[i] < '0' || s[i] > '9' {
				return false
			}
		}
		return true
	}
	if s[0] < 'a' || s[0] > 'z' {
		return false
	}
	for i := 1; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !ok {
			return false
		}
	}
	return true
}

// Atom is a predicate applied to terms. A zero-arity atom has nil Args.
type Atom struct {
	Pred string
	Args []Term
}

// Arity returns the number of arguments.
func (a Atom) Arity() int { return len(a.Args) }

// IsGround reports whether the atom contains no variables.
func (a Atom) IsGround() bool {
	for _, t := range a.Args {
		if t.IsVar {
			return false
		}
	}
	return true
}

// Vars appends the names of variables occurring in a to dst, preserving
// first-occurrence order and skipping duplicates already present in dst.
func (a Atom) Vars(dst []string) []string {
	for _, t := range a.Args {
		if !t.IsVar {
			continue
		}
		if !containsString(dst, t.Name) {
			dst = append(dst, t.Name)
		}
	}
	return dst
}

// String renders the atom in surface syntax.
func (a Atom) String() string {
	if len(a.Args) == 0 {
		return quoteName(a.Pred)
	}
	var b strings.Builder
	b.WriteString(quoteName(a.Pred))
	b.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteByte(')')
	return b.String()
}

// PremiseKind distinguishes the three premise forms of Definition 1 plus
// the negated-hypothetical form that the paper's section 3.1 rewrites.
type PremiseKind int

const (
	// Plain is an atomic premise B.
	Plain PremiseKind = iota
	// Negated is a negation-as-failure premise ~B.
	Negated
	// Hyp is a hypothetical premise B[add: C1,...,Cm].
	Hyp
	// NegHyp is ~B[add: C1,...,Cm]. internal/ref evaluates it as written;
	// for the engines RewriteNegation turns it into a negated auxiliary
	// predicate, per section 3.1.
	NegHyp
)

func (k PremiseKind) String() string {
	switch k {
	case Plain:
		return "plain"
	case Negated:
		return "negated"
	case Hyp:
		return "hypothetical"
	case NegHyp:
		return "negated-hypothetical"
	default:
		return fmt.Sprintf("PremiseKind(%d)", int(k))
	}
}

// Premise is one conjunct of a rule body, or a top-level query.
type Premise struct {
	Kind PremiseKind
	Atom Atom   // the queried atom B
	Adds []Atom // hypothetically added atoms (Kind Hyp or NegHyp only)
	// Dels are hypothetically deleted atoms — the extension beyond the
	// PODS'89 fragment that the paper's introduction credits with raising
	// data-complexity to EXPTIME. A Hyp premise carries Adds, Dels, or
	// both.
	Dels []Atom
}

// PlainP wraps an atom as a plain premise.
func PlainP(a Atom) Premise { return Premise{Kind: Plain, Atom: a} }

// NegP wraps an atom as a negated premise.
func NegP(a Atom) Premise { return Premise{Kind: Negated, Atom: a} }

// Vars appends the premise's variable names to dst in first-occurrence
// order, skipping duplicates.
func (p Premise) Vars(dst []string) []string {
	dst = p.Atom.Vars(dst)
	for _, a := range p.Adds {
		dst = a.Vars(dst)
	}
	for _, a := range p.Dels {
		dst = a.Vars(dst)
	}
	return dst
}

// String renders the premise in surface syntax.
func (p Premise) String() string {
	var b strings.Builder
	if p.Kind == Negated || p.Kind == NegHyp {
		b.WriteString("not ")
	}
	b.WriteString(p.Atom.String())
	if p.Kind == Hyp || p.Kind == NegHyp {
		if len(p.Adds) > 0 {
			b.WriteString("[add: ")
			for i, a := range p.Adds {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(a.String())
			}
			b.WriteByte(']')
		}
		if len(p.Dels) > 0 {
			b.WriteString("[del: ")
			for i, a := range p.Dels {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(a.String())
			}
			b.WriteByte(']')
		}
	}
	return b.String()
}

// Rule is a hypothetical rule Head ← Body. A rule with an empty body is a
// (possibly non-ground) unconditional rule; ground bodiless rules are facts.
type Rule struct {
	Head Atom
	Body []Premise
	Line int // 1-based source line, 0 if synthesised
}

// Vars returns the rule's variable names in first-occurrence order
// (head first, then body).
func (r Rule) Vars() []string {
	vs := r.Head.Vars(nil)
	for _, p := range r.Body {
		vs = p.Vars(vs)
	}
	return vs
}

// String renders the rule in surface syntax, terminated with a period.
func (r Rule) String() string {
	if len(r.Body) == 0 {
		return r.Head.String() + "."
	}
	parts := make([]string, len(r.Body))
	for i, p := range r.Body {
		parts[i] = p.String()
	}
	return r.Head.String() + " :- " + strings.Join(parts, ", ") + "."
}

// Program is a parsed hypothetical Datalog program: a rulebase, a set of
// ground facts (the database), and optional queries.
type Program struct {
	Rules   []Rule
	Facts   []Atom
	Queries []Premise
}

// String renders the whole program in surface syntax.
func (p *Program) String() string {
	var b strings.Builder
	for _, f := range p.Facts {
		b.WriteString(f.String())
		b.WriteString(".\n")
	}
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	for _, q := range p.Queries {
		b.WriteString("?- ")
		b.WriteString(q.String())
		b.WriteString(".\n")
	}
	return b.String()
}

// PredSig identifies a predicate by name and arity.
type PredSig struct {
	Name  string
	Arity int
}

// String renders the signature as name/arity.
func (s PredSig) String() string { return fmt.Sprintf("%s/%d", s.Name, s.Arity) }

func containsString(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
