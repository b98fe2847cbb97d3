// Package parser parses the hypothetical Datalog surface syntax into an
// ast.Program.
//
// Grammar (comments run from % or // to end of line):
//
//	program   := clause*
//	clause    := '?-' premise '.'                  (query)
//	           | atom ':-' premise (',' premise)* '.'   (rule)
//	           | atom '.'                           (fact if ground,
//	                                                 unconditional rule otherwise)
//	premise   := ('not' | '~')? atom modifier*
//	modifier  := '[' ('add' | 'del') ':' atom (',' atom)* ']'
//	atom      := ident [ '(' term (',' term)* ')' ]
//	term      := ident | variable | integer
//
// Identifiers start with a lower-case letter (or are quoted, or integers)
// and denote predicate/constant symbols; variables start with an upper-case
// letter or underscore.
package parser

import (
	"fmt"
	"os"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/lexer"
)

// Error is a syntax error with position information.
type Error struct {
	Line int
	Col  int
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("line %d:%d: %s", e.Line, e.Col, e.Msg)
}

type parser struct {
	toks []lexer.Token
	pos  int
}

// Parse parses a full program from source text.
func Parse(src string) (*ast.Program, error) {
	toks, err := lexer.Tokens(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &ast.Program{}
	for p.peek().Kind != lexer.EOF {
		if err := p.clause(prog); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// ParseFile parses a program from a file on disk.
func ParseFile(path string) (*ast.Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	prog, err := Parse(string(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return prog, nil
}

// ParseAtom parses a single atom (no trailing period).
func ParseAtom(src string) (ast.Atom, error) {
	toks, err := lexer.Tokens(src)
	if err != nil {
		return ast.Atom{}, err
	}
	p := &parser{toks: toks}
	a, err := p.atom()
	if err != nil {
		return ast.Atom{}, err
	}
	if p.peek().Kind != lexer.EOF {
		return ast.Atom{}, p.errHere("trailing input after atom")
	}
	return a, nil
}

// ParsePremise parses a single premise such as "p(X)[add: q(X)]" or
// "not p(X)" (no trailing period).
func ParsePremise(src string) (ast.Premise, error) {
	toks, err := lexer.Tokens(src)
	if err != nil {
		return ast.Premise{}, err
	}
	p := &parser{toks: toks}
	pr, err := p.premise()
	if err != nil {
		return ast.Premise{}, err
	}
	if p.peek().Kind != lexer.EOF {
		return ast.Premise{}, p.errHere("trailing input after premise")
	}
	return pr, nil
}

func (p *parser) peek() lexer.Token { return p.toks[p.pos] }

func (p *parser) next() lexer.Token {
	t := p.toks[p.pos]
	if t.Kind != lexer.EOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(k lexer.Kind) (lexer.Token, error) {
	t := p.peek()
	if t.Kind != k {
		return t, &Error{t.Line, t.Col, fmt.Sprintf("expected %s, found %s", k, t)}
	}
	return p.next(), nil
}

func (p *parser) errHere(msg string) error {
	t := p.peek()
	return &Error{t.Line, t.Col, msg}
}

func (p *parser) clause(prog *ast.Program) error {
	if p.peek().Kind == lexer.Query {
		p.next()
		pr, err := p.premise()
		if err != nil {
			return err
		}
		if _, err := p.expect(lexer.Period); err != nil {
			return err
		}
		prog.Queries = append(prog.Queries, pr)
		return nil
	}
	startLine := p.peek().Line
	head, err := p.atom()
	if err != nil {
		return err
	}
	switch p.peek().Kind {
	case lexer.Period:
		p.next()
		if head.IsGround() {
			prog.Facts = append(prog.Facts, head)
		} else {
			prog.Rules = append(prog.Rules, ast.Rule{Head: head, Line: startLine})
		}
		return nil
	case lexer.Implies:
		p.next()
		var body []ast.Premise
		for {
			pr, err := p.premise()
			if err != nil {
				return err
			}
			body = append(body, pr)
			if p.peek().Kind != lexer.Comma {
				break
			}
			p.next()
		}
		if _, err := p.expect(lexer.Period); err != nil {
			return err
		}
		prog.Rules = append(prog.Rules, ast.Rule{Head: head, Body: body, Line: startLine})
		return nil
	default:
		return p.errHere(fmt.Sprintf("expected '.' or ':-' after %s", head))
	}
}

// premise := ('not'|'~')? atom ('[' ('add'|'del') ':' atomList ']')*
func (p *parser) premise() (ast.Premise, error) {
	neg := false
	if p.peek().Kind == lexer.Not {
		neg = true
		p.next()
	}
	a, err := p.atom()
	if err != nil {
		return ast.Premise{}, err
	}
	pr := ast.Premise{Kind: ast.Plain, Atom: a}
	for p.peek().Kind == lexer.LBracket {
		p.next()
		kw, err := p.expect(lexer.Ident)
		if err != nil {
			return ast.Premise{}, err
		}
		if kw.Text != "add" && kw.Text != "del" {
			return ast.Premise{}, &Error{kw.Line, kw.Col,
				fmt.Sprintf("expected 'add' or 'del' inside hypothetical premise, found %q", kw.Text)}
		}
		if _, err := p.expect(lexer.Colon); err != nil {
			return ast.Premise{}, err
		}
		for {
			atom, err := p.atom()
			if err != nil {
				return ast.Premise{}, err
			}
			if kw.Text == "add" {
				pr.Adds = append(pr.Adds, atom)
			} else {
				pr.Dels = append(pr.Dels, atom)
			}
			if p.peek().Kind != lexer.Comma {
				break
			}
			p.next()
		}
		if _, err := p.expect(lexer.RBracket); err != nil {
			return ast.Premise{}, err
		}
		pr.Kind = ast.Hyp
	}
	if neg {
		if pr.Kind == ast.Hyp {
			pr.Kind = ast.NegHyp
		} else {
			pr.Kind = ast.Negated
		}
	}
	return pr, nil
}

func (p *parser) atom() (ast.Atom, error) {
	t := p.peek()
	var name string
	switch t.Kind {
	case lexer.Ident, lexer.Int:
		name = t.Text
		p.next()
	default:
		return ast.Atom{}, &Error{t.Line, t.Col,
			fmt.Sprintf("expected predicate symbol, found %s", t)}
	}
	a := ast.Atom{Pred: name}
	if p.peek().Kind != lexer.LParen {
		return a, nil
	}
	p.next()
	for {
		tm, err := p.term()
		if err != nil {
			return ast.Atom{}, err
		}
		a.Args = append(a.Args, tm)
		if p.peek().Kind != lexer.Comma {
			break
		}
		p.next()
	}
	if _, err := p.expect(lexer.RParen); err != nil {
		return ast.Atom{}, err
	}
	return a, nil
}

func (p *parser) term() (ast.Term, error) {
	t := p.peek()
	switch t.Kind {
	case lexer.Ident, lexer.Int:
		p.next()
		return ast.Const(t.Text), nil
	case lexer.Variable:
		p.next()
		return ast.Var(t.Text), nil
	default:
		return ast.Term{}, &Error{t.Line, t.Col,
			fmt.Sprintf("expected term, found %s", t)}
	}
}
