// Package depgraph builds the predicate dependency graph of a program and
// computes its strongly connected components. Edges are labelled with the
// occurrence kind of Definition 4 of the paper: positive, negative, or
// hypothetical. Two predicates are mutually recursive iff they are in the
// same SCC (considering all three edge kinds), which is the equivalence
// relation used by the linearity and stratification analyses.
package depgraph

import (
	"hypodatalog/internal/ast"
	"hypodatalog/internal/symbols"
)

// EdgeKind is the occurrence kind that induced a dependency edge.
type EdgeKind int

// Edge kinds, per Definition 4, plus the negated hypothetical that
// section 3.1 rewrites into a negative edge to an auxiliary predicate with
// a hypothetical edge to B.
const (
	Pos    EdgeKind = iota // B(x̄) occurs as a plain premise
	Neg                    // ~B(x̄)
	Hyp                    // B(x̄)[add: ...]
	NegHyp                 // ~B(x̄)[add: ...]
)

func (k EdgeKind) String() string {
	switch k {
	case Pos:
		return "positive"
	case Neg:
		return "negative"
	case Hyp:
		return "hypothetical"
	case NegHyp:
		return "negated-hypothetical"
	default:
		return "?"
	}
}

// Negative reports whether the edge passes through a negation.
func (k EdgeKind) Negative() bool { return k == Neg || k == NegHyp }

// kindOf is the edge kind a premise of the given kind induces.
func kindOf(k ast.PremiseKind) EdgeKind {
	switch k {
	case ast.Negated:
		return Neg
	case ast.Hyp:
		return Hyp
	case ast.NegHyp:
		return NegHyp
	default:
		return Pos
	}
}

// Edge is a labelled dependency from a rule's head predicate to a premise
// predicate.
type Edge struct {
	To   int      // node index of the premise predicate
	Kind EdgeKind // occurrence kind
	Rule int      // index into the program's Rules
}

// Graph is the predicate dependency graph of a program.
type Graph struct {
	Nodes  []ast.PredSig
	NodeOf map[ast.PredSig]int
	Adj    [][]Edge // Adj[i]: edges out of node i (head -> premise)

	// Defined[i] reports whether node i has at least one defining rule.
	Defined []bool
	// RuleNode[r] is the node of rule r's head predicate.
	RuleNode []int
}

// Build constructs the dependency graph of a program. Every predicate
// mentioned anywhere (including in [add: ...] lists and facts) gets a node;
// edges are added only for premise occurrences, matching Definition 4 — a
// hypothetically added atom is data, not a dependency.
func Build(p *ast.Program) *Graph {
	g := &Graph{NodeOf: make(map[ast.PredSig]int)}
	node := func(a ast.Atom) int {
		sig := ast.PredSig{Name: a.Pred, Arity: a.Arity()}
		if i, ok := g.NodeOf[sig]; ok {
			return i
		}
		i := len(g.Nodes)
		g.Nodes = append(g.Nodes, sig)
		g.NodeOf[sig] = i
		g.Adj = append(g.Adj, nil)
		g.Defined = append(g.Defined, false)
		return i
	}
	for _, f := range p.Facts {
		node(f)
	}
	for _, q := range p.Queries {
		node(q.Atom)
		for _, a := range q.Adds {
			node(a)
		}
	}
	g.RuleNode = make([]int, len(p.Rules))
	for ri, r := range p.Rules {
		h := node(r.Head)
		g.Defined[h] = true
		g.RuleNode[ri] = h
		for _, pr := range r.Body {
			to := node(pr.Atom)
			g.Adj[h] = append(g.Adj[h], Edge{To: to, Kind: kindOf(pr.Kind), Rule: ri})
			for _, a := range pr.Adds {
				node(a) // ensure added predicates have nodes; no edge
			}
			for _, a := range pr.Dels {
				node(a) // likewise for deleted predicates
			}
		}
	}
	return g
}

// SCCs returns the strongly connected components of the graph in reverse
// topological order (callees before callers), and compOf mapping each node
// to its component index.
func (g *Graph) SCCs() (comps [][]int, compOf []int) {
	n := len(g.Nodes)
	compOf = make([]int, n)
	for i := range compOf {
		compOf[i] = -1
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	counter := 0

	// Iterative Tarjan so benchmark-sized graphs cannot overflow anything.
	type frame struct {
		v, ei int
	}
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		callStack := []frame{{root, 0}}
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			v := f.v
			if f.ei < len(g.Adj[v]) {
				w := g.Adj[v][f.ei].To
				f.ei++
				if index[w] == -1 {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, frame{w, 0})
				} else if onStack[w] {
					if index[w] < low[v] {
						low[v] = index[w]
					}
				}
				continue
			}
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				parent := callStack[len(callStack)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					compOf[w] = len(comps)
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				comps = append(comps, comp)
			}
		}
	}
	return comps, compOf
}

// OfCompiled builds the dependency graph of a compiled program's rules:
// node i is the predicate symbols.Pred(i) of the program's symbol table,
// and edges are premise occurrences as in Build.
func OfCompiled(cp *ast.CProgram) *Graph {
	n := cp.Syms.NumPreds()
	g := &Graph{
		Nodes:    make([]ast.PredSig, n),
		NodeOf:   make(map[ast.PredSig]int, n),
		Adj:      make([][]Edge, n),
		Defined:  make([]bool, n),
		RuleNode: make([]int, len(cp.Rules)),
	}
	for i := range g.Nodes {
		sig := ast.PredSig{Name: cp.Syms.PredName(symbols.Pred(i)), Arity: cp.Syms.PredArity(symbols.Pred(i))}
		g.Nodes[i], g.NodeOf[sig] = sig, i
	}
	for ri, r := range cp.Rules {
		h := int(r.Head.Pred)
		g.Defined[h], g.RuleNode[ri] = true, h
		for _, pr := range r.Body {
			g.Adj[h] = append(g.Adj[h], Edge{To: int(pr.Atom.Pred), Kind: kindOf(pr.Kind), Rule: ri})
		}
	}
	return g
}
