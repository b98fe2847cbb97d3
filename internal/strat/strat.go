// Package strat implements linear stratification (section 4 of the paper).
//
// It provides the two polynomial-time decidability tests of Lemma 1 —
// (i) no equivalence class of mutually recursive predicates has recursion
// through negation, and (ii) no class has both hypothetical recursion and
// non-linear recursion — and the relaxation algorithm that assigns each
// predicate a partition number satisfying Definition 6 (H-stratification).
// Partitions are grouped into strata per Definition 7: partition 2i-1 is
// Δ_i (the Horn-with-negation lower part of stratum i) and partition 2i is
// Σ_i (the linear-hypothetical upper part).
package strat

import (
	"fmt"
	"sort"
	"strings"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/depgraph"
)

// NotStratifiableError reports why a program has no linear stratification.
type NotStratifiableError struct {
	Reason string        // human-readable failure class
	Preds  []ast.PredSig // the offending equivalence class
	Lines  []int         // source lines of the offending rules, if known
	// Negation marks recursion through negation (Lemma 1's first test):
	// the program has no semantics at all, where failing only the second
	// test leaves it evaluable.
	Negation bool
}

func (e *NotStratifiableError) Error() string {
	names := make([]string, len(e.Preds))
	for i, p := range e.Preds {
		names[i] = p.String()
	}
	msg := fmt.Sprintf("not linearly stratifiable: %s in {%s}", e.Reason, strings.Join(names, ", "))
	if len(e.Lines) > 0 {
		var ls []string
		for _, l := range e.Lines {
			if l > 0 {
				ls = append(ls, fmt.Sprintf("%d", l))
			}
		}
		if len(ls) > 0 {
			msg += " (rules at line " + strings.Join(ls, ", ") + ")"
		}
	}
	return msg
}

// Stratification is the result of a successful analysis.
type Stratification struct {
	// Part assigns every defined predicate its partition number (1-based).
	// Predicates with no defining rules (extensional) get partition 1.
	Part map[ast.PredSig]int
	// RulePart[r] is the partition of rule r (the partition of its head).
	RulePart []int
	// NumParts is the highest partition number in use.
	NumParts int
	// NumStrata is the number of strata k = ceil(NumParts/2); the program
	// is data-complete for Σ_k^P by Theorem 1.
	NumStrata int
	// Delta[i] and Sigma[i] list the rule indexes in Δ_{i+1} and Σ_{i+1}.
	Delta [][]int
	Sigma [][]int
	// DeltaComps[i] splits Delta[i] into the weakly connected components of
	// Δ_{i+1}'s own predicates, linked by premises of any kind. No rule of
	// one component reads a predicate another defines, so each can be
	// materialised alone. Components are listed by their first rule.
	DeltaComps [][][]int
	// Comps are the mutual-recursion equivalence classes; CompOf maps each
	// predicate to its class index.
	Comps  [][]ast.PredSig
	CompOf map[ast.PredSig]int
	// Iterations counts outer passes of the relaxation algorithm, for the
	// Lemma 1 complexity experiment.
	Iterations int
}

// CheckNegation runs only the first Lemma 1 test: no recursion through
// negation. This is the condition required for the program's semantics to
// be well defined at all (section 3.1); linear stratifiability (both
// tests, which Stratify runs) additionally bounds the data-complexity but
// is not needed for evaluation. Example 3 of the paper, for instance,
// passes CheckNegation but is not linearly stratifiable.
func CheckNegation(p *ast.Program) error {
	g := depgraph.Build(p)
	comps, compOf := g.SCCs()
	return negationCycle(p, g, comps, compOf)
}

// negationCycle is test 1: recursion through negation — a negative edge
// inside an SCC.
func negationCycle(p *ast.Program, g *depgraph.Graph, comps [][]int, compOf []int) error {
	for from, edges := range g.Adj {
		for _, e := range edges {
			if e.Kind.Negative() && compOf[e.To] == compOf[from] {
				return &NotStratifiableError{
					Reason:   "recursion through negation",
					Preds:    compSigs(g, comps[compOf[from]]),
					Lines:    []int{p.Rules[e.Rule].Line},
					Negation: true,
				}
			}
		}
	}
	return nil
}

func check(p *ast.Program, g *depgraph.Graph, comps [][]int, compOf []int) error {
	if err := negationCycle(p, g, comps, compOf); err != nil {
		return err
	}
	// Test 2: an SCC with both hypothetical recursion and non-linear
	// recursion. A rule is recursive iff its premises mention >= 1
	// predicate mutually recursive with its head; non-linear iff >= 2
	// (Definition 8).
	hypRec := make([]bool, len(comps))
	hypLine := make([]int, len(comps))
	for from, edges := range g.Adj {
		for _, e := range edges {
			if e.Kind == depgraph.Hyp && compOf[e.To] == compOf[from] {
				c := compOf[from]
				if !hypRec[c] {
					hypRec[c] = true
					hypLine[c] = p.Rules[e.Rule].Line
				}
			}
		}
	}
	for ri, r := range p.Rules {
		h := g.RuleNode[ri]
		c := compOf[h]
		count := 0
		for _, pr := range r.Body {
			sig := ast.PredSig{Name: pr.Atom.Pred, Arity: pr.Atom.Arity()}
			n, ok := g.NodeOf[sig]
			if ok && compOf[n] == c {
				count++
			}
		}
		if count >= 2 && hypRec[c] {
			return &NotStratifiableError{
				Reason: "equivalence class has both hypothetical recursion and non-linear recursion",
				Preds:  compSigs(g, comps[c]),
				Lines:  []int{r.Line, hypLine[c]},
			}
		}
	}
	return nil
}

func compSigs(g *depgraph.Graph, comp []int) []ast.PredSig {
	out := make([]ast.PredSig, len(comp))
	for i, n := range comp {
		out[i] = g.Nodes[n]
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Arity < out[j].Arity
	})
	return out
}

// Stratify checks the program and, if it is linearly stratifiable, runs
// the paper's relaxation algorithm to compute a concrete stratification.
func Stratify(p *ast.Program) (*Stratification, error) {
	g := depgraph.Build(p)
	comps, compOf := g.SCCs()
	if err := check(p, g, comps, compOf); err != nil {
		return nil, err
	}
	s, err := relax(p, g, maxPartsBound(g))
	if err != nil {
		return nil, err
	}
	s.Comps = make([][]ast.PredSig, len(comps))
	s.CompOf = make(map[ast.PredSig]int, len(g.Nodes))
	for ci, comp := range comps {
		s.Comps[ci] = compSigs(g, comp)
		for _, n := range comp {
			s.CompOf[g.Nodes[n]] = ci
		}
	}
	return s, nil
}

// HStratify runs only the relaxation of Definition 6, without the
// linearity and negation tests. It succeeds on programs that are
// H-stratified but not linearly stratified (e.g. Example 10 of the paper)
// and fails when no H-stratification exists (the partition numbers would
// grow without bound, detected by the safety cap).
func HStratify(p *ast.Program) (*Stratification, error) {
	g := depgraph.Build(p)
	return relax(p, g, maxPartsBound(g))
}

// maxPartsBound is a safe upper bound on partition numbers: in the worst
// case each defined predicate occupies its own partition and parity
// adjustment can add one more level per predicate.
func maxPartsBound(g *depgraph.Graph) int {
	defined := 0
	for _, d := range g.Defined {
		if d {
			defined++
		}
	}
	return 2*defined + 2
}

// relax runs the paper's relaxation algorithm:
//
//	assign every predicate partition 1;
//	do until nothing changes:
//	  for each predicate P: if part(P) violates Definition 6, increment it.
//
// The Definition 6 conditions, phrased as requirements on the partition h
// of a rule's head given the partition b of an occurring defined predicate:
//
//	positive occurrence:      h >= b
//	negative occurrence:      h >= b, and if h is even then h > b
//	hypothetical occurrence:  h >= b, and if h is odd  then h > b
//	negated hypothetical:     h > b rounded up to even
//
// (Negation inside an odd partition is permitted because Definition 9
// separately requires each Δ_i to have stratified negation, which test 1
// has already established; likewise hypothetical recursion inside an even
// partition is covered by the linearity test.)
func relax(p *ast.Program, g *depgraph.Graph, cap int) (*Stratification, error) {
	n := len(g.Nodes)
	part := make([]int, n)
	for i := range part {
		part[i] = 1
	}
	iters := 0
	for changed := true; changed; {
		changed = false
		iters++
		for node := 0; node < n; node++ {
			if !g.Defined[node] {
				continue
			}
			if violates(g, part, node) {
				part[node]++
				if part[node] > cap {
					return nil, &NotStratifiableError{
						Reason: "no H-stratification exists (partition numbers diverge)",
						Preds:  []ast.PredSig{g.Nodes[node]},
					}
				}
				changed = true
			}
		}
	}
	s := &Stratification{
		Part:       make(map[ast.PredSig]int, n),
		RulePart:   make([]int, len(p.Rules)),
		Iterations: iters,
	}
	for i, sig := range g.Nodes {
		s.Part[sig] = part[i]
		if part[i] > s.NumParts {
			s.NumParts = part[i]
		}
	}
	s.NumStrata = (s.NumParts + 1) / 2
	s.Delta = make([][]int, s.NumStrata)
	s.Sigma = make([][]int, s.NumStrata)
	for ri := range p.Rules {
		h := part[g.RuleNode[ri]]
		s.RulePart[ri] = h
		stratum := (h + 1) / 2 // partitions 2i-1,2i -> stratum i
		if h%2 == 1 {
			s.Delta[stratum-1] = append(s.Delta[stratum-1], ri)
		} else {
			s.Sigma[stratum-1] = append(s.Sigma[stratum-1], ri)
		}
	}
	s.DeltaComps = make([][][]int, s.NumStrata)
	for i, rules := range s.Delta {
		s.DeltaComps[i] = components(g, rules)
	}
	return s, nil
}

// components groups a Δ part's rules by the weakly connected component of
// their head predicates, in order of each component's first rule.
func components(g *depgraph.Graph, rules []int) [][]int {
	root := map[int]int{} // union-find over the part's own predicates
	for _, ri := range rules {
		root[g.RuleNode[ri]] = g.RuleNode[ri]
	}
	find := func(x int) int {
		for root[x] != x {
			root[x] = root[root[x]]
			x = root[x]
		}
		return x
	}
	for h := range root {
		for _, e := range g.Adj[h] {
			if _, own := root[e.To]; own {
				root[find(h)] = find(e.To)
			}
		}
	}
	var comps [][]int
	index := map[int]int{}
	for _, ri := range rules {
		r := find(g.RuleNode[ri])
		c, ok := index[r]
		if !ok {
			c = len(comps)
			index[r] = c
			comps = append(comps, nil)
		}
		comps[c] = append(comps[c], ri)
	}
	return comps
}

// violates reports whether the current partition of node's definition
// breaks Definition 6 for any rule defining it.
func violates(g *depgraph.Graph, part []int, node int) bool {
	h := part[node]
	for _, e := range g.Adj[node] {
		if !g.Defined[e.To] {
			continue // empty definition is contained in every prefix
		}
		b := part[e.To]
		switch e.Kind {
		case depgraph.Pos:
			if h < b {
				return true
			}
		case depgraph.Neg:
			if h < b || (h%2 == 0 && h == b) {
				return true
			}
		case depgraph.Hyp:
			if h < b || (h%2 == 1 && h == b) {
				return true
			}
		case depgraph.NegHyp:
			// The two conditions composed, as section 3.1's auxiliary
			// predicate sees them: it sits at the least even partition
			// at or above b, and h negates it.
			if h <= b+b%2 {
				return true
			}
		}
	}
	return false
}
