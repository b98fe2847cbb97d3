// Package workload generates the programs and databases used by the test
// suite and the experiment harness: the paper's Examples 4-8 parameterised
// by size, random digraphs (optionally with a planted Hamiltonian path),
// synthetic k-strata rulebases for the Lemma 1 experiment, and random
// stratified programs for differential fuzzing.
package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
)

// ChainProgram builds Example 4: a chain of hypothetical implications
//
//	a1 :- a2[add: b1].   ...   an :- a{n+1}[add: bn].   a{n+1} :- d.
//	d :- b1, ..., bn.
//
// so a1 holds iff all n hypotheses accumulate.
func ChainProgram(n int) string { return chainProgram(n, "d") }

// chainProgram is ChainProgram with the given body for a{n+1}.
func chainProgram(n int, bottom string) string {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "a%d :- a%d[add: b%d].\n", i, i+1, i)
	}
	fmt.Fprintf(&b, "a%d :- %s.\n", n+1, bottom)
	// d holds iff all b1..bn accumulated, written as a chain so no rule
	// body exceeds the engines' 64-premise limit.
	b.WriteString("d :- d1.\n")
	for i := 1; i <= n; i++ {
		if i < n {
			fmt.Fprintf(&b, "d%d :- b%d, d%d.\n", i, i, i+1)
		} else {
			fmt.Fprintf(&b, "d%d :- b%d.\n", i, i)
		}
	}
	return b.String()
}

// TaggedChainProgram is ChainProgram(n) whose bottom also needs a tag,
// a{n+1} :- d, seen, where seen holds when some note(t_i) over the
// constants t0..t{tags-1} does: asking a1 under the one hypothetical add
// note(t_i) walks the whole chain in n states that no ask under another
// tag stands in. The tag is in a1's dependency cone, so repeated asks
// share neither a hypothetical state nor a memo entry, even keyed on the
// part of the state a goal can read.
func TaggedChainProgram(n, tags int) string {
	var b strings.Builder
	b.WriteString(chainProgram(n, "d, seen"))
	b.WriteString("seen :- note(X), tag(X).\n")
	for i := 0; i < tags; i++ {
		fmt.Fprintf(&b, "tag(t%d).\n", i)
	}
	return b.String()
}

// OrderLoopProgram builds Example 5: iterate over a stored linear order of
// n elements, hypothetically adding marker(x) for each, then check that
// every marker is present.
func OrderLoopProgram(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "first(e1).\n")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, "next(e%d, e%d).\n", i, i+1)
	}
	fmt.Fprintf(&b, "last(e%d).\n", n)
	b.WriteString("a :- first(X), ap(X)[add: marker(X)].\n")
	b.WriteString("ap(X) :- next(X, Y), ap(Y)[add: marker(Y)].\n")
	b.WriteString("ap(X) :- last(X), d.\n")
	// d holds iff every marker(e_i) accumulated, as a chain so no rule
	// body exceeds the engines' 64-premise limit.
	b.WriteString("d :- d1.\n")
	for i := 1; i <= n; i++ {
		if i < n {
			fmt.Fprintf(&b, "d%d :- marker(e%d), d%d.\n", i, i, i+1)
		} else {
			fmt.Fprintf(&b, "d%d :- marker(e%d).\n", i, i)
		}
	}
	return b.String()
}

// ParityProgram builds Example 6 over a unary relation item/1 with n
// elements: even holds iff n is even. The copying order is irrelevant
// (order independence, section 6.2.3).
func ParityProgram(n int) string {
	var b strings.Builder
	b.WriteString("even :- selectx(X), odd[add: copied(X)].\n")
	b.WriteString("odd :- selectx(X), even[add: copied(X)].\n")
	b.WriteString("even :- not selectx(X).\n")
	b.WriteString("selectx(X) :- item(X), not copied(X).\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "item(x%d).\n", i)
	}
	return b.String()
}

// Digraph is a directed graph over nodes 0..N-1.
type Digraph struct {
	N     int
	Edges [][2]int
}

// HamiltonianProgram builds Examples 7 and 8 for a digraph: yes holds iff
// the graph has a directed Hamiltonian path, and no holds iff it does not.
func HamiltonianProgram(g Digraph) string {
	var b strings.Builder
	b.WriteString("yes :- node(X), path(X)[add: pnode(X)].\n")
	b.WriteString("path(X) :- selecty(Y), edge(X, Y), path(Y)[add: pnode(Y)].\n")
	b.WriteString("path(X) :- not selecty(Y).\n")
	b.WriteString("selecty(Y) :- node(Y), not pnode(Y).\n")
	b.WriteString("no :- not yes.\n")
	for i := 0; i < g.N; i++ {
		fmt.Fprintf(&b, "node(v%d).\n", i)
	}
	for _, e := range g.Edges {
		fmt.Fprintf(&b, "edge(v%d, v%d).\n", e[0], e[1])
	}
	return b.String()
}

// RandomDigraph samples a digraph on n nodes where each ordered pair
// (i, j), i != j, is an edge with probability p.
func RandomDigraph(rng *rand.Rand, n int, p float64) Digraph {
	g := Digraph{N: n}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < p {
				g.Edges = append(g.Edges, [2]int{i, j})
			}
		}
	}
	return g
}

// PlantedHamiltonian samples a digraph on n nodes that contains a
// Hamiltonian path by construction (a random permutation chain) plus
// random extra edges with probability p.
func PlantedHamiltonian(rng *rand.Rand, n int, p float64) Digraph {
	perm := rng.Perm(n)
	g := Digraph{N: n}
	have := map[[2]int]bool{}
	for i := 0; i+1 < n; i++ {
		e := [2]int{perm[i], perm[i+1]}
		g.Edges = append(g.Edges, e)
		have[e] = true
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			e := [2]int{i, j}
			if i != j && !have[e] && rng.Float64() < p {
				g.Edges = append(g.Edges, e)
				have[e] = true
			}
		}
	}
	return g
}

// HasHamiltonianPath decides by exhaustive search whether the digraph has
// a directed Hamiltonian path — the brute-force baseline for Example 7.
func HasHamiltonianPath(g Digraph) bool {
	if g.N == 0 {
		return false
	}
	adj := make([][]bool, g.N)
	for i := range adj {
		adj[i] = make([]bool, g.N)
	}
	for _, e := range g.Edges {
		adj[e[0]][e[1]] = true
	}
	visited := make([]bool, g.N)
	var dfs func(at, count int) bool
	dfs = func(at, count int) bool {
		if count == g.N {
			return true
		}
		for next := 0; next < g.N; next++ {
			if !visited[next] && adj[at][next] {
				visited[next] = true
				if dfs(next, count+1) {
					return true
				}
				visited[next] = false
			}
		}
		return false
	}
	for start := 0; start < g.N; start++ {
		visited[start] = true
		if dfs(start, 1) {
			return true
		}
		visited[start] = false
	}
	return false
}

// KStrataProgram builds a linearly stratified rulebase shaped like
// Example 9, with k strata and `width` predicates per stratum:
//
//	a<i> :- b<i>, a<i>[add: c<i>]       (Σ_i: linear hypothetical recursion)
//	a<i> :- d<i>, not a<i-1>.           (Δ_i boundary: negation)
//
// plus width-1 auxiliary chained predicates per stratum to scale the
// rulebase size for the Lemma 1 experiment.
func KStrataProgram(k, width int) string {
	var b strings.Builder
	for i := 1; i <= k; i++ {
		fmt.Fprintf(&b, "a%d :- b%d, a%d[add: c%d].\n", i, i, i, i)
		if i == 1 {
			fmt.Fprintf(&b, "a%d :- d%d.\n", i, i)
		} else {
			fmt.Fprintf(&b, "a%d :- d%d, not a%d.\n", i, i, i-1)
		}
		for w := 1; w < width; w++ {
			fmt.Fprintf(&b, "aux%d_%d :- a%d.\n", i, w, i)
		}
	}
	return b.String()
}

// TokenGameProgram builds a deletion workload: a token sits on node
// `start` of a digraph and may move along edges — each move adds the
// token at the new node and deletes it at the old one. goal holds iff the
// token can reach `target`. Moving around cycles revisits database
// states, exercising the engines' non-monotone termination machinery;
// the answer equals plain graph reachability (see Reachable).
func TokenGameProgram(g Digraph, start, target int) string {
	var b strings.Builder
	b.WriteString("goal :- token(T), targetnode(T).\n")
	b.WriteString("goal :- move(X, Y), token(X), goal[add: token(Y)][del: token(X)].\n")
	fmt.Fprintf(&b, "token(v%d).\n", start)
	fmt.Fprintf(&b, "targetnode(v%d).\n", target)
	for _, e := range g.Edges {
		fmt.Fprintf(&b, "move(v%d, v%d).\n", e[0], e[1])
	}
	for i := 0; i < g.N; i++ {
		fmt.Fprintf(&b, "nodetag(v%d).\n", i)
	}
	return b.String()
}

// Reachable decides whether target is reachable from start in the
// digraph (including start == target) — the baseline for TokenGameProgram.
func Reachable(g Digraph, start, target int) bool {
	if start == target {
		return true
	}
	adj := map[int][]int{}
	for _, e := range g.Edges {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	seen := map[int]bool{start: true}
	queue := []int{start}
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		for _, next := range adj[at] {
			if next == target {
				return true
			}
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	return false
}

// The recursive rule of a transitive closure, in its three shapes. All are
// Horn, so all sit in a Δ part; they differ in what a goal-directed
// search has to do with them.
const (
	RightLinear = "reach(X, Y) :- edge(X, Z), reach(Z, Y)."
	LeftLinear  = "reach(X, Y) :- reach(X, Z), edge(Z, Y)."
	NonLinear   = "reach(X, Y) :- reach(X, Z), reach(Z, Y)."
)

// ClosureProgram is reach/2, the transitive closure of the digraph's
// edges over nodes n0..n(N-1), with the given recursive rule.
func ClosureProgram(g Digraph, recursive string) string {
	var b strings.Builder
	b.WriteString("reach(X, Y) :- edge(X, Y).\n" + recursive + "\n")
	for i := 0; i < g.N; i++ {
		fmt.Fprintf(&b, "node(n%d).\n", i)
	}
	for _, e := range g.Edges {
		fmt.Fprintf(&b, "edge(n%d, n%d).\n", e[0], e[1])
	}
	return b.String()
}

// StuckJoinProgram is a read no memo table shortens: link/2 holds every
// pair of the constants c0..c(n-1), and yes joins it depth premises deep
// and closes the cycle with a negated link, which no binding satisfies.
// Refuting yes enumerates all n^(depth+1) bindings in either evaluator,
// and builds no hypothetical state.
func StuckJoinProgram(n, depth int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			fmt.Fprintf(&b, "link(c%d, c%d).\n", i, j)
		}
	}
	b.WriteString("yes :- ")
	for i := 1; i <= depth; i++ {
		fmt.Fprintf(&b, "link(X%d, X%d), ", i, i+1)
	}
	fmt.Fprintf(&b, "not link(X%d, X1).\n", depth+1)
	return b.String()
}

// Chain is the path 0 -> 1 -> ... -> n: n edges, n(n+1)/2 reach tuples.
func Chain(n int) Digraph {
	g := Digraph{N: n + 1}
	for i := 0; i < n; i++ {
		g.Edges = append(g.Edges, [2]int{i, i + 1})
	}
	return g
}

// Chains is k disjoint paths of length nodes each: node i*length + j
// has an edge to node i*length + j + 1. Its closure is k·length(length-1)/2
// reach tuples, each chain's its own.
func Chains(k, length int) Digraph {
	g := Digraph{N: k * length}
	for i := 0; i < k; i++ {
		for j := 0; j+1 < length; j++ {
			g.Edges = append(g.Edges, [2]int{i*length + j, i*length + j + 1})
		}
	}
	return g
}

// SpineChords is the spine 0 -> 1 -> ... -> n-1 and k distinct chords
// drawn from rng: edges between two nodes that are neither a self-loop
// nor a spine edge, the edges a churning writer toggles.
func SpineChords(rng *rand.Rand, n, k int) (spine Digraph, chords [][2]int) {
	spine = Chain(n - 1)
	for len(chords) < k {
		e := [2]int{rng.Intn(n), rng.Intn(n)}
		if e[0] != e[1] && e[1] != e[0]+1 && !slices.Contains(chords, e) {
			chords = append(chords, e)
		}
	}
	return spine, chords
}

// Clique is the complete digraph on nodes 0..k-1 plus the isolated node
// k: refuting reach(n0, nk) has to exhaust the clique, and a search that
// memoises failures only when clean walks its k! simple paths to do so.
func Clique(k int) Digraph {
	g := Digraph{N: k + 1}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if i != j {
				g.Edges = append(g.Edges, [2]int{i, j})
			}
		}
	}
	return g
}

// MixedOp is one step of a live read/write workload against a mutable
// EDB: a query when Query is non-empty, otherwise a mutation batch.
type MixedOp struct {
	Query   string
	Assert  []string
	Retract []string
}

// MixedWorkload couples a seed program with an operation stream for
// exercising an engine whose base facts change at runtime.
type MixedWorkload struct {
	Source string
	Ops    []MixedOp
	Writes int
	Reads  int
}

// MixedReachability builds a graph-reachability workload whose edge set
// churns. The seed program is the transitive closure of edge/2 over n
// nodes with a spine v0 -> ... -> v{n-1}; writes toggle random
// non-spine edges (assert when absent, retract when present — the
// generator tracks the set, so every batch actually changes the
// database), and reads alternate between the ground query
// reach(v0, v{n-1}) (always true: the spine never churns) and
// enumerating reach(v_i, Y). node/1 facts anchor every constant in
// dom(R, DB), so all mutations pass live-store domain validation.
func MixedReachability(rng *rand.Rand, n, ops int, writeFrac float64) MixedWorkload {
	var b strings.Builder
	b.WriteString("reach(X, Y) :- edge(X, Y).\n")
	b.WriteString("reach(X, Y) :- edge(X, Z), reach(Z, Y).\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "node(v%d).\n", i)
	}
	spine := map[[2]int]bool{}
	for i := 0; i+1 < n; i++ {
		fmt.Fprintf(&b, "edge(v%d, v%d).\n", i, i+1)
		spine[[2]int{i, i + 1}] = true
	}
	w := MixedWorkload{Source: b.String()}

	present := map[[2]int]bool{}
	edge := func(e [2]int) string { return fmt.Sprintf("edge(v%d, v%d)", e[0], e[1]) }
	for k := 0; k < ops; k++ {
		if rng.Float64() < writeFrac {
			// Toggle a random non-spine edge.
			var e [2]int
			for {
				e = [2]int{rng.Intn(n), rng.Intn(n)}
				if e[0] != e[1] && !spine[e] {
					break
				}
			}
			op := MixedOp{}
			if present[e] {
				op.Retract = []string{edge(e)}
				delete(present, e)
			} else {
				op.Assert = []string{edge(e)}
				present[e] = true
			}
			w.Ops = append(w.Ops, op)
			w.Writes++
		} else {
			q := fmt.Sprintf("reach(v0, v%d)", n-1)
			if k%2 == 1 {
				q = fmt.Sprintf("reach(v%d, Y)", rng.Intn(n))
			}
			w.Ops = append(w.Ops, MixedOp{Query: q})
			w.Reads++
		}
	}
	return w
}

// FuzzOptions bound the size of RandomStratifiedProgram outputs.
type FuzzOptions struct {
	MaxLevels    int // predicate levels (negation goes strictly down)
	PredsPerLvl  int
	MaxRulesPer  int
	MaxBodyLen   int
	DomSize      int
	EDBFillProb  float64
	HypAddArity1 bool // adds restricted to a single unary predicate pool
	// DelProb makes hypothetical premises delete a pool atom (instead of
	// or in addition to adding one) with this probability.
	DelProb float64
	// BinaryChainProb emits, with this probability, a binary edge/2
	// relation plus a linearly recursive closure tc/2 over it, and lets
	// rule bodies consult tc, biasing the differential corpus toward
	// point queries over binary recursion.
	BinaryChainProb float64
	// SidePool adds a second hypothetical pool, side/1, that half the
	// hypothetical premises add to but only the first predicate of each
	// level reads: a side atom in a state is then irrelevant to the other
	// predicates' proofs, so goals are tabled on states that differ from
	// the ones they are asked in.
	SidePool bool
}

// DefaultFuzz are bounds small enough for the naive reference interpreter.
func DefaultFuzz() FuzzOptions {
	return FuzzOptions{
		MaxLevels:   3,
		PredsPerLvl: 2,
		MaxRulesPer: 2,
		MaxBodyLen:  3,
		DomSize:     3,
		EDBFillProb: 0.4,

		BinaryChainProb: 0.5,
	}
}

// RandomStratifiedProgram generates a random program with hypothetical
// premises and stratified negation:
//
//   - predicates are arranged in levels; negated premises may only mention
//     strictly lower levels (so negation is stratified by construction),
//     and some are negated-hypothetical, ~p(..)[add: pool(..)];
//     plain and hypothetical premises mention the same or lower levels;
//   - hypothetical adds draw from a dedicated pool pool/1 (and side/1 with
//     SidePool), which keeps the reachable state space small enough for
//     the reference interpreter;
//   - extensional predicates e0../1 and the pool are filled randomly.
//
// The generated source parses, validates and passes strat.CheckNegation.
func RandomStratifiedProgram(rng *rand.Rand, o FuzzOptions) string {
	var b strings.Builder
	domConst := func() string { return fmt.Sprintf("c%d", rng.Intn(o.DomSize)) }

	// Extensional layer: two unary relations plus the hypothetical pool.
	for e := 0; e < 2; e++ {
		for d := 0; d < o.DomSize; d++ {
			if rng.Float64() < o.EDBFillProb {
				fmt.Fprintf(&b, "e%d(c%d).\n", e, d)
			}
		}
	}
	if rng.Float64() < 0.3 {
		fmt.Fprintf(&b, "pool(%s).\n", domConst())
	}

	// Optional binary layer: a random edge relation with its transitive
	// closure, consulted from the unary rules below so tc point queries
	// are asked from every stratum.
	binary := rng.Float64() < o.BinaryChainProb
	if binary {
		for s := 0; s < o.DomSize; s++ {
			for d := 0; d < o.DomSize; d++ {
				if rng.Float64() < o.EDBFillProb {
					fmt.Fprintf(&b, "edge(c%d, c%d).\n", s, d)
				}
			}
		}
		b.WriteString("tc(X, Y) :- edge(X, Y).\n")
		b.WriteString("tc(X, Y) :- edge(X, Z), tc(Z, Y).\n")
	}

	pred := func(level, i int) string { return fmt.Sprintf("p%d_%d", level, i) }
	varNames := []string{"X", "Y"}

	atom := func(name string, arity int, groundProb float64) string {
		if arity == 0 {
			return name
		}
		args := make([]string, arity)
		for i := range args {
			if rng.Float64() < groundProb {
				args[i] = domConst()
			} else {
				args[i] = varNames[rng.Intn(len(varNames))]
			}
		}
		return name + "(" + strings.Join(args, ", ") + ")"
	}

	// Each intensional predicate is unary; bodies mix EDB atoms, same-or-
	// lower-level IDB atoms, negated strictly-lower atoms, and hypothetical
	// premises adding pool atoms.
	for lvl := 0; lvl < o.MaxLevels; lvl++ {
		for pi := 0; pi < o.PredsPerLvl; pi++ {
			name := pred(lvl, pi)
			nRules := 1 + rng.Intn(o.MaxRulesPer)
			for r := 0; r < nRules; r++ {
				head := atom(name, 1, 0.2)
				n := 1 + rng.Intn(o.MaxBodyLen)
				var body []string
				for j := 0; j < n; j++ {
					if binary && rng.Intn(6) == 0 {
						body = append(body, atom("tc", 2, 0.4))
						continue
					}
					switch rng.Intn(5) {
					case 0: // EDB atom
						body = append(body, atom(fmt.Sprintf("e%d", rng.Intn(2)), 1, 0.2))
					case 1: // same-or-lower IDB atom
						l := rng.Intn(lvl + 1)
						body = append(body, atom(pred(l, rng.Intn(o.PredsPerLvl)), 1, 0.2))
					case 2: // negated strictly-lower atom (or EDB at level 0)
						neg := "not " + atom(fmt.Sprintf("e%d", rng.Intn(2)), 1, 0.3)
						if lvl > 0 {
							neg = "not " + atom(pred(rng.Intn(lvl), rng.Intn(o.PredsPerLvl)), 1, 0.3)
						}
						// Sometimes negated-hypothetical; Z occurs nowhere else.
						if rng.Intn(4) == 0 {
							neg += fmt.Sprintf("[add: pool(%s)]", []string{"X", "Y", "Z", domConst()}[rng.Intn(4)])
						}
						body = append(body, neg)
					case 3: // hypothetical premise adding/deleting pool atoms
						l := rng.Intn(lvl + 1)
						goal := atom(pred(l, rng.Intn(o.PredsPerLvl)), 1, 0.2)
						added := "pool"
						if o.SidePool && rng.Intn(2) == 0 {
							added = "side"
						}
						mod := fmt.Sprintf("[add: %s]", atom(added, 1, 0.3))
						if o.DelProb > 0 && rng.Float64() < o.DelProb {
							if rng.Intn(2) == 0 {
								mod = fmt.Sprintf("[del: %s]", atom("pool", 1, 0.3))
							} else {
								mod += fmt.Sprintf("[del: %s]", atom("pool", 1, 0.3))
							}
						}
						body = append(body, goal+mod)
					case 4: // pool membership
						read := "pool"
						if o.SidePool && pi == 0 && rng.Intn(2) == 0 {
							read = "side"
						}
						body = append(body, atom(read, 1, 0.3))
					}
				}
				fmt.Fprintf(&b, "%s :- %s.\n", head, strings.Join(body, ", "))
			}
		}
	}
	// Anchor the domain so every ci exists even in sparse programs.
	for d := 0; d < o.DomSize; d++ {
		fmt.Fprintf(&b, "domc(c%d).\n", d)
	}
	return b.String()
}
