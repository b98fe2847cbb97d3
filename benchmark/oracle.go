package main

// The answer oracle. Nothing here calls an engine: expected results are
// closed forms over the generated inputs (prefix cover for the chain and
// order-loop examples, item-count parity, exhaustive Hamiltonian search,
// breadth-first reachability), so a bug shared by all five evaluators
// still shows as a failed op.

import (
	"fmt"
	"sort"

	"hypodatalog/internal/workload"
)

// coversPrefix reports whether idx contains every of 0..p-1.
func coversPrefix(idx []int, p int) bool {
	have := map[int]bool{}
	for _, i := range idx {
		have[i] = true
	}
	for i := 0; i < p; i++ {
		if !have[i] {
			return false
		}
	}
	return true
}

// parityOfRemaining reports whether items-copied is even — what Example
// 6's `even` derives when `copied` items are already marked.
func parityOfRemaining(items, copied int) bool { return (items-copied)%2 == 0 }

// hasHamiltonianCircuit decides by exhaustive search whether the digraph
// has a directed Hamiltonian circuit through start (any circuit passes
// through every node, so the anchor does not restrict the answer).
func hasHamiltonianCircuit(g workload.Digraph, start int) bool {
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
			return adj[at][start]
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
	visited[start] = true
	return dfs(start, 1)
}

// adjacency builds successor lists over nodes 0..n-1 from edge slices.
func adjacency(n int, edgeSets ...[][2]int) [][]int {
	adj := make([][]int, n)
	for _, es := range edgeSets {
		for _, e := range es {
			adj[e[0]] = append(adj[e[0]], e[1])
		}
	}
	return adj
}

// reachSet marks every node reachable from src by one or more edges —
// the meaning of reach(src, Y), under which reach(a, a) needs a cycle.
func reachSet(adj [][]int, src int) []bool {
	seen := make([]bool, len(adj))
	queue := append([]int(nil), adj[src]...)
	for _, s := range queue {
		seen[s] = true
	}
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		for _, next := range adj[at] {
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	return seen
}

func nodeNames(set []bool) []string {
	out := []string{}
	for i, ok := range set {
		if ok {
			out = append(out, fmt.Sprintf("v%d", i))
		}
	}
	sort.Strings(out)
	return out
}

// answer memoises one oracle verdict of churn_mixed, keyed by (data
// version, read).
type answer struct {
	done bool
	ok   bool
	set  []string
}

// expect returns the oracle's answer to a read evaluated at the data
// version the reply echoed. The fixed-version workloads precomputed it at
// generation time and must see version 0; churn_mixed derives it from the
// edge set its sole writer had committed at that version.
func (w *workloadSpec) expect(o *op, version uint64, memo map[[2]uint64]answer) (bool, []string, error) {
	if !w.Live {
		if version != 0 {
			return false, nil, fmt.Errorf("data version %d on a read-only daemon", version)
		}
		return o.want, o.wantSet, nil
	}
	if version >= uint64(len(w.extrasAt)) {
		return false, nil, fmt.Errorf("data version %d was never committed (last %d)", version, len(w.extrasAt)-1)
	}
	k := [2]uint64{version, uint64(o.src+1)<<16 | uint64(o.dst+1)}
	if !memo[k].done {
		r := *o
		var edges [][2]int
		edges = append(append(edges, w.baseAdj...), w.extrasAt[version]...)
		answerRead(&r, w.n, edges)
		memo[k] = answer{done: true, ok: r.want, set: r.wantSet}
	}
	return memo[k].ok, memo[k].set, nil
}
