package main

// The four workloads: for each, a rulebase, the hdld flags it is served
// with, a seeded warm-up list and a seeded, fixed op list per client. The
// lists are the benchmark's input — the program under test sees nothing
// else — and every expected answer comes from oracle.go, which shares no
// code with the engines.

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"hypodatalog/internal/workload"
)

type opKind uint8

const (
	opAsk      opKind = iota // POST /v1/ask
	opAskUnder               // POST /v1/askunder
	opQuery                  // POST /v1/query
	opWrite                  // POST /v1/facts
)

func (k opKind) String() string {
	return [...]string{"ask", "askunder", "query", "write"}[k]
}

// op is one HTTP request of a list, with what the oracle needs to judge
// the reply. Reads carry a closed-form expectation (want/wantSet) on the
// fixed-version workloads; on churn_mixed the expectation depends on the
// data version the reply echoes and is computed by workloadSpec.expect.
type op struct {
	Kind    opKind
	Query   string
	Add     []string // askunder: hypothetical adds
	Assert  []string // write
	Retract []string // write
	// AfterWrite marks W's read-your-write probe: it carries
	// X-Hdl-Min-Version = the version its preceding commit was acked at.
	AfterWrite bool

	want    bool     // ask, askunder
	wantSet []string // query: sorted values of the one free variable
	src     int      // hot-set reads: reach(src, dst); -1 marks the free variable
	dst     int
}

// workloadSpec is everything one run needs.
type workloadSpec struct {
	Name    string
	Program string // rules + facts served by hdld
	// CacheBytes is hdld's -cache-bytes (0 = no answer cache, the default).
	CacheBytes int64
	Live       bool // boot from a pre-generated snapshot + WAL tail
	Warmup     []op // replayed by one client before the window; part of setup_s
	// Lists holds the timed ops. One list: every client pulls the next
	// op from it (order between clients is free, the multiset is fixed).
	// Two lists (churn_mixed): client W replays Lists[0] once, in order;
	// client R cycles through Lists[1] until W is done.
	Lists   [][]op
	Clients int

	// churn_mixed only: the pre-generated commits (applied in-process
	// before the daemon boots, leaving a snapshot + WAL tail), and the
	// edge sets the oracle keys by data version.
	Pregen   []op
	n        int        // nodes
	baseAdj  [][2]int   // spine + seed extras, the version-0 edge set
	extrasAt [][][2]int // extrasAt[v] = toggled non-spine edges present at data version v
}

// hash identifies the generated input: same seed → same hash.
func (w *workloadSpec) hash() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n%d\n", w.Name, w.Program, w.CacheBytes)
	put := func(tag string, ops []op) {
		for _, o := range ops {
			fmt.Fprintf(h, "%s|%d|%s|%q|%q|%q|%t\n", tag, o.Kind, o.Query, o.Add, o.Assert, o.Retract, o.AfterWrite)
		}
	}
	put("pregen", w.Pregen)
	put("warm", w.Warmup)
	for i, l := range w.Lists {
		put(fmt.Sprintf("list%d", i), l)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// opsPerSecond sizes each op list from --seconds: the list is
// seconds × this rate long, so the run length is fixed by the list (both
// sides of a comparison execute the same operations) and the timed window
// is ≈ --seconds on the 2-core calibration host. See README, Calibration.
var opsPerSecond = map[string]float64{
	"hypo_search":    800,
	"whatif_closure": 235,
	"cached_reads":   6700,
	"churn_mixed":    570, // W's ops; R reads alongside for as long as W takes
}

var workloadNames = []string{"hypo_search", "whatif_closure", "cached_reads", "churn_mixed"}

func buildWorkload(name string, seed int64, seconds float64) (*workloadSpec, error) {
	n := int(opsPerSecond[name] * seconds)
	if n < 8 {
		n = 8
	}
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "hypo_search":
		return genHypoSearch(rng, n), nil
	case "whatif_closure":
		return genWhatifClosure(rng, n), nil
	case "cached_reads":
		return genCachedReads(rng, n), nil
	case "churn_mixed":
		return genChurnMixed(rng, n), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func edgeAtom(e [2]int) string { return fmt.Sprintf("edge(v%d, v%d)", e[0], e[1]) }

// addSetKey canonicalises (query, add-set) for the no-repeat guarantee.
func addSetKey(q string, adds []string) string {
	s := append([]string(nil), adds...)
	sort.Strings(s)
	return q + "\x1f" + strings.Join(s, "\x1f")
}

// ---------------------------------------------------------------- hypo_search

const (
	chainDepth  = 256
	orderLen    = 128
	parityItems = 24
	hamNodes    = 10
)

// hypoSearchProgram is Examples 4–8 of the paper side by side in one
// rulebase, predicates renamed apart (c* chain, o* order loop) so the
// four searches share nothing but the engine.
func hypoSearchProgram(g workload.Digraph, start int) string {
	var b strings.Builder
	// Example 4: chain of hypothetical implications.
	for i := 1; i <= chainDepth; i++ {
		fmt.Fprintf(&b, "ca%d :- ca%d[add: cb%d].\n", i, i+1, i)
	}
	fmt.Fprintf(&b, "ca%d :- cd1.\n", chainDepth+1)
	for i := 1; i < chainDepth; i++ {
		fmt.Fprintf(&b, "cd%d :- cb%d, cd%d.\n", i, i, i+1)
	}
	fmt.Fprintf(&b, "cd%d :- cb%d.\n", chainDepth, chainDepth)
	// Example 5: loop over a stored linear order.
	b.WriteString("oa :- first(X), oap(X)[add: marker(X)].\n")
	b.WriteString("oap(X) :- next(X, Y), oap(Y)[add: marker(Y)].\n")
	b.WriteString("oap(X) :- last(X), od1.\n")
	for i := 1; i < orderLen; i++ {
		fmt.Fprintf(&b, "od%d :- marker(e%d), od%d.\n", i, i, i+1)
	}
	fmt.Fprintf(&b, "od%d :- marker(e%d).\n", orderLen, orderLen)
	b.WriteString("first(e1).\n")
	for i := 1; i < orderLen; i++ {
		fmt.Fprintf(&b, "next(e%d, e%d).\n", i, i+1)
	}
	fmt.Fprintf(&b, "last(e%d).\n", orderLen)
	// Example 6: parity by hypothetical copying.
	b.WriteString("even :- selectx(X), odd[add: copied(X)].\n")
	b.WriteString("odd :- selectx(X), even[add: copied(X)].\n")
	b.WriteString("even :- not selectx(X).\n")
	b.WriteString("selectx(X) :- item(X), not copied(X).\n")
	for i := 0; i < parityItems; i++ {
		fmt.Fprintf(&b, "item(x%d).\n", i)
	}
	// Examples 7 and 8: Hamiltonian path, its complement, and the
	// circuit variant anchored at start/1.
	b.WriteString("yes :- node(X), path(X)[add: pnode(X)].\n")
	b.WriteString("path(X) :- selecty(Y), edge(X, Y), path(Y)[add: pnode(Y)].\n")
	b.WriteString("path(X) :- not selecty(Y).\n")
	b.WriteString("selecty(Y) :- node(Y), not pnode(Y).\n")
	b.WriteString("no :- not yes.\n")
	b.WriteString("cyes :- start(X), cpath(X)[add: pnode(X)].\n")
	b.WriteString("cpath(X) :- selecty(Y), edge(X, Y), cpath(Y)[add: pnode(Y)].\n")
	b.WriteString("cpath(X) :- not selecty(Y), edge(X, S), start(S).\n")
	b.WriteString("cno :- not cyes.\n")
	fmt.Fprintf(&b, "start(v%d).\n", start)
	for i := 0; i < g.N; i++ {
		fmt.Fprintf(&b, "node(v%d).\n", i)
	}
	for _, e := range g.Edges {
		fmt.Fprintf(&b, "%s.\n", edgeAtom(e))
	}
	return b.String()
}

// shapeSeed fixes every generated graph. The driver compares runs across
// seeds, so a seed may decide which questions are asked and in what
// order, but not how hard the instance is: relabelling the nodes of the
// Hamiltonian graph alone moved ops_per_s by a third (the engine
// enumerates nodes in name order, so the search order changes).
const shapeSeed = 1989

// hamGraph is a planted Hamiltonian circuit with two links cut out plus a
// few chords: whether a path or circuit exists then depends on which
// edges an op adds hypothetically. It returns the graph and the cut links.
func hamGraph() (workload.Digraph, [][2]int) {
	shape := rand.New(rand.NewSource(shapeSeed))
	have := map[[2]int]bool{}
	var edges, cut [][2]int
	for i := 0; i < hamNodes; i++ {
		e := [2]int{i, (i + 1) % hamNodes}
		have[e] = true
		if i == 2 || i == 7 {
			cut = append(cut, e)
			continue
		}
		edges = append(edges, e)
	}
	for i := 0; i < hamNodes; i++ {
		for j := 0; j < hamNodes; j++ {
			e := [2]int{i, j}
			if i != j && !have[e] && shape.Float64() < 0.08 {
				edges = append(edges, e)
				have[e] = true
			}
		}
	}
	return workload.Digraph{N: hamNodes, Edges: edges}, cut
}

// hypoSearchPeriod is the op mix, by position: one Hamiltonian and one
// parity question per period, the rest alternating chain and order-loop.
// The two through-negation examples materialise a Δ-part per hypothetical
// state and bottomup.Prover caches at most 65,536 of them per engine;
// past that it recomputes every state and these ops get ~100× slower
// (README, Findings). The period keeps a whole run under that.
const hypoSearchPeriod = 32

func genHypoSearch(rng *rand.Rand, n int) *workloadSpec {
	g, cut := hamGraph()
	const start = 0 // the circuit's anchor
	w := &workloadSpec{
		Name:    "hypo_search",
		Program: hypoSearchProgram(g, start),
		Clients: 1,
	}
	present := map[[2]int]bool{}
	for _, e := range g.Edges {
		present[e] = true
	}
	seen := map[string]bool{}
	draw := func(i int) op {
		for {
			o := op{Kind: opAskUnder}
			k := 1 + rng.Intn(3) // hypothetical adds per op
			slot := i % hypoSearchPeriod
			switch {
			case slot == 0: // Hamiltonian path / circuit under hypothetical edges
				gg := g
				gg.Edges = append([][2]int(nil), g.Edges...)
				useCut := rng.Intn(2) == 0
				for len(o.Add) < k {
					var e [2]int
					if useCut && len(o.Add) < len(cut) {
						e = cut[len(o.Add)]
					} else {
						e = [2]int{rng.Intn(hamNodes), rng.Intn(hamNodes)}
					}
					if e[0] == e[1] || present[e] || slices.Contains(gg.Edges[len(g.Edges):], e) {
						continue
					}
					gg.Edges = append(gg.Edges, e)
					o.Add = append(o.Add, edgeAtom(e))
				}
				o.Query = [...]string{"yes", "no", "cyes", "cno"}[i/hypoSearchPeriod%4]
				switch o.Query {
				case "yes":
					o.want = workload.HasHamiltonianPath(gg)
				case "no":
					o.want = !workload.HasHamiltonianPath(gg)
				case "cyes":
					o.want = hasHamiltonianCircuit(gg, start)
				case "cno":
					o.want = !hasHamiltonianCircuit(gg, start)
				}
			case slot == hypoSearchPeriod/2: // parity of the items not yet
				// copied. Only the parity that holds is asked: refuting the
				// other one enumerates all 2^24 copy orders.
				copied := 0
				for len(o.Add) < k {
					a := fmt.Sprintf("copied(x%d)", rng.Intn(parityItems))
					if rng.Intn(2) == 0 { // an atom parity never consults: a new state, same answer
						a = fmt.Sprintf("cb%d", 1+rng.Intn(chainDepth))
					}
					if slices.Contains(o.Add, a) {
						continue
					}
					o.Add = append(o.Add, a)
					if strings.HasPrefix(a, "copied") {
						copied++
					}
				}
				o.Query = "odd"
				if parityOfRemaining(parityItems, copied) {
					o.Query = "even"
				}
				o.want = true
			case slot%2 == 1: // chain: ca_j holds iff cb_1..cb_{j-1} are all supplied
				j := 1 + rng.Intn(3)
				o.Query = fmt.Sprintf("ca%d", j)
				idx := distinctInts(rng, k, chainDepth, (j-1)*rng.Intn(2)) // half the time with the prefix that makes it hold
				for _, i := range idx {
					o.Add = append(o.Add, fmt.Sprintf("cb%d", i+1))
				}
				o.want = coversPrefix(idx, j-1)
			default: // order loop: oap(e_j) holds iff marker(e_1..e_j) are supplied
				j := 1 + rng.Intn(2)
				o.Query = fmt.Sprintf("oap(e%d)", j)
				idx := distinctInts(rng, k, orderLen, j*rng.Intn(2))
				for _, i := range idx {
					o.Add = append(o.Add, fmt.Sprintf("marker(e%d)", i+1))
				}
				o.want = coversPrefix(idx, j)
			}
			key := addSetKey(o.Query, o.Add)
			if !seen[key] {
				seen[key] = true
				return o
			}
		}
	}
	for i := 0; i < 2*hypoSearchPeriod; i++ {
		w.Warmup = append(w.Warmup, draw(i))
	}
	list := make([]op, n)
	for i := range list {
		list[i] = draw(i)
	}
	w.Lists = [][]op{list}
	return w
}

// distinctInts draws k distinct values from [0, max), the first of them
// 0..prefix-1 (as many as fit).
func distinctInts(rng *rand.Rand, k, max, prefix int) []int {
	var out []int
	for i := 0; i < prefix && i < k; i++ {
		out = append(out, i)
	}
	for len(out) < k {
		if v := rng.Intn(max); !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}

// ------------------------------------------------------------- reachability

const reachRules = "reach(X, Y) :- edge(X, Y).\nreach(X, Y) :- edge(X, Z), reach(Z, Y).\n"

func reachProgram(n int, edges [][2]int, extraRules string) string {
	var b strings.Builder
	b.WriteString(reachRules)
	b.WriteString(extraRules)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "node(v%d).\n", i)
	}
	for _, e := range edges {
		fmt.Fprintf(&b, "%s.\n", edgeAtom(e))
	}
	return b.String()
}

const cacheBudget = 64 << 20

const closureNodes = 32

func genWhatifClosure(rng *rand.Rand, n int) *workloadSpec {
	// Near the connectivity threshold, so one hypothetical edge moves
	// reach sets by a lot or not at all.
	g := workload.RandomDigraph(rand.New(rand.NewSource(shapeSeed)), closureNodes, 0.06)
	const hub = 0
	w := &workloadSpec{
		Name:       "whatif_closure",
		Program:    reachProgram(g.N, g.Edges, fmt.Sprintf("cut(X) :- node(X), not reach(v%d, X).\n", hub)),
		CacheBytes: cacheBudget,
		Clients:    1,
	}
	present := map[[2]int]bool{}
	for _, e := range g.Edges {
		present[e] = true
	}
	seen := map[string]bool{}
	draw := func(i int) op {
		for {
			var adds [][2]int
			for k := 1 + rng.Intn(2); len(adds) < k; {
				e := [2]int{rng.Intn(g.N), rng.Intn(g.N)}
				if e[0] != e[1] && !present[e] && !slices.Contains(adds, e) {
					adds = append(adds, e)
				}
			}
			adj := adjacency(g.N, g.Edges, adds)
			a, b := rng.Intn(g.N), rng.Intn(g.N)
			var o op
			switch i % 3 {
			case 0: // bound point ask
				o = op{Kind: opAskUnder, Query: fmt.Sprintf("reach(v%d, v%d)", a, b), want: reachSet(adj, a)[b]}
			case 1: // through negation
				o = op{Kind: opAskUnder, Query: fmt.Sprintf("cut(v%d)", a), want: !reachSet(adj, hub)[a]}
			case 2: // open enumeration; the adds ride in the premise
				o = op{Kind: opQuery, wantSet: nodeNames(reachSet(adj, a))}
				o.Query = fmt.Sprintf("reach(v%d, Y)", a)
			}
			var atoms []string
			for _, e := range adds {
				atoms = append(atoms, edgeAtom(e))
			}
			key := addSetKey(o.Query, atoms)
			if seen[key] {
				continue
			}
			seen[key] = true
			if o.Kind == opQuery {
				o.Query += "[add: " + strings.Join(atoms, ", ") + "]"
			} else {
				o.Add = atoms
			}
			return o
		}
	}
	for i := 0; i < 6; i++ {
		w.Warmup = append(w.Warmup, draw(i))
	}
	list := make([]op, n)
	for i := range list {
		list[i] = draw(i)
	}
	w.Lists = [][]op{list}
	return w
}

const (
	readNodes = 64  // cached_reads
	hotKeys   = 256 // distinct read strings of cached_reads
	zipfS     = 1.1
)

// spineGraph is v0 → v1 → … → v{n-1}, the graph
// workload.MixedReachability churns, and a fixed-shape set of distinct
// non-spine chords.
func spineGraph(n, chords int) (spine, extra [][2]int) {
	for i := 0; i+1 < n; i++ {
		spine = append(spine, [2]int{i, i + 1})
	}
	shape := rand.New(rand.NewSource(shapeSeed))
	for len(extra) < chords {
		e := [2]int{shape.Intn(n), shape.Intn(n)}
		if e[0] != e[1] && e[1] != e[0]+1 && !slices.Contains(extra, e) {
			extra = append(extra, e)
		}
	}
	return spine, extra
}

// hotSet is the k distinct read strings of a Zipf-ranked working set over
// n nodes: every third rank an enumeration — reach(vi, Y), or reach(X, vi)
// when that source is taken — the rest ground asks. Like the graphs it is
// a constant of the benchmark: on churn_mixed's spine an enumeration from
// v3 streams 28 bindings and one from v30 a single one, so a seed that
// chose which of them ranks third would choose the run's cost. The seed
// draws the order of the reads.
func hotSet(n, k int) []op {
	rng := rand.New(rand.NewSource(shapeSeed))
	var keys []op
	seen := map[string]bool{}
	for len(keys) < k {
		o := op{Kind: opAsk, src: rng.Intn(n), dst: rng.Intn(n)}
		o.Query = fmt.Sprintf("reach(v%d, v%d)", o.src, o.dst)
		if len(keys)%3 == 2 {
			fwd, rev := fmt.Sprintf("reach(v%d, Y)", o.src), fmt.Sprintf("reach(X, v%d)", o.dst)
			switch {
			case !seen[fwd]:
				o.Kind, o.Query, o.dst = opQuery, fwd, -1
			case !seen[rev]:
				o.Kind, o.Query, o.src = opQuery, rev, -1
			} // both taken: this rank stays an ask
		}
		if !seen[o.Query] {
			seen[o.Query] = true
			keys = append(keys, o)
		}
	}
	return keys
}

// answerRead fills a hot-set read's closed-form expectation over a fixed
// edge set.
func answerRead(o *op, n int, edges [][2]int) {
	switch {
	case o.src < 0: // who reaches dst: forward reachability on the reversed graph
		rev := make([][2]int, len(edges))
		for i, e := range edges {
			rev[i] = [2]int{e[1], e[0]}
		}
		o.wantSet = nodeNames(reachSet(adjacency(n, rev), o.dst))
	case o.dst < 0:
		o.wantSet = nodeNames(reachSet(adjacency(n, edges), o.src))
	default:
		o.want = reachSet(adjacency(n, edges), o.src)[o.dst]
	}
}

func genCachedReads(rng *rand.Rand, n int) *workloadSpec {
	spine, chords := spineGraph(readNodes, 6)
	edges := append(spine, chords...)
	w := &workloadSpec{
		Name:       "cached_reads",
		Program:    reachProgram(readNodes, edges, ""),
		CacheBytes: cacheBudget,
		Clients:    2,
	}
	keys := hotSet(readNodes, hotKeys)
	for i := range keys {
		answerRead(&keys[i], readNodes, edges)
	}
	w.Warmup = append(w.Warmup, keys...) // touch every key: the window is all hits
	z := rand.NewZipf(rng, zipfS, 1, hotKeys-1)
	list := make([]op, n)
	for i := range list {
		list[i] = keys[z.Uint64()]
	}
	w.Lists = [][]op{list}
	return w
}

// --------------------------------------------------------------- churn_mixed

const (
	churnNodes      = 32  // DRed retraction cost grows ~n³: 4 ms here, 40 ms at 64
	churnKeys       = 128 // distinct read strings of the hot set
	churnPregen     = 96  // commits before boot: 64 land in the snapshot, 32 in the WAL tail
	churnPregenSnap = 64
	churnPool       = 24   // candidate non-spine edges W toggles among
	churnReadCycle  = 4096 // R's list; it repeats until W is done
)

func genChurnMixed(rng *rand.Rand, n int) *workloadSpec {
	// W toggles edges drawn from a fixed pool, so the edge set fluctuates
	// around half the pool instead of densifying for as long as the run
	// lasts; the generator tracks presence, so every write changes the
	// store.
	edges, pool := spineGraph(churnNodes, churnPool)
	w := &workloadSpec{
		Name:       "churn_mixed",
		Program:    reachProgram(churnNodes, edges, ""),
		CacheBytes: cacheBudget,
		Live:       true,
		Clients:    2,
		n:          churnNodes,
		baseAdj:    edges,
	}
	present := map[[2]int]bool{}
	w.extrasAt = [][][2]int{nil} // version 0: the program's own facts
	toggle := func() op {
		e := pool[rng.Intn(len(pool))]
		o := op{Kind: opWrite}
		if present[e] {
			o.Retract = []string{edgeAtom(e)}
			delete(present, e)
		} else {
			o.Assert = []string{edgeAtom(e)}
			present[e] = true
		}
		var cur [][2]int
		for _, p := range pool {
			if present[p] {
				cur = append(cur, p)
			}
		}
		w.extrasAt = append(w.extrasAt, cur)
		return o
	}
	for i := 0; i < churnPregen; i++ {
		w.Pregen = append(w.Pregen, toggle())
	}
	keys := hotSet(churnNodes, churnKeys)
	z := rand.NewZipf(rng, zipfS, 1, churnKeys-1)
	w.Warmup = append(w.Warmup, keys...)
	for i := 0; i < 4; i++ { // warm the commit path and the catch-up path too
		w.Warmup = append(w.Warmup, toggle(), keys[z.Uint64()])
	}
	// W's list fixes the run: n/2 commits, each followed at once by a
	// read demanding its version. R has no quota — it reads the hot set
	// for as long as W is writing — so neither client idles while the
	// other finishes, whatever a later change does to their relative speed.
	wl := make([]op, 0, n)
	for len(wl)+1 < n {
		r := keys[z.Uint64()]
		r.AfterWrite = true
		wl = append(wl, toggle(), r)
	}
	rl := make([]op, churnReadCycle)
	for i := range rl {
		rl[i] = keys[z.Uint64()]
	}
	w.Lists = [][]op{wl, rl}
	return w
}
