package main

import (
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hypodatalog/internal/workload"
)

func mustBuild(t *testing.T, name string, seed int64) *workloadSpec {
	t.Helper()
	w, err := buildWorkload(name, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func allOps(w *workloadSpec) []op {
	out := append(append([]op(nil), w.Pregen...), w.Warmup...)
	for _, l := range w.Lists {
		out = append(out, l...)
	}
	return out
}

// Same seed → byte-identical input (its hash is what a run prints);
// another seed → another input.
func TestSeedDeterminesInput(t *testing.T) {
	for _, name := range workloadNames {
		a, b, c := mustBuild(t, name, 7), mustBuild(t, name, 7), mustBuild(t, name, 8)
		if a.hash() != b.hash() {
			t.Errorf("%s: seed 7 generated two different inputs", name)
		}
		if a.hash() == c.hash() {
			t.Errorf("%s: seeds 7 and 8 generated the same input", name)
		}
		if len(a.Lists[0]) == 0 || len(a.Warmup) == 0 {
			t.Errorf("%s: empty lists", name)
		}
	}
	if _, err := buildWorkload("nope", 1, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

// Every op of the two what-if workloads walks hypothetical states no
// earlier op of the run has walked.
func TestNoRepeatedHypotheticals(t *testing.T) {
	for _, name := range []string{"hypo_search", "whatif_closure"} {
		w, err := buildWorkload(name, 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, o := range allOps(w) {
			k := addSetKey(o.Query, o.Add) // a query op carries its adds inside the premise text
			if seen[k] {
				t.Fatalf("%s: repeated (query, add-set) %q %v", name, o.Query, o.Add)
			}
			seen[k] = true
		}
	}
}

// Every churn_mixed write flips the membership of its edge, and the
// oracle's per-version edge sets follow.
func TestChurnWritesChangeTheStore(t *testing.T) {
	w, err := buildWorkload("churn_mixed", 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	present := map[string]bool{}
	version := 0
	for _, o := range allOps(w) {
		if o.Kind != opWrite {
			continue
		}
		if len(o.Assert)+len(o.Retract) != 1 {
			t.Fatalf("write with %d asserts, %d retracts", len(o.Assert), len(o.Retract))
		}
		for _, a := range o.Assert {
			if present[a] || strings.Contains(w.Program, a+".") {
				t.Fatalf("assert of a present fact %s", a)
			}
			present[a] = true
		}
		for _, a := range o.Retract {
			if !present[a] {
				t.Fatalf("retract of an absent fact %s", a)
			}
			delete(present, a)
		}
		version++
		if got := len(w.extrasAt[version]); got != len(present) {
			t.Fatalf("version %d: oracle holds %d toggled edges, store holds %d", version, got, len(present))
		}
	}
	if version != len(w.extrasAt)-1 || version < churnPregen+2 {
		t.Fatalf("%d writes, %d oracle versions", version, len(w.extrasAt)-1)
	}
}

// The oracle's graph searches agree with the repo's brute-force baselines
// where those apply.
func TestOracleSearches(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		g := workload.RandomDigraph(rng, 7, 0.3)
		adj := adjacency(g.N, g.Edges)
		for a := 0; a < g.N; a++ {
			rs := reachSet(adj, a)
			for b := 0; b < g.N; b++ {
				if a != b && rs[b] != workload.Reachable(g, a, b) {
					t.Fatalf("reach(%d, %d) over %v: oracle %v", a, b, g.Edges, rs[b])
				}
			}
			onCycle := false
			for _, s := range adj[a] {
				onCycle = onCycle || s == a || workload.Reachable(g, s, a)
			}
			if rs[a] != onCycle {
				t.Fatalf("reach(%d, %d) over %v: oracle %v", a, a, g.Edges, rs[a])
			}
		}
		// Redirect node 0's in-edges to a fresh sink: 0 then has no way in
		// and the sink no way out, so a Hamiltonian path of the new graph
		// runs 0 → … → sink, which is a circuit through 0 of the old one.
		sink := g.N
		gg := workload.Digraph{N: g.N + 1}
		for _, e := range g.Edges {
			if e[1] == 0 {
				e[1] = sink
			}
			gg.Edges = append(gg.Edges, e)
		}
		if got, want := hasHamiltonianCircuit(g, 0), workload.HasHamiltonianPath(gg); got != want {
			t.Fatalf("circuit through 0 over %v: oracle %v, path baseline %v", g.Edges, got, want)
		}
	}
	if !parityOfRemaining(24, 2) || parityOfRemaining(24, 1) {
		t.Error("parityOfRemaining")
	}
	if !coversPrefix([]int{1, 0, 9}, 2) || coversPrefix([]int{1, 9}, 2) || !coversPrefix(nil, 0) {
		t.Error("coversPrefix")
	}
}

// The sliced metrics are the median slice's: a burst that slows a fifth of
// the window moves none of them.
func TestSlicedMediansIgnoreABurst(t *testing.T) {
	ask := &op{Kind: opAsk}
	start := time.Now()
	var results []result
	var cpu []cpuSample
	at := start
	for i := 0; i < 900; i++ {
		rtt := time.Millisecond
		if i >= 300 && i < 480 { // the burst: ten times slower, ten times the CPU
			rtt = 10 * time.Millisecond
		}
		results = append(results, result{op: ask, sent: at, rtt: rtt})
		at = at.Add(rtt)
		cpu = append(cpu, cpuSample{at: at, user: 0.5 * at.Sub(start).Seconds()}) // the daemon keeps half a core busy
	}
	rate, cpuPerOp, askP50 := slicedMedians(results, cpu)
	if math.Abs(rate-1000) > 1 || math.Abs(askP50-1) > 1e-9 || math.Abs(cpuPerOp-0.0005) > 1e-6 {
		t.Errorf("rate %.2f/s (want 1000), ask p50 %.4f ms (want 1), cpu %.6f s/op (want 0.0005)", rate, askP50, cpuPerOp)
	}
}

// A one-second miniature of every workload against a real spawned hdld:
// no failed op, and every metric BENCHMARK.json names is printed with a
// finite value.
func TestMiniatureAgainstRealDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns hdld")
	}
	spec, err := loadBenchmarkJSON(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	scratch := t.TempDir()
	hdld, err := buildHdld("..", scratch)
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{hdld: hdld, scratch: scratch, outDir: filepath.Join(scratch, "out"),
		seed: 42, seconds: 1, trace: true, setupReps: 1, ladderOps: 120}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadNames))
	}
	for _, wl := range spec.Workloads {
		res, err := runWorkload(cfg, wl.Name)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if res.Failed > 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %v", wl.Name, res.Failed, res.Attempted, res.Failures)
		}
		for _, e := range spec.EndToEnd {
			m, ok := res.E2E[e.Name]
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 || m.Unit != e.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v)", wl.Name, e.Name, m, ok)
			}
		}
		for _, p := range spec.PerLayer {
			m, ok := res.Layer[p.Name]
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != p.Unit {
				t.Errorf("%s: per-layer metric %s = %+v (present %v)", wl.Name, p.Name, m, ok)
			}
		}
		for name := range res.Layer {
			found := false
			for _, p := range spec.PerLayer {
				found = found || p.Name == name
			}
			if !found {
				t.Errorf("%s: per-layer metric %s is measured but missing from BENCHMARK.json", wl.Name, name)
			}
		}
		for _, c := range res.Checks {
			if strings.Contains(c, "VIOLATED") && !(raceBuild && strings.Contains(c, "round trip")) {
				t.Errorf("%s: %s", wl.Name, c)
			}
		}
	}
}
