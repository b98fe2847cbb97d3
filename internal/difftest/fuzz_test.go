package difftest

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"hypodatalog/internal/workload"
)

// Small hand-written seeds in the spirit of the paper's Examples 1–3:
// hypothetical insertion through rules (Example 1), chained hypotheses
// (Example 2), and insertion interacting with negation (Example 3).
var handSeeds = []string{
	// Example 1: would Tony graduate if he took his201?
	`grad(S) :- take(S, his201), take(S, cs101).
take(tony, cs101).
pool(his201).
taken(S) :- take(S, C).
`,
	// Example 2: nested hypothetical premises accumulate.
	`a :- b[add: p]. b :- c[add: q]. c :- p, q.
`,
	// Example 3: hypothetical insertion under stratified negation.
	`ok :- good(X), not bad(X).
bad(X) :- flagged(X)[add: mark(X)].
flagged(X) :- mark(X), risky(X).
good(c0). good(c1). risky(c1).
pool(c0).
`,
	// Deletion: a premise can retract a hypothesis again.
	`win :- lose[del: token(t1)].
lose :- not token(t1).
token(t1).
pool(t1).
`,
	// Bound point queries over binary linear recursion, with a pool so
	// they are also asked under hypothetical contexts.
	`edge(a, b). edge(b, c). edge(c, a).
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
pool(a).
`,
	// Negation over the closure: unreach negates the recursive reach.
	`edge(a, b). edge(b, c). node(a). node(b). node(c).
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
unreach(X, Y) :- node(X), node(Y), not reach(X, Y).
pool(b).
`,
}

func seedCorpus(tb testing.TB) []string {
	out := append([]string{}, handSeeds...)

	// The paper's sized examples from the workload generators (Examples
	// 4–9), small enough for the reference interpreter.
	out = append(out,
		workload.ChainProgram(3),
		workload.OrderLoopProgram(3),
		workload.ParityProgram(3),
		workload.HamiltonianProgram(workload.Digraph{N: 3, Edges: [][2]int{{0, 1}, {1, 2}, {2, 0}}}),
		workload.KStrataProgram(3, 2),
	)

	// The checked-in example programs (university is Example 1 at full
	// size, tokengame and nationality are the section-7 programs). Some
	// exceed Check's domain bound and only exercise the skip path — still
	// useful mutation fodder.
	for _, name := range []string{"university", "parity", "hamiltonian", "example9", "tokengame", "nationality"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "examples", "programs", name+".hdl"))
		if err != nil {
			tb.Logf("seed corpus: %v (skipping)", err)
			continue
		}
		out = append(out, string(data))
	}

	// Random stratified programs, with and without deletions, and with a
	// second pool only some predicates read.
	for seed := 0; seed < 6; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		out = append(out, workload.RandomStratifiedProgram(rng, workload.DefaultFuzz()))
	}
	sideOpts := workload.DefaultFuzz()
	sideOpts.SidePool = true
	for seed := 200; seed < 206; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		out = append(out, workload.RandomStratifiedProgram(rng, sideOpts))
	}
	delOpts := workload.DefaultFuzz()
	delOpts.DelProb = 0.4
	for seed := 100; seed < 103; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		out = append(out, workload.RandomStratifiedProgram(rng, delOpts))
	}
	return out
}

// FuzzEngineAgreement mutates program source and asserts that ModeUniform,
// ModeCascade (when linearly stratifiable) and the reference interpreter
// agree on Ask, Query and AskUnder for everything that parses. CI runs it
// for a bounded wall-clock slice (see .github/workflows/ci.yml).
func FuzzEngineAgreement(f *testing.F) {
	for _, src := range seedCorpus(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if err := Check(src); err != nil && !errors.Is(err, ErrSkip) {
			t.Fatal(err)
		}
	})
}

// TestSeedAgreement runs every corpus seed through Check directly, so the
// curated programs are verified on every plain `go test` run, not only
// under `go test -fuzz`.
func TestSeedAgreement(t *testing.T) {
	for i, src := range seedCorpus(t) {
		if err := Check(src); err != nil && !errors.Is(err, ErrSkip) {
			t.Errorf("seed %d: %v", i, err)
		}
	}
}

// TestRandomAgreement is the deterministic slice of the fuzzer: many
// generator seeds, every one expected to be fully checkable (the
// generator's bounds sit inside Check's skip limits).
func TestRandomAgreement(t *testing.T) {
	iters := 60
	if testing.Short() {
		iters = 12
	}
	opts := workload.DefaultFuzz()
	delOpts := workload.DefaultFuzz()
	delOpts.DelProb = 0.35
	sideOpts := workload.DefaultFuzz()
	sideOpts.SidePool = true
	skipped := 0
	for seed := 0; seed < iters; seed++ {
		rng := rand.New(rand.NewSource(int64(seed + 7000)))
		o := opts
		switch seed % 3 {
		case 0:
			o = delOpts
		case 1:
			o = sideOpts
		}
		src := workload.RandomStratifiedProgram(rng, o)
		err := Check(src)
		if errors.Is(err, ErrSkip) {
			skipped++
			continue
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if skipped > iters/2 {
		t.Errorf("%d/%d random programs skipped; generator drifted outside Check's bounds", skipped, iters)
	}
}
