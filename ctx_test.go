package hypo

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"hypodatalog/internal/topdown"
	"hypodatalog/internal/workload"
)

var hardHamiltonianCache *workload.Digraph

// hardHamiltonian builds a 12-node digraph with no Hamiltonian path but a
// huge search space: a complete 11-node core plus one isolated node (v11)
// that no path can ever reach. Proving "yes" false must exhaust the
// core's near-factorial path orderings. The no-path property holds by
// construction, so the check below is structural — running the
// brute-force HasHamiltonianPath here would itself take factorial time.
func hardHamiltonian(t *testing.T) workload.Digraph {
	t.Helper()
	if hardHamiltonianCache != nil {
		return *hardHamiltonianCache
	}
	g := workload.Digraph{N: 12}
	for i := 0; i < 11; i++ {
		for j := 0; j < 11; j++ {
			if i != j {
				g.Edges = append(g.Edges, [2]int{i, j})
			}
		}
	}
	for _, e := range g.Edges {
		if e[0] == 11 || e[1] == 11 {
			t.Fatal("construction broken: v11 must be isolated")
		}
	}
	hardHamiltonianCache = &g
	return g
}

// TestDeadlineHamiltonian is the acceptance test for context propagation:
// an intractable query under a 50ms deadline must return ErrDeadline well
// under 500ms, in both evaluation modes, with a non-zero work snapshot.
func TestDeadlineHamiltonian(t *testing.T) {
	src := workload.HamiltonianProgram(hardHamiltonian(t))
	for _, mode := range []Mode{ModeUniform, ModeCascade} {
		t.Run(fmt.Sprintf("mode=%d", mode), func(t *testing.T) {
			e := mustEngine(t, src, Options{Mode: mode})
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err := ask(ctx, e, "yes")
			elapsed := time.Since(start)
			if !errors.Is(err, ErrDeadline) {
				t.Fatalf("ask = %v, want ErrDeadline", err)
			}
			if elapsed >= 500*time.Millisecond {
				t.Errorf("abort took %v, want well under 500ms", elapsed)
			}
			var ae *AbortError
			if !errors.As(err, &ae) {
				t.Fatalf("error %v is not an *AbortError", err)
			}
			if ae.Stats == (topdown.Stats{}) {
				t.Error("AbortError carries a zero stats snapshot")
			}
		})
	}
}

// TestCancelPropagation covers plain cancellation (not a deadline) and
// checks the engine survives an abort: the same engine must still answer
// correctly afterwards.
func TestCancelPropagation(t *testing.T) {
	src := workload.HamiltonianProgram(hardHamiltonian(t))
	e := mustEngine(t, src, Options{Mode: ModeUniform})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if _, err := ask(ctx, e, "yes"); !errors.Is(err, ErrCanceled) {
		t.Fatalf("ask = %v, want ErrCanceled", err)
	}

	// Pre-canceled contexts abort before any expansion.
	pre, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := ask(pre, e, "yes"); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled ask = %v, want ErrCanceled", err)
	}

	// The abort must not wedge the engine.
	got, err := e.Ask("node(v0)")
	if err != nil || !got {
		t.Fatalf("Ask after abort = %v, %v; want true, nil", got, err)
	}
}

// TestQueryCtxDeadline drives the deadline through the solution
// enumerator (a ReadQuery) rather than a single ground ask.
func TestQueryCtxDeadline(t *testing.T) {
	src := workload.HamiltonianProgram(hardHamiltonian(t))
	e := mustEngine(t, src, Options{Mode: ModeUniform})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := query(ctx, e, "yes"); !errors.Is(err, ErrDeadline) {
		t.Fatalf("query = %v, want ErrDeadline", err)
	}
}

// TestAskUnderCtx checks the context path through a ReadAskUnder and
// that the hypothetical extension still works under a context.
func TestAskUnderCtx(t *testing.T) {
	e := mustEngine(t, uniSrc, Options{})
	ok, err := askUnder(context.Background(), e, "grad(mary)", "take(mary, eng201)")
	if err != nil || !ok {
		t.Fatalf("askUnder = %v, %v; want true, nil", ok, err)
	}
}

// TestBudgetAbortError checks that MaxGoals exhaustion surfaces through
// the public API as ErrBudget with the configured limit and exact count.
func TestBudgetAbortError(t *testing.T) {
	src := workload.HamiltonianProgram(hardHamiltonian(t))
	e := mustEngine(t, src, Options{Mode: ModeUniform, MaxGoals: 100})
	_, err := e.Ask("yes")
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("Ask = %v, want ErrBudget", err)
	}
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("error %v is not an *AbortError", err)
	}
	if ae.Limit != 100 {
		t.Errorf("AbortError.Limit = %d, want 100", ae.Limit)
	}
	if ae.Stats.Goals != 100 {
		t.Errorf("aborted after %d expansions, want exactly 100", ae.Stats.Goals)
	}
}

// TestBudgetEveryMode: the goal budget used to be read by the uniform
// engine only, and ModeAuto picks the cascade for every linearly
// stratified program, so by default it bounded nothing. It is also per
// query: a warm engine's earlier work never counts against a later ask.
func TestBudgetEveryMode(t *testing.T) {
	src := workload.ParityProgram(8)
	for _, mode := range []Mode{ModeAuto, ModeUniform, ModeCascade} {
		t.Run(fmt.Sprintf("mode=%d", mode), func(t *testing.T) {
			_, err := mustEngine(t, src, Options{Mode: mode, MaxGoals: 5}).Ask("even")
			var ae *AbortError
			if !errors.Is(err, ErrBudget) || !errors.As(err, &ae) {
				t.Fatalf("Ask under MaxGoals 5 = %v, want ErrBudget", err)
			}
			if ae.Limit != 5 || ae.Stats.Goals != 5 {
				t.Errorf("limit %d after %d goals, want exactly 5 of 5", ae.Limit, ae.Stats.Goals)
			}

			// Each pair of pre-copied items is a hypothetical state of its own,
			// so every ask below is fresh work on the same warm engine.
			e := mustEngine(t, src, Options{Mode: mode, MaxGoals: 100})
			for i := 0; i < 8; i += 2 {
				ok, err := e.AskUnder("even", fmt.Sprintf("copied(x%d)", i), fmt.Sprintf("copied(x%d)", i+1))
				if err != nil || !ok {
					t.Fatalf("ask %d on a warm engine = %v, %v; the budget is per query", i/2, ok, err)
				}
			}
			if g := e.Stats().Goals; g <= 100 {
				t.Fatalf("four asks spent %d goals in total: the loop above proves nothing", g)
			}
		})
	}
}

// TestAutoModeStaysPolynomial pins the property that justifies ModeAuto
// preferring the cascade: on Horn recursion the Δ part is a bottom-up
// fixpoint, polynomial whatever the rule shape, while the uniform engine
// memoises a failure only when it is clean (no in-progress ancestor
// consulted), so refuting reachability over a k-clique walks its k!
// simple paths and reach :- reach, reach re-derives every split of every
// path. The ModeUniform half documents that limitation — it flips the day
// topdown gets SCC completion, and until then a default flipped to
// uniform reintroduces the cliff with no other test noticing.
func TestAutoModeStaysPolynomial(t *testing.T) {
	asks := []struct {
		name, src, query string
		want             bool
	}{
		{"refute over a 12-clique", workload.ClosureProgram(workload.Clique(12), workload.RightLinear), "reach(n0, n12)", false},
		{"non-linear rule on a 32-chain", workload.ClosureProgram(workload.Chain(32), workload.NonLinear), "reach(n0, n32)", true},
	}
	for _, a := range asks {
		t.Run(a.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			got, err := ask(ctx, mustEngine(t, a.src, Options{MaxGoals: 100_000}), a.query)
			if err != nil || got != a.want {
				t.Errorf("default mode: %s = %v, %v; want %v without abort", a.query, got, err, a.want)
			}
			_, err = ask(ctx, mustEngine(t, a.src, Options{Mode: ModeUniform, MaxGoals: 100_000}), a.query)
			if !errors.Is(err, ErrBudget) {
				t.Errorf("ModeUniform: %s = %v, want ErrBudget (see the comment above if topdown learned SCC completion)", a.query, err)
			}
		})
	}
}

// TestCascadeClosureProbesStayQuadratic pins the exponent of the Δ-part
// join core where tier-1 sees it, not only in BENCH_core.json: the
// closure of an n-chain has n(n+1)/2 tuples, so a semi-naive, indexed
// fixpoint probes about 4× as many candidates per doubling of n. The
// naive, scanning fixpoint this replaced grew 16×. Being a count, the
// number must also repeat exactly between two cold engines.
func TestCascadeClosureProbesStayQuadratic(t *testing.T) {
	for name, rule := range map[string]string{"right": workload.RightLinear, "left": workload.LeftLinear} {
		t.Run(name, func(t *testing.T) {
			probes := func(n int) int64 {
				e := mustEngine(t, workload.ClosureProgram(workload.Chain(n), rule), Options{Mode: ModeCascade})
				if ok, err := e.Ask(fmt.Sprintf("reach(n0, n%d)", n)); err != nil || !ok {
					t.Fatalf("n=%d: reach(n0, n%d) = %v, %v", n, n, ok, err)
				}
				return e.Stats().JoinProbes
			}
			prev := probes(32)
			for _, n := range []int{64, 128} {
				got := probes(n)
				if again := probes(n); again != got {
					t.Errorf("n=%d: two cold runs probed %d and %d candidates", n, got, again)
				}
				if got == 0 || got >= 5*prev {
					t.Errorf("n=%d: %d join probes after %d at n=%d; want growth under 5× per doubling", n, got, prev, n/2)
				}
				prev = got
			}
		})
	}
}

// TestDomainCheckDoesNotIntern checks the compile-order fix: a rejected
// out-of-domain query constant must not leak into the shared symbol
// table — through Ask, AskUnder or the Query family, on Engine and Pool.
func TestDomainCheckDoesNotIntern(t *testing.T) {
	e := mustEngine(t, uniSrc, Options{})
	pl, err := NewPool(e.prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	ctx := context.Background()
	nop := func(Binding) error { return nil }
	for name, read := range map[string]func(q string) error{
		"Engine.Read":           func(q string) error { _, err := e.Read(ctx, Request{Kind: ReadQuery, Query: q}, nop); return err },
		"Engine.Ask":            func(q string) error { _, err := e.Ask(q); return err },
		"Engine.Query":          func(q string) error { _, err := e.Query(q); return err },
		"Engine.QueryEach":      func(q string) error { return e.QueryEach(q, nop) },
		"Pool.Read":             func(q string) error { _, err := pl.Read(ctx, Request{Kind: ReadQuery, Query: q}, nop); return err },
		"Pool.AskInfoCtx":       func(q string) error { _, _, err := pl.AskInfoCtx(ctx, q); return err },
		"Pool.QueryEachInfoCtx": func(q string) error { return pl.QueryEachInfoCtx(ctx, q, nil, nop) },
	} {
		for _, q := range []string{"grad(nosuchperson)", "not grad(nosuchperson)", "grad(tony)[add: take(tony, nosuchcourse)]"} {
			if err := read(q); err == nil {
				t.Errorf("%s(%q): out-of-domain constant accepted", name, q)
			}
		}
	}
	for _, c := range []string{"nosuchperson", "nosuchcourse"} {
		if _, ok := e.prog.syms.LookupConst(c); ok {
			t.Errorf("rejected query constant %q was interned into the symbol table", c)
		}
	}
	if _, err := e.AskUnder("grad(tony)", "take(ghost, his101)"); err == nil {
		t.Fatal("out-of-domain added atom accepted")
	}
	if _, ok := e.prog.syms.LookupConst("ghost"); ok {
		t.Error("rejected added-atom constant was interned into the symbol table")
	}
}
