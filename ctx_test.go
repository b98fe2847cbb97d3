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
			_, err := e.AskCtx(ctx, "yes")
			elapsed := time.Since(start)
			if !errors.Is(err, ErrDeadline) {
				t.Fatalf("AskCtx = %v, want ErrDeadline", err)
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
	if _, err := e.AskCtx(ctx, "yes"); !errors.Is(err, ErrCanceled) {
		t.Fatalf("AskCtx = %v, want ErrCanceled", err)
	}

	// Pre-canceled contexts abort before any expansion.
	pre, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := e.AskCtx(pre, "yes"); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled AskCtx = %v, want ErrCanceled", err)
	}

	// The abort must not wedge the engine.
	got, err := e.Ask("node(v0)")
	if err != nil || !got {
		t.Fatalf("Ask after abort = %v, %v; want true, nil", got, err)
	}
}

// TestQueryCtxDeadline drives the deadline through the solution
// enumerator (QueryCtx) rather than a single ground ask.
func TestQueryCtxDeadline(t *testing.T) {
	src := workload.HamiltonianProgram(hardHamiltonian(t))
	e := mustEngine(t, src, Options{Mode: ModeUniform})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := e.QueryCtx(ctx, "yes"); !errors.Is(err, ErrDeadline) {
		t.Fatalf("QueryCtx = %v, want ErrDeadline", err)
	}
}

// TestAskUnderCtx checks the context path through AskUnder and that the
// hypothetical extension still works under the *Ctx spelling.
func TestAskUnderCtx(t *testing.T) {
	e := mustEngine(t, uniSrc, Options{})
	ok, err := e.AskUnderCtx(context.Background(), "grad(mary)", "take(mary, eng201)")
	if err != nil || !ok {
		t.Fatalf("AskUnderCtx = %v, %v; want true, nil", ok, err)
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
		"Engine.Ask":            func(q string) error { _, err := e.Ask(q); return err },
		"Engine.Query":          func(q string) error { _, err := e.Query(q); return err },
		"Engine.QueryEach":      func(q string) error { return e.QueryEach(q, nop) },
		"Pool.Ask":              func(q string) error { _, err := pl.Ask(q); return err },
		"Pool.Query":            func(q string) error { _, err := pl.Query(q); return err },
		"Pool.QueryInfoCtx":     func(q string) error { _, _, err := pl.QueryInfoCtx(ctx, q); return err },
		"Pool.QueryEachCtx":     func(q string) error { return pl.QueryEachCtx(ctx, q, nop) },
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
