package hypo

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"hypodatalog/internal/metrics"
)

// incSrc exercises every maintenance regime at once: linear-recursive
// reach (semi-naive addition + DRed retraction, with cycles once edges
// loop), negation over a cone predicate (memo pruning / cache drop), and
// a hypothetical premise (always ineligible for in-place Δ maintenance).
// sink shares no predicate with reach and unreached, so the cascade's Δ
// part has two components, each maintained by its own prover.
const incSrc = `
node(a). node(b). node(c). node(d).
edge(a, b). edge(b, c).
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
unreached(X) :- node(X), ~reach(a, X).
could(X) :- reach(a, X)[add: edge(c, d)].
sink(X) :- node(X), ~edge(X, Y).
`

// probeAll renders a canonical answer sheet for the fixed probe set.
func probeAll(t *testing.T, e *Engine) string {
	t.Helper()
	var sb strings.Builder
	for _, q := range []string{"reach(X, Y)", "unreached(X)", "could(X)", "sink(X)"} {
		bs, err := e.Query(q)
		if err != nil {
			t.Fatalf("Query(%s): %v", q, err)
		}
		rows := make([]string, 0, len(bs))
		for _, b := range bs {
			keys := make([]string, 0, len(b))
			for k := range b {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			var row []string
			for _, k := range keys {
				row = append(row, k+"="+b[k])
			}
			rows = append(rows, strings.Join(row, ","))
		}
		sort.Strings(rows)
		fmt.Fprintf(&sb, "%s: %s\n", q, strings.Join(rows, " "))
	}
	for _, q := range []string{"reach(a, d)", "reach(d, a)", "reach(b, c)", "unreached(d)", "sink(c)"} {
		ok, err := e.Ask(q)
		if err != nil {
			t.Fatalf("Ask(%s): %v", q, err)
		}
		fmt.Fprintf(&sb, "%s: %v\n", q, ok)
	}
	for _, adds := range [][]string{{"edge(c, d)"}, {"edge(d, a)", "edge(c, d)"}} {
		for _, q := range []string{"reach(a, d)", "sink(c)"} {
			ok, err := e.AskUnder(q, adds...)
			if err != nil {
				t.Fatalf("AskUnder(%s, %v): %v", q, adds, err)
			}
			fmt.Fprintf(&sb, "%s+%v: %v\n", q, adds, ok)
		}
	}
	return sb.String()
}

// TestEngineApplyDeltaMatchesRebuild drives both engine modes through a
// mutation sequence covering additions, DRed retractions (including with
// a cycle in play), mixed batches and no-op batches, comparing every
// incremental engine against a cold engine built from the final facts at
// each step. The cold engines pin the original domain, matching the
// incremental engines' fixed dom(R, DB).
func TestEngineApplyDeltaMatchesRebuild(t *testing.T) {
	p := mustParse(t, incSrc)
	dom, _ := domainInfo(p, Options{})

	incUni, err := New(p, Options{Mode: ModeUniform})
	if err != nil {
		t.Fatal(err)
	}
	incCas, err := New(p, Options{Mode: ModeCascade})
	if err != nil {
		t.Fatalf("cascade mode (is incSrc linearly stratifiable?): %v", err)
	}

	// Surface facts tracked alongside, to build the cold reference.
	facts := map[string]bool{}
	for _, f := range p.src.Facts {
		facts[f.String()] = true
	}

	steps := []struct {
		asserts, retracts []string
	}{
		{[]string{"edge(c, d)"}, nil},                    // growth
		{nil, []string{"edge(a, b)"}},                    // DRed collapse from the root
		{[]string{"edge(a, b)", "edge(d, a)"}, nil},      // re-add + close a cycle
		{nil, []string{"edge(b, c)"}},                    // retraction with the cycle live
		{[]string{"edge(b, c)"}, []string{"edge(c, d)"}}, // mixed batch
		{[]string{"edge(a, b)"}, []string{"edge(d, c)"}}, // pure no-ops
		{nil, []string{"edge(d, a)"}},                    // break the cycle
	}
	for si, st := range steps {
		for _, e := range []*Engine{incUni, incCas} {
			if err := e.ApplyDelta(st.asserts, st.retracts); err != nil {
				t.Fatalf("step %d ApplyDelta: %v", si, err)
			}
		}
		for _, s := range st.asserts {
			facts[s] = true
		}
		for _, s := range st.retracts {
			delete(facts, s)
		}
		var fs []string
		for f := range facts {
			fs = append(fs, f)
		}
		sort.Strings(fs)
		ms, err := ParseMutations(fs, nil)
		if err != nil {
			t.Fatal(err)
		}
		var atoms = p.src.Facts[:0:0]
		for _, m := range ms {
			atoms = append(atoms, m.Atom)
		}
		coldProg, err := p.withFacts(atoms, dom)
		if err != nil {
			t.Fatalf("step %d withFacts: %v", si, err)
		}
		cold, err := New(coldProg, Options{Mode: ModeUniform})
		if err != nil {
			t.Fatal(err)
		}
		want := probeAll(t, cold)
		if got := probeAll(t, incUni); got != want {
			t.Errorf("step %d uniform drifted from cold rebuild:\ngot:\n%s\nwant:\n%s", si, got, want)
		}
		if got := probeAll(t, incCas); got != want {
			t.Errorf("step %d cascade drifted from cold rebuild:\ngot:\n%s\nwant:\n%s", si, got, want)
		}
	}
}

// TestEngineApplyDeltaParity is TestEngineApplyDeltaMatchesRebuild over
// Example 6, whose rule even :- not selectx(X) runs as a negated
// auxiliary predicate defined by selectx. A commit to item must prune
// that predicate's memo entries and cached models too, so the cone is
// cut from the rules the engines run, not from the rules as written.
func TestEngineApplyDeltaParity(t *testing.T) {
	p := mustParse(t, `
even :- selectx(X), odd[add: copied(X)].
odd :- selectx(X), even[add: copied(X)].
even :- not selectx(X).
selectx(X) :- item(X), not copied(X).
item(x1). item(x2). item(x3).
copied(x4).
`)
	dom, _ := domainInfo(p, Options{})
	probe := func(e *Engine) string {
		var sb strings.Builder
		for _, adds := range [][]string{nil, {"copied(x1)"}, {"copied(x2)", "copied(x3)"}, {"item(x4)"}} {
			for _, q := range []string{"even", "odd"} {
				ok, err := e.AskUnder(q, adds...)
				if err != nil {
					t.Fatalf("AskUnder(%s, %v): %v", q, adds, err)
				}
				fmt.Fprintf(&sb, "%s+%v: %v\n", q, adds, ok)
			}
		}
		return sb.String()
	}
	var inc []*Engine
	for _, mode := range []Mode{ModeUniform, ModeCascade} {
		e, err := New(p, Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		probe(e) // warm every memo and model the commits must prune
		inc = append(inc, e)
	}
	facts := map[string]bool{}
	for _, f := range p.src.Facts {
		facts[f.String()] = true
	}
	steps := []struct {
		asserts, retracts []string
	}{
		{[]string{"item(x4)"}, nil},                         // the copied item: nothing selectable changes
		{nil, []string{"copied(x4)"}},                       // x4 becomes selectable
		{nil, []string{"item(x1)", "item(x2)", "item(x3)"}}, // one item left
		{nil, []string{"item(x4)"}},                         // none: even by the negation alone
		{[]string{"item(x2)", "copied(x2)"}, nil},           // an item already copied
		{[]string{"item(x1)"}, []string{"copied(x2)"}},      // mixed batch
	}
	for si, st := range steps {
		for _, e := range inc {
			if err := e.ApplyDelta(st.asserts, st.retracts); err != nil {
				t.Fatalf("step %d ApplyDelta: %v", si, err)
			}
		}
		for _, s := range st.asserts {
			facts[s] = true
		}
		for _, s := range st.retracts {
			delete(facts, s)
		}
		var fs []string
		for f := range facts {
			fs = append(fs, f)
		}
		sort.Strings(fs)
		ms, err := ParseMutations(fs, nil)
		if err != nil {
			t.Fatal(err)
		}
		var atoms = p.src.Facts[:0:0]
		for _, m := range ms {
			atoms = append(atoms, m.Atom)
		}
		coldProg, err := p.withFacts(atoms, dom)
		if err != nil {
			t.Fatalf("step %d withFacts: %v", si, err)
		}
		cold, err := New(coldProg, Options{Mode: ModeUniform})
		if err != nil {
			t.Fatal(err)
		}
		want := probe(cold)
		for i, e := range inc {
			if got := probe(e); got != want {
				t.Errorf("step %d, mode %d drifted from cold rebuild:\ngot:\n%s\nwant:\n%s", si, i+1, got, want)
			}
		}
	}
}

func TestEngineApplyDeltaValidation(t *testing.T) {
	p := mustParse(t, incSrc)
	e, err := New(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyDelta([]string{"reach(a, b)"}, nil); err == nil {
		t.Error("asserting an intensional predicate was accepted")
	}
	if err := e.ApplyDelta([]string{"edge(a, zz)"}, nil); err == nil {
		t.Error("out-of-domain constant was accepted")
	}
	if err := e.ApplyDelta([]string{"edge(a, X)"}, nil); err == nil {
		t.Error("non-ground fact was accepted")
	}
	// A rejected batch must leave the base untouched.
	if ok, _ := e.Ask("edge(a, b)"); !ok {
		t.Error("base mutated by rejected batch")
	}
}

// TestLiveIncrementalCatchUp commits through the full Live path and
// checks that stale pooled engines catch up by applying the recorded
// deltas in place — no rebuild — including across several commits banked
// while an engine sat idle.
func TestLiveIncrementalCatchUp(t *testing.T) {
	l := openLive(t, Options{PoolSize: 1})
	pl := l.Pool()
	// Warm the single engine at version 0.
	if ok, err := ask(context.Background(), pl, "reach(a, b)"); err != nil || !ok {
		t.Fatalf("warmup: %v, %v", ok, err)
	}
	rebuilds := metrics.Default.LiveRebuilds.Value()
	applies := metrics.Default.LiveIncrementalApplies.Value()

	if _, err := l.Apply(mutations(t, []string{"edge(b, c)"}, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Apply(mutations(t, []string{"edge(c, a)"}, nil)); err != nil {
		t.Fatal(err)
	}
	// The idle engine is two versions stale: one lease must chain both
	// deltas.
	if ok, err := ask(context.Background(), pl, "reach(b, a)"); err != nil || !ok {
		t.Fatalf("reach(b, a) after commits = %v, %v", ok, err)
	}
	if _, err := l.Apply(mutations(t, nil, []string{"edge(a, b)"})); err != nil {
		t.Fatal(err)
	}
	// With edge(a, b) retracted, a no longer reaches b (the only remaining
	// edges are b->c and c->a), but b still reaches a — the DRed path must
	// delete exactly the reach facts that lost support.
	if ok, err := ask(context.Background(), pl, "reach(b, a)"); err != nil || !ok {
		t.Fatalf("reach(b, a) after retraction = %v, %v", ok, err)
	}
	if ok, _ := ask(context.Background(), pl, "reach(a, b)"); ok {
		t.Fatal("reach(a, b) survived retracting edge(a, b)")
	}

	if got := metrics.Default.LiveRebuilds.Value() - rebuilds; got != 0 {
		t.Errorf("commit path rebuilt %d engines; want 0 (incremental)", got)
	}
	if got := metrics.Default.LiveIncrementalApplies.Value() - applies; got < 2 {
		t.Errorf("incremental applies = %d, want >= 2", got)
	}
}

// TestCommitSubstrateSingleflight pins the thundering-herd fix: after a
// version swap with no usable delta history, K concurrent leases must
// share exactly ONE substrate build (fact interning) instead of K.
func TestCommitSubstrateSingleflight(t *testing.T) {
	const k = 8
	p := mustParse(t, incSrc)
	pl, err := NewPool(p, Options{PoolSize: k})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	// Plain setProgram records no history, so every stale/new lease takes
	// the rebuild path.
	p2, err := p.withFacts(p.src.Facts, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := metrics.Default.LiveSubstrateBuilds.Value()
	pl.setProgram(p2, 1)

	var ready, release sync.WaitGroup
	ready.Add(k)
	release.Add(1)
	errs := make(chan error, k)
	for i := 0; i < k; i++ {
		go func() {
			errs <- pl.Do(context.Background(), func(e *Engine) error {
				ready.Done()
				release.Wait() // hold all K engines concurrently
				if e.version != 1 {
					return fmt.Errorf("engine at version %d, want 1", e.version)
				}
				return nil
			})
		}()
	}
	ready.Wait()
	release.Done()
	for i := 0; i < k; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := metrics.Default.LiveSubstrateBuilds.Value() - before; got != 1 {
		t.Errorf("substrate builds after one swap with %d concurrent leases = %d, want 1", k, got)
	}
}

// TestCommitDropsDerivedChildren: a commit maintains only the empty
// state's Δ-models in place; every model cached under a hypothetical state
// — derived from its parent's or built from nothing — is dropped, counted
// in Stats.IncDropped, and derived again on the next read. Whether the
// commit is disjoint from a child's delta (an assert) or touches it (a
// retract of the atom the child deletes), every answer under those states
// must then equal a freshly built engine's at the new fact set.
func TestCommitDropsDerivedChildren(t *testing.T) {
	const src = `
node(a). node(b). node(c). node(d). node(e).
edge(a, b). edge(b, c).
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
cut(X) :- node(X), ~reach(a, X).
`
	p := mustParse(t, src)
	dom, _ := domainInfo(p, Options{})
	e, err := New(p, Options{Mode: ModeCascade})
	if err != nil {
		t.Fatal(err)
	}
	facts := map[string]bool{}
	for _, f := range p.src.Facts {
		facts[f.String()] = true
	}
	children := [][]string{{"edge(c, d)"}, {"edge(d, e)"}, {"edge(c, d)", "edge(d, e)"}, {"edge(e, a)"}}
	probe := func(e *Engine) string {
		var sb strings.Builder
		for _, adds := range children {
			for _, q := range []string{"reach(a, e)", "cut(d)", "cut(e)"} {
				ok, err := e.AskUnder(q, adds...)
				if err != nil {
					t.Fatalf("AskUnder(%s, %v): %v", q, adds, err)
				}
				fmt.Fprintf(&sb, "%s+%v: %v\n", q, adds, ok)
			}
		}
		for _, q := range []string{"reach(a, Y)[del: edge(a, b)]", "cut(X)[add: edge(c, d)]", "reach(X, Y)"} {
			bs, err := e.Query(q)
			if err != nil {
				t.Fatalf("Query(%s): %v", q, err)
			}
			var rows []string
			for _, b := range bs {
				rows = append(rows, fmt.Sprint(b))
			}
			sort.Strings(rows)
			fmt.Fprintf(&sb, "%s: %v\n", q, rows)
		}
		return sb.String()
	}
	cold := func() string {
		var fs []string
		for f := range facts {
			fs = append(fs, f)
		}
		sort.Strings(fs)
		ms, err := ParseMutations(fs, nil)
		if err != nil {
			t.Fatal(err)
		}
		var atoms = p.src.Facts[:0:0]
		for _, m := range ms {
			atoms = append(atoms, m.Atom)
		}
		prog, err := p.withFacts(atoms, dom)
		if err != nil {
			t.Fatal(err)
		}
		ce, err := New(prog, Options{Mode: ModeCascade})
		if err != nil {
			t.Fatal(err)
		}
		return probe(ce)
	}

	probe(e) // caches the empty state's models and every child's
	steps := []struct{ asserts, retracts []string }{
		{[]string{"edge(e, c)"}, nil}, // disjoint from every child's delta
		{nil, []string{"edge(a, b)"}}, // the atom one child deletes
	}
	for si, st := range steps {
		before := e.Stats()
		if err := e.ApplyDelta(st.asserts, st.retracts); err != nil {
			t.Fatalf("step %d ApplyDelta: %v", si, err)
		}
		work := e.Stats().Sub(before)
		// Every cached model was either maintained in place (an empty
		// state's) or dropped; the children are all among the dropped.
		cached := before.Materialisations - before.IncDropped
		if work.IncDropped+work.IncStates != cached || work.IncDropped < int64(len(children)) {
			t.Errorf("step %d: %d models cached, %d dropped, %d maintained; want every child (%d) dropped",
				si, cached, work.IncDropped, work.IncStates, len(children))
		}
		for _, s := range st.asserts {
			facts[s] = true
		}
		for _, s := range st.retracts {
			delete(facts, s)
		}
		want := cold()
		if got := probe(e); got != want {
			t.Errorf("step %d: answers under the dropped states drifted from a fresh engine:\ngot:\n%s\nwant:\n%s", si, got, want)
		}
		if d := e.Stats().DerivedModels - before.DerivedModels; d == 0 {
			t.Errorf("step %d: no child model was derived again after the commit", si)
		}
	}
}
