package hypo

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/live"
	"hypodatalog/internal/metrics"
	"hypodatalog/internal/ref"
	"hypodatalog/internal/symbols"
	"hypodatalog/internal/workload"
)

// incSrc exercises every maintenance regime at once: linear-recursive
// reach (semi-naive addition, a retraction that drops the root model, with
// cycles once edges loop), negation over a cone predicate (memo pruning / cache drop), and
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

// coldEngine builds an engine from nothing over p's rules and the facts
// fs, ranging over dom: the reference an engine that took commits in
// place must answer like.
func coldEngine(t *testing.T, p *Program, dom *domain, mode Mode, fs []ast.Atom) *Engine {
	t.Helper()
	cfs, err := compileAtoms(fs, p.syms)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := loadSubstrate(p, cfs)
	if err != nil {
		t.Fatal(err)
	}
	e, err := assemble(p, Options{Mode: mode}, dom, sub)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// factSet parses a set of surface facts, in sorted order.
func factSet(t *testing.T, set map[string]bool) []ast.Atom {
	t.Helper()
	var fs []string
	for f := range set {
		fs = append(fs, f)
	}
	sort.Strings(fs)
	ms, err := ParseMutations(fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	atoms := make([]ast.Atom, len(ms))
	for i, m := range ms {
		atoms[i] = m.Atom
	}
	return atoms
}

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
// mutation sequence covering additions, retractions (including with
// a cycle in play), mixed batches and no-op batches, comparing every
// incremental engine against a cold engine built from the final facts at
// each step. The cold engines pin the original domain, matching the
// incremental engines' fixed dom(R, DB).
func TestEngineApplyDeltaMatchesRebuild(t *testing.T) {
	p := mustParse(t, incSrc)
	dom := newDomain(p, nil)

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
		{nil, []string{"edge(a, b)"}},                    // collapse from the root
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
		cold := coldEngine(t, p, dom, ModeUniform, factSet(t, facts))
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
	dom := newDomain(p, nil)
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
		cold := coldEngine(t, p, dom, ModeUniform, factSet(t, facts))
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
	// edges are b->c and c->a), but b still reaches a — the catch-up must
	// lose exactly the reach facts that lost support.
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
// reset, which leaves no history to catch up from, K concurrent leases
// make ONE base build (fact interning) and K clones of it — the idle
// engine's rebuild and K-1 new engines — instead of K builds.
func TestCommitSubstrateSingleflight(t *testing.T) {
	const k = 8
	p := mustParse(t, incSrc)
	mets := metrics.NewSet("singleflight")
	pl, err := NewPool(p, Options{PoolSize: k, Metrics: mets})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	builds := mets.LiveSubstrateBuilds.Value()
	clones := mets.LiveRebuilds.Value() + mets.PoolNews.Value()
	if err := pl.reset(p.comp.Facts, 1); err != nil {
		t.Fatal(err)
	}

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
	if got := mets.LiveSubstrateBuilds.Value() - builds; got != 1 {
		t.Errorf("base builds after one reset with %d concurrent leases = %d, want 1", k, got)
	}
	if got := mets.LiveRebuilds.Value() + mets.PoolNews.Value() - clones; got != k {
		t.Errorf("clones after one reset with %d concurrent leases = %d, want %d", k, got, k)
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
	dom := newDomain(p, nil)
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
		return probe(coldEngine(t, p, dom, ModeCascade, factSet(t, facts)))
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

// sheet renders e's answers to qs, each run as a Query, in a canonical
// order.
func sheet(e *Engine, qs []string) (string, error) {
	var sb strings.Builder
	for _, q := range qs {
		bs, err := e.Query(q)
		if err != nil {
			return "", fmt.Errorf("Query(%s): %w", q, err)
		}
		rows := make([]string, len(bs))
		for i, b := range bs {
			rows[i] = fmt.Sprint(b)
		}
		sort.Strings(rows)
		fmt.Fprintf(&sb, "%s: %v\n", q, rows)
	}
	return sb.String(), nil
}

// TestRebuildsAfterCommitsAnswerCold forces each way a live pool builds
// an engine from its base after commits — a batch over maxDeltaAtoms, a
// slot TrimMemory dropped and a later lease re-creates, a replica's
// InstallSnapshot — with concurrent leases, and checks every leased
// engine answers like a cold engine over the test's own model of the
// facts at its data version. One engine, leased before the first commit and read
// throughout, holds a clone of the base the commits then change in
// place, retractions included: it must keep answering at version 0.
func TestRebuildsAfterCommitsAnswerCold(t *testing.T) {
	for _, mode := range []Mode{ModeUniform, ModeCascade} {
		t.Run(fmt.Sprint("mode=", mode), func(t *testing.T) { rebuildsAfterCommits(t, mode) })
	}
}

func rebuildsAfterCommits(t *testing.T, mode Mode) {
	const n, k = 48, 3 // nodes; pool size
	node := func(i int) string { return fmt.Sprintf("n%d", i) }
	var src strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src, "node(%s).\n", node(i))
	}
	src.WriteString(`edge(n0, n1). edge(n1, n2). edge(n2, n0).
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
unreached(X) :- node(X), ~reach(n0, X).
`)
	qs := []string{"reach(n0, X)", "reach(X, n2)", "unreached(X)", "reach(n5, n0)", "reach(n5, n0)[add: edge(n47, n0)]"}
	p := mustParse(t, src.String())
	dir := t.TempDir()
	mets := metrics.NewSet("rebuilds")
	l, err := OpenLive(p, LiveConfig{WALPath: dir + "/wal.log", NoSync: true, Logger: quietLog},
		Options{Mode: mode, PoolSize: k, Metrics: mets})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	pl := l.Pool()

	// want[v] is a cold engine's sheet over model, the facts at v as the
	// test's own mutations make them.
	want := map[uint64]string{}
	model := map[string]bool{}
	for _, f := range p.src.Facts {
		model[f.String()] = true
	}
	recordCold := func() {
		t.Helper()
		s, err := sheet(coldEngine(t, p, pl.dom, mode, factSet(t, model)), qs)
		if err != nil {
			t.Fatal(err)
		}
		want[l.Version()] = s
	}
	type answer struct {
		version uint64
		sheet   string
	}
	var mu sync.Mutex
	var got []answer
	record := func(e *Engine) error {
		s, err := sheet(e, qs)
		if err == nil {
			mu.Lock()
			got = append(got, answer{e.DataVersion(), s})
			mu.Unlock()
		}
		return err
	}
	// burst holds k-1 leases at once, so each draws its own engine — every
	// one the held engine leaves — and each answers.
	burst := func() {
		t.Helper()
		var ready, release sync.WaitGroup
		ready.Add(k - 1)
		release.Add(1)
		errs := make(chan error, k-1)
		for i := 0; i < k-1; i++ {
			go func() {
				errs <- pl.Do(context.Background(), func(e *Engine) error {
					defer release.Wait()
					defer ready.Done()
					return record(e)
				})
			}()
		}
		ready.Wait()
		release.Done()
		for i := 0; i < k-1; i++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}
	apply := func(asserts, retracts []string) {
		t.Helper()
		if _, err := l.Apply(mutations(t, asserts, retracts)); err != nil {
			t.Fatal(err)
		}
		for _, f := range asserts {
			model[f] = true
		}
		for _, f := range retracts {
			delete(model, f)
		}
		recordCold()
	}
	delta := func(c *metrics.Counter) func() int64 {
		before := c.Value()
		return func() int64 { return c.Value() - before }
	}

	recordCold()
	held, stop := make(chan error, 1), make(chan struct{})
	leased := make(chan struct{})
	go func() {
		held <- pl.Do(context.Background(), func(e *Engine) error {
			close(leased)
			for {
				if err := record(e); err != nil {
					return err
				}
				select {
				case <-stop:
					return record(e)
				default:
				}
			}
		})
	}()
	<-leased
	burst() // k-1 more engines at version 0, all clones of the boot base

	// A small commit with a retraction: the other engines catch up.
	caught, rebuilt := delta(&mets.LiveIncrementalApplies), delta(&mets.LiveRebuilds)
	apply([]string{"edge(n2, n3)"}, []string{"edge(n1, n2)"})
	burst()
	if caught() != k-1 || rebuilt() != 0 {
		t.Errorf("small commit: %d catch-ups, %d rebuilds; want %d, 0", caught(), rebuilt(), k-1)
	}

	// A batch over maxDeltaAtoms: no history to catch up from.
	var big []string
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			big = append(big, fmt.Sprintf("edge(%s, %s)", node(i), node(j)))
		}
	}
	if len(big) <= maxDeltaAtoms {
		t.Fatalf("batch of %d atoms does not exceed maxDeltaAtoms", len(big))
	}
	rebuilt = delta(&mets.LiveRebuilds)
	apply(big, []string{"edge(n2, n0)"})
	burst()
	if rebuilt() != k-1 {
		t.Errorf("batch over maxDeltaAtoms: %d rebuilds, want %d", rebuilt(), k-1)
	}

	// Retractions out of the big closure: caught up in place again.
	var cut []string
	for j := 1; j < n; j++ {
		cut = append(cut, fmt.Sprintf("edge(n0, %s)", node(j)))
	}
	caught, rebuilt = delta(&mets.LiveIncrementalApplies), delta(&mets.LiveRebuilds)
	apply([]string{"edge(n5, n0)"}, cut)
	burst()
	if caught() != k-1 || rebuilt() != 0 {
		t.Errorf("retraction commit: %d catch-ups, %d rebuilds; want %d, 0", caught(), rebuilt(), k-1)
	}

	// TrimMemory drops the idle engines; later leases re-create them.
	if dropped := pl.TrimMemory(0); dropped != k-1 {
		t.Fatalf("TrimMemory dropped %d engines, want %d", dropped, k-1)
	}
	news := delta(&mets.PoolNews)
	apply(nil, []string{"edge(n2, n3)"})
	burst()
	if news() != k-1 {
		t.Errorf("after TrimMemory: %d new engines, want %d", news(), k-1)
	}

	// A replica's bootstrap snapshot replaces the base.
	var snap strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&snap, "node(%s).\n", node(i))
	}
	for i := 3; i < n; i += 2 {
		fmt.Fprintf(&snap, "edge(n0, %s). edge(%s, n1).\n", node(i), node(i))
	}
	var buf bytes.Buffer
	if err := mustParse(t, snap.String()).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	builds, rebuilt := delta(&mets.LiveSubstrateBuilds), delta(&mets.LiveRebuilds)
	if err := l.InstallSnapshot(&buf, l.Version()+5); err != nil {
		t.Fatal(err)
	}
	clear(model)
	for _, f := range mustParse(t, snap.String()).src.Facts {
		model[f.String()] = true
	}
	recordCold()
	burst()
	if builds() != 1 || rebuilt() != k-1 {
		t.Errorf("InstallSnapshot: %d base builds, %d rebuilds; want 1, %d", builds(), rebuilt(), k-1)
	}
	caught = delta(&mets.LiveIncrementalApplies)
	apply([]string{"edge(n1, n2)"}, []string{"edge(n0, n3)"})
	burst()
	if caught() != k-1 {
		t.Errorf("commit after InstallSnapshot: %d catch-ups, want %d", caught(), k-1)
	}

	close(stop)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	versions := map[uint64]int{}
	for _, a := range got {
		w, ok := want[a.version]
		if !ok {
			t.Fatalf("an engine answered at version %d, which no commit made", a.version)
		}
		if a.sheet != w {
			t.Errorf("engine at version %d drifted from a cold engine:\ngot:\n%s\nwant:\n%s", a.version, a.sheet, w)
		}
		versions[a.version]++
	}
	if len(versions) != len(want) {
		t.Errorf("answers at %d versions, want all %d", len(versions), len(want))
	}
}

// TestCatchUpRaceMatchesRef: a live pool of two engines serves two readers
// while a writer toggles chords of a spine, retractions among them, so
// each engine catches up by dropping and extending its root models between
// reads. A reader waits for the writer's latest version before each read,
// and every answer must equal internal/ref's at the version the read is
// stamped with.
func TestCatchUpRaceMatchesRef(t *testing.T) {
	catchUpRace(t, Options{PoolSize: 2, Mode: ModeCascade})
}

// TestCatchUpRaceMatchesRefCached is TestCatchUpRaceMatchesRef with the
// answer cache on, so reads that began before a commit race its sweep to
// store their answers. At quiescence no entry may sit below the floor:
// raising it to the current version again must sweep nothing.
func TestCatchUpRaceMatchesRefCached(t *testing.T) {
	mets := metrics.NewSet("catchup_cached")
	pl := catchUpRace(t, Options{PoolSize: 2, Mode: ModeCascade, CacheBytes: 1 << 20, Metrics: mets})
	if mets.CacheHits.Value()+mets.CacheCoalesced.Value() == 0 {
		t.Error("no read was served from the cache")
	}
	swept := mets.CacheSuperseded.Value()
	pl.cache.Raise(pl.Version())
	if got := mets.CacheSuperseded.Value() - swept; got != 0 {
		t.Errorf("%d entries were stored below the floor %d", got, pl.Version())
	}
}

// catchUpRace runs the race of TestCatchUpRaceMatchesRef on a live pool
// built with opts, failing t on any answer that differs from
// internal/ref's at its stamped version, and returns the pool once the
// writer and both readers are done.
func catchUpRace(t *testing.T, opts Options) *Pool {
	t.Helper()
	const n, commits = 12, 40
	g, chords := workload.SpineChords(rand.New(rand.NewSource(7)), n, 8)
	rng := rand.New(rand.NewSource(8))
	present := map[[2]int]bool{}
	edgesAt := [][][2]int{g.Edges} // by data version
	var toggles [][]live.Mutation
	for i := 0; i < commits; i++ {
		c := chords[rng.Intn(len(chords))]
		atom := []string{fmt.Sprintf("edge(n%d, n%d)", c[0], c[1])}
		if present[c] {
			toggles = append(toggles, mutations(t, nil, atom))
		} else {
			toggles = append(toggles, mutations(t, atom, nil))
		}
		present[c] = !present[c]
		es := slices.Clone(g.Edges)
		for _, ch := range chords {
			if present[ch] {
				es = append(es, ch)
			}
		}
		edgesAt = append(edgesAt, es)
	}
	pairs := [][2]int{{0, n - 1}, {n - 1, 0}, {5, 2}, {8, 3}, {3, 1}, {9, 4}}
	query := func(pr [2]int) string { return fmt.Sprintf("reach(n%d, n%d)", pr[0], pr[1]) }
	want := make([]map[string]bool, len(edgesAt))
	for v, es := range edgesAt {
		p := mustParse(t, workload.ClosureProgram(workload.Digraph{N: n, Edges: es}, workload.RightLinear))
		ip := ref.New(p.comp)
		reach, _ := p.syms.LookupPred("reach", 2)
		want[v] = map[string]bool{}
		for _, pr := range pairs {
			x, _ := p.syms.LookupConst(fmt.Sprintf("n%d", pr[0]))
			y, _ := p.syms.LookupConst(fmt.Sprintf("n%d", pr[1]))
			want[v][query(pr)] = ip.Holds(ip.Interner().ID(reach, []symbols.Const{x, y}), ip.EmptyState())
		}
	}

	l, err := OpenLive(mustParse(t, workload.ClosureProgram(g, workload.RightLinear)),
		LiveConfig{WALPath: filepath.Join(t.TempDir(), "wal.log"), NoSync: true, Logger: quietLog},
		opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var latest atomic.Uint64
	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	wg.Add(3)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i, ms := range toggles {
			ci, err := l.Apply(ms)
			if err == nil && ci.Version != uint64(i+1) {
				err = fmt.Errorf("commit %d made version %d", i, ci.Version)
			}
			if err != nil {
				errs <- err
				return
			}
			latest.Store(ci.Version)
		}
	}()
	for r := 0; r < 2; r++ {
		go func() {
			defer wg.Done()
			ctx := context.Background()
			// After the writer stops, one more round of every query, read
			// twice in a row at its last version: with the cache on, the
			// second read of each is served from the cache.
			for i, after := r, 0; after <= 2*len(pairs); i++ {
				if done.Load() {
					after++
				}
				min := latest.Load()
				if err := l.WaitVersion(ctx, min); err != nil {
					errs <- err
					return
				}
				q := query(pairs[i/2%len(pairs)])
				got := false
				info, err := l.Pool().Read(ctx, Request{Kind: ReadAsk, Query: q}, func(Binding) error { got = true; return nil })
				switch {
				case err != nil:
					errs <- fmt.Errorf("%s: %w", q, err)
					return
				case info.DataVersion < min:
					errs <- fmt.Errorf("%s read at version %d, below its minimum %d", q, info.DataVersion, min)
					return
				case got != want[info.DataVersion][q]:
					errs <- fmt.Errorf("%s = %v at version %d, ref says %v", q, got, info.DataVersion, !got)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	return l.Pool()
}
