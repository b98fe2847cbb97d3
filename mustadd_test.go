package hypo

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hypodatalog/internal/facts"
	"hypodatalog/internal/live"
	"hypodatalog/internal/metrics"
	"hypodatalog/internal/ref"
	"hypodatalog/internal/symbols"
	"hypodatalog/internal/workload"
)

// TestMustAddDBCommit: a live pool of two engines answers Example 5's
// ap(e1)–ap(e3) under outer marker adds while a writer retracts and
// restores next and last facts. Those asks are proved less the markers
// their proofs must add, a set the stored order determines, so each
// engine's sets must follow every commit it catches up on: every answer
// must equal internal/ref's at the version the read is stamped with.
func TestMustAddDBCommit(t *testing.T) {
	for name, mode := range map[string]Mode{"cascade": ModeCascade, "uniform": ModeUniform} {
		t.Run(name, func(t *testing.T) { mustAddDBCommit(t, name, mode) })
	}
}

func mustAddDBCommit(t *testing.T, name string, mode Mode) {
	// internal/ref builds a model per hypothetical state, 2^(n-1) of them
	// along the order, so the order is short.
	const n, commits = 8, 30
	src := workload.OrderLoopProgram(n)
	toggled := []string{"next(e1, e2)", "next(e2, e3)", "next(e3, e4)", "next(e5, e6)", "last(e8)", "last(e3)"}
	rng := rand.New(rand.NewSource(16))
	present := map[string]bool{}
	for _, a := range toggled {
		present[a] = strings.Contains(src, a+".\n")
	}
	type ask struct {
		query string
		adds  []string
	}
	var asks []ask
	for j := 1; j <= 3; j++ {
		for k := 0; k < 3; k++ {
			a := ask{query: fmt.Sprintf("ap(e%d)", j)}
			for i := 1; i <= j; i++ {
				if k != 1 || i != j { // k = 1 leaves the prefix one short
					a.adds = append(a.adds, fmt.Sprintf("marker(e%d)", i))
				}
			}
			a.adds = append(a.adds, fmt.Sprintf("marker(e%d)", j+1+rng.Intn(n-j)))
			asks = append(asks, a)
		}
	}
	key := func(a ask) string { return a.query + strings.Join(a.adds, ",") }

	var toggles [][]live.Mutation
	srcs := []string{src} // by data version
	for i := 0; i < commits; i++ {
		a := toggled[rng.Intn(len(toggled))]
		if present[a] {
			toggles = append(toggles, mutations(t, nil, []string{a}))
		} else {
			toggles = append(toggles, mutations(t, []string{a}, nil))
		}
		present[a] = !present[a]
		s := src
		for _, b := range toggled {
			s = strings.Replace(s, b+".\n", "", 1)
			if present[b] {
				s += b + ".\n"
			}
		}
		srcs = append(srcs, s)
	}
	// inner is the argument of a unary atom written as source.
	inner := func(atom string) string { return atom[strings.IndexByte(atom, '(')+1 : len(atom)-1] }
	want := make([]map[string]bool, len(srcs))
	holds := 0
	for v, s := range srcs {
		p := mustParse(t, s)
		ip := ref.New(p.comp)
		unary := func(pred, atom string) facts.AtomID {
			pr, _ := p.syms.LookupPred(pred, 1)
			c, _ := p.syms.LookupConst(inner(atom))
			return ip.Interner().ID(pr, []symbols.Const{c})
		}
		want[v] = map[string]bool{}
		for _, a := range asks {
			st := ip.EmptyState()
			for _, m := range a.adds {
				st = st.Add(unary("marker", m))
			}
			if want[v][key(a)] = ip.Holds(unary("ap", a.query), st); want[v][key(a)] {
				holds++
			}
		}
	}
	if holds == 0 {
		t.Fatal("no ask holds at any version")
	}

	mets := metrics.NewSet("mustadd_commit_" + name)
	l, err := OpenLive(mustParse(t, src),
		LiveConfig{WALPath: filepath.Join(t.TempDir(), "wal.log"), NoSync: true, Logger: quietLog},
		Options{PoolSize: 2, Mode: mode, Metrics: mets})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var latest atomic.Uint64
	var reads atomic.Int64 // reads answered; -1 once a reader has failed
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
			// Every ask is read at this version or later before the next
			// commit, so each engine computes sets the next commit must
			// drop.
			for from := reads.Load(); ; time.Sleep(100 * time.Microsecond) {
				if r := reads.Load(); r < 0 || r >= from+int64(len(asks)) {
					break
				}
			}
		}
	}()
	for r := 0; r < 2; r++ {
		go func() {
			defer wg.Done()
			defer func() {
				if !done.Load() {
					reads.Store(-1)
				}
			}()
			ctx := context.Background()
			// After the writer stops, one more round of every ask.
			for i, after := r, 0; after <= len(asks); i++ {
				if done.Load() {
					after++
				}
				min := latest.Load()
				if err := l.WaitVersion(ctx, min); err != nil {
					errs <- err
					return
				}
				a := asks[i%len(asks)]
				got := false
				info, err := l.Pool().Read(ctx, Request{Kind: ReadAskUnder, Query: a.query, Add: a.adds}, func(Binding) error { got = true; return nil })
				switch {
				case err != nil:
					errs <- fmt.Errorf("%s under %v: %w", a.query, a.adds, err)
					return
				case info.DataVersion < min:
					errs <- fmt.Errorf("%s read at version %d, below its minimum %d", a.query, info.DataVersion, min)
					return
				case got != want[info.DataVersion][key(a)]:
					errs <- fmt.Errorf("%s under %v = %v at version %d, ref says %v", a.query, a.adds, got, info.DataVersion, !got)
					return
				}
				reads.Add(1)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if mets.LiveIncrementalApplies.Value() == 0 {
		t.Error("no engine caught up on a commit in place")
	}
}
