package hypo

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hypodatalog/internal/metrics"
)

const cacheTestSrc = `
edge(a, b). edge(b, c). edge(c, d).
path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
`

func cacheTestPool(t *testing.T, opts Options) *Pool {
	t.Helper()
	prog, err := Parse(cacheTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPool(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pl.Close() })
	return pl
}

func TestPoolCacheHitServesWithoutEngine(t *testing.T) {
	// Uniform mode, because only the top-down engine reports goal counts
	// — and a zero-goal hit is exactly what this test is after.
	pl := cacheTestPool(t, Options{CacheBytes: 1 << 20, Mode: ModeUniform})
	ok, info, err := pl.AskInfoCtx(context.Background(), "path(a, d)")
	if err != nil || !ok {
		t.Fatalf("first ask: ok=%v err=%v", ok, err)
	}
	if info.Cache != CacheMiss {
		t.Fatalf("first ask served %v, want miss", info.Cache)
	}
	if info.Stats.Goals == 0 {
		t.Fatal("miss reported zero evaluation work")
	}
	ok, info, err = pl.AskInfoCtx(context.Background(), "path(a, d)")
	if err != nil || !ok {
		t.Fatalf("second ask: ok=%v err=%v", ok, err)
	}
	if info.Cache != CacheHit {
		t.Fatalf("second ask served %v, want hit", info.Cache)
	}
	if info.Stats.Goals != 0 {
		t.Fatalf("hit reported %d goals of work, want 0", info.Stats.Goals)
	}
}

func TestPoolCacheBypassWithoutBudget(t *testing.T) {
	pl := cacheTestPool(t, Options{})
	for i := 0; i < 2; i++ {
		ok, info, err := pl.AskInfoCtx(context.Background(), "path(a, d)")
		if err != nil || !ok {
			t.Fatalf("ask %d: ok=%v err=%v", i, ok, err)
		}
		if info.Cache != CacheBypass {
			t.Fatalf("ask %d served %v, want bypass", i, info.Cache)
		}
	}
}

func TestPoolCacheKeyDistinguishesOperations(t *testing.T) {
	pl := cacheTestPool(t, Options{CacheBytes: 1 << 20})
	ctx := context.Background()
	if ok, _, err := pl.AskInfoCtx(ctx, "path(a, d)"); err != nil || !ok {
		t.Fatalf("ask: %v %v", ok, err)
	}
	// Same text through AskUnder with no overlapping key: both must be
	// misses on first use, not cross-served.
	ok, info, err := pl.AskUnderInfoCtx(ctx, "path(a, d)", "edge(d, a)")
	if err != nil || !ok {
		t.Fatalf("askunder: %v %v", ok, err)
	}
	if info.Cache != CacheMiss {
		t.Fatalf("askunder served %v, want its own miss", info.Cache)
	}
	// Add order must not matter: a permutation is the same key.
	if _, info, err = pl.AskUnderInfoCtx(ctx, "path(a, d)", "edge(d, a)", "edge(c, a)"); err != nil || info.Cache != CacheMiss {
		t.Fatalf("two adds: %v %v", info.Cache, err)
	}
	if _, info, err = pl.AskUnderInfoCtx(ctx, "path(a, d)", "edge(c, a)", "edge(d, a)"); err != nil || info.Cache != CacheHit {
		t.Fatalf("permuted adds served %v, want hit", info.Cache)
	}
}

// TestPoolCacheSingleflight holds the pool's only engine hostage, fires K
// identical asks, and asserts the whole burst costs exactly one engine
// lease: one miss evaluates, everyone else shares its answer.
func TestPoolCacheSingleflight(t *testing.T) {
	pl := cacheTestPool(t, Options{PoolSize: 1, CacheBytes: 1 << 20})
	hold := make(chan struct{})
	held := make(chan struct{})
	doDone := make(chan error, 1)
	go func() {
		doDone <- pl.Do(context.Background(), func(e *Engine) error {
			close(held)
			<-hold
			return nil
		})
	}()
	<-held

	leases0 := metrics.Default.PoolGets.Value() + metrics.Default.PoolNews.Value()
	const K = 12
	var wg sync.WaitGroup
	oks := make([]bool, K)
	infos := make([]ReadInfo, K)
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			oks[i], infos[i], errs[i] = pl.AskInfoCtx(context.Background(), "path(a, d)")
		}(i)
	}
	// Let the burst queue up against the held engine, then release it.
	time.Sleep(50 * time.Millisecond)
	close(hold)
	wg.Wait()
	if err := <-doDone; err != nil {
		t.Fatal(err)
	}

	if leases := metrics.Default.PoolGets.Value() + metrics.Default.PoolNews.Value() - leases0; leases != 1 {
		t.Fatalf("%d engine leases for %d identical queries, want 1", leases, K)
	}
	misses := 0
	for i := 0; i < K; i++ {
		if errs[i] != nil || !oks[i] {
			t.Fatalf("caller %d: ok=%v err=%v", i, oks[i], errs[i])
		}
		switch infos[i].Cache {
		case CacheMiss:
			misses++
		case CacheHit, CacheCoalesced:
		default:
			t.Fatalf("caller %d served %v", i, infos[i].Cache)
		}
	}
	if misses != 1 {
		t.Fatalf("%d misses, want exactly 1", misses)
	}
}

// TestPoolCacheCanceledWaiter cancels one caller of a coalesced pair
// mid-wait: it must fail with ErrCanceled while the surviving caller —
// and every later one — still gets the correct answer (no poisoning).
func TestPoolCacheCanceledWaiter(t *testing.T) {
	pl := cacheTestPool(t, Options{PoolSize: 1, CacheBytes: 1 << 20})
	hold := make(chan struct{})
	held := make(chan struct{})
	go func() {
		_ = pl.Do(context.Background(), func(e *Engine) error {
			close(held)
			<-hold
			return nil
		})
	}()
	<-held

	survivor := make(chan error, 1)
	go func() {
		ok, _, err := pl.AskInfoCtx(context.Background(), "path(a, d)")
		if err == nil && !ok {
			err = errors.New("survivor got wrong answer")
		}
		survivor <- err
	}()

	wctx, wcancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, _, err := pl.AskInfoCtx(wctx, "path(a, d)")
		waiter <- err
	}()
	time.Sleep(30 * time.Millisecond)
	wcancel()
	if err := <-waiter; !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled caller got %v, want ErrCanceled", err)
	}

	close(hold)
	if err := <-survivor; err != nil {
		t.Fatalf("surviving caller: %v", err)
	}
	ok, info, err := pl.AskInfoCtx(context.Background(), "path(a, d)")
	if err != nil || !ok {
		t.Fatalf("after cancellation: ok=%v err=%v", ok, err)
	}
	if info.Cache != CacheHit {
		t.Fatalf("after cancellation served %v, want hit (entry must not be poisoned)", info.Cache)
	}
}

// TestPoolQueryEachYieldErrorWithCache is the regression test for the
// cached streaming path: an error returned by yield must abort the
// enumeration and surface verbatim — not be swallowed by the
// materialisation — and the partial set must not be cached.
func TestPoolQueryEachYieldErrorWithCache(t *testing.T) {
	pl := cacheTestPool(t, Options{CacheBytes: 1 << 20})
	ctx := context.Background()
	sentinel := errors.New("stop after first")

	seen := 0
	_, err := pl.Read(ctx, Request{Kind: ReadQuery, Query: "path(a, X)"}, func(b Binding) error {
		seen++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("yield error came back as %v, want the sentinel verbatim", err)
	}
	if seen != 1 {
		t.Fatalf("yield ran %d times after returning an error, want 1", seen)
	}

	// The aborted enumeration must not have cached its partial set.
	bs, info, err := collect(ctx, pl, Request{Kind: ReadQuery, Query: "path(a, X)"})
	if err != nil {
		t.Fatal(err)
	}
	if info.Cache != CacheMiss {
		t.Fatalf("read after aborted stream served %v, want miss", info.Cache)
	}
	if got := bindingSet(bs); got != "X=b|X=c|X=d" {
		t.Fatalf("full set %q, want all three reachable nodes", got)
	}

	// Now cached; the replay path must propagate yield errors too.
	bs, info, err = collect(ctx, pl, Request{Kind: ReadQuery, Query: "path(a, X)"})
	if err != nil || info.Cache != CacheHit || len(bs) != 3 {
		t.Fatalf("cached read: %v %v %v", bs, info.Cache, err)
	}
	seen = 0
	_, err = pl.Read(ctx, Request{Kind: ReadQuery, Query: "path(a, X)"}, func(b Binding) error {
		seen++
		return sentinel
	})
	if !errors.Is(err, sentinel) || seen != 1 {
		t.Fatalf("replay: err=%v seen=%d, want sentinel after 1", err, seen)
	}

	// A yield error that happens to be a context error must also come
	// back verbatim, not re-wrapped as this query's abort.
	_, err = pl.Read(ctx, Request{Kind: ReadQuery, Query: "path(a, X)"}, func(b Binding) error {
		return context.Canceled
	})
	if err != context.Canceled {
		t.Fatalf("context.Canceled from yield came back as %v", err)
	}
}

func bindingSet(bs []Binding) string {
	out := make([]string, 0, len(bs))
	for _, b := range bs {
		keys := make([]string, 0, len(b))
		for k := range b {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k + "=" + b[k]
		}
		out = append(out, strings.Join(parts, ","))
	}
	sort.Strings(out)
	return strings.Join(out, "|")
}

// TestCacheMetamorphicUnderMutation is the metamorphic property test from
// the live write path down: random readers race a stream of fact
// mutations against a cache-enabled pool, every answer echoes the data
// version it is valid at, and afterwards each recorded answer is replayed
// on a cold, cache-less engine built from the exact fact set of that
// version. Any stale-version answer that escaped the cache fails the
// replay. Run with -race: the hot-swap path is exactly what it races.
func TestCacheMetamorphicUnderMutation(t *testing.T) {
	metamorphicStorm(t, Options{PoolSize: 4, CacheBytes: 1 << 20})
}

// metamorphicStorm is the storm body, parameterised by pool options: the
// cold replay engine is always a plain cache-less engine, so the replay
// checks every pool configuration at every committed version.
func metamorphicStorm(t *testing.T, opts Options) {
	nodes := []string{"n0", "n1", "n2", "n3", "n4"}
	var rules strings.Builder
	for _, n := range nodes {
		fmt.Fprintf(&rules, "node(%s).\n", n)
	}
	rules.WriteString("path(X, Y) :- edge(X, Y).\n")
	rules.WriteString("path(X, Z) :- edge(X, Y), path(Y, Z).\n")
	rules.WriteString("linked(X) :- node(X), path(n0, X).\n")
	base := rules.String() + "edge(n0, n1).\nedge(n1, n2).\n"

	prog, err := Parse(base)
	if err != nil {
		t.Fatal(err)
	}
	lv, err := OpenLive(prog, LiveConfig{WALPath: filepath.Join(t.TempDir(), "wal")}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	pl := lv.Pool()

	// factsByVersion tracks the exact edge set committed at each version.
	edges := map[string]bool{"edge(n0, n1)": true, "edge(n1, n2)": true}
	factsByVersion := map[uint64][]string{}
	var mu sync.Mutex
	snapshot := func(v uint64) {
		fs := make([]string, 0, len(edges))
		for e := range edges {
			fs = append(fs, e)
		}
		sort.Strings(fs)
		mu.Lock()
		factsByVersion[v] = fs
		mu.Unlock()
	}
	snapshot(pl.Version())

	type sample struct {
		kind    string // ask | query | askunder
		query   string
		adds    []string
		ok      bool
		set     string
		version uint64
	}
	var samples []sample
	var smu sync.Mutex

	ctx := context.Background()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 6; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				from := nodes[rng.Intn(len(nodes))]
				to := nodes[rng.Intn(len(nodes))]
				var s sample
				switch i % 3 {
				case 0:
					s = sample{kind: "ask", query: fmt.Sprintf("path(%s, %s)", from, to)}
					var info ReadInfo
					s.ok, info, _ = pl.AskInfoCtx(ctx, s.query)
					s.version = info.DataVersion
				case 1:
					s = sample{kind: "query", query: fmt.Sprintf("path(%s, X)", from)}
					bs, info, err := collect(ctx, pl, Request{Kind: ReadQuery, Query: s.query})
					if err != nil {
						continue
					}
					s.set, s.version = bindingSet(bs), info.DataVersion
				default:
					s = sample{
						kind:  "askunder",
						query: fmt.Sprintf("linked(%s)", to),
						adds:  []string{fmt.Sprintf("edge(n0, %s)", from)},
					}
					var info ReadInfo
					s.ok, info, _ = pl.AskUnderInfoCtx(ctx, s.query, s.adds...)
					s.version = info.DataVersion
				}
				smu.Lock()
				samples = append(samples, s)
				smu.Unlock()
			}
		}(g)
	}

	// The writer: a stream of single-edge mutations, each a hot swap.
	wrng := rand.New(rand.NewSource(99))
	for i := 0; i < 25; i++ {
		from := nodes[wrng.Intn(len(nodes))]
		to := nodes[wrng.Intn(len(nodes))]
		fact := fmt.Sprintf("edge(%s, %s)", from, to)
		retract := edges[fact] && wrng.Intn(2) == 0
		var am, rm []string
		if retract {
			rm = []string{fact}
		} else {
			am = []string{fact}
		}
		muts, err := ParseMutations(am, rm)
		if err != nil {
			t.Fatal(err)
		}
		info, err := lv.Apply(muts)
		if err != nil {
			t.Fatal(err)
		}
		if retract {
			delete(edges, fact)
		} else {
			edges[fact] = true
		}
		snapshot(info.Version)
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	readers.Wait()

	// Replay every sample on a cold engine at its echoed version.
	cold := map[uint64]*Engine{}
	for v, fs := range factsByVersion {
		src := rules.String() + strings.Join(fs, ".\n")
		if len(fs) > 0 {
			src += ".\n"
		}
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("version %d: %v", v, err)
		}
		e, err := New(p, Options{})
		if err != nil {
			t.Fatalf("version %d: %v", v, err)
		}
		cold[v] = e
	}
	hits := 0
	for _, s := range samples {
		e, ok := cold[s.version]
		if !ok {
			t.Fatalf("answer stamped with unknown data version %d: %+v", s.version, s)
		}
		switch s.kind {
		case "ask":
			want, err := e.Ask(s.query)
			if err != nil {
				t.Fatalf("cold ask %q at v%d: %v", s.query, s.version, err)
			}
			if want != s.ok {
				t.Fatalf("stale answer escaped: %s %q at v%d: live=%v cold=%v",
					s.kind, s.query, s.version, s.ok, want)
			}
		case "query":
			bs, err := e.Query(s.query)
			if err != nil {
				t.Fatalf("cold query %q at v%d: %v", s.query, s.version, err)
			}
			if want := bindingSet(bs); want != s.set {
				t.Fatalf("stale bindings escaped: %q at v%d: live=%q cold=%q",
					s.query, s.version, s.set, want)
			}
		case "askunder":
			want, err := e.AskUnder(s.query, s.adds...)
			if err != nil {
				t.Fatalf("cold askunder %q at v%d: %v", s.query, s.version, err)
			}
			if want != s.ok {
				t.Fatalf("stale hypothetical answer escaped: %q+%v at v%d: live=%v cold=%v",
					s.query, s.adds, s.version, s.ok, want)
			}
		}
		hits++
	}
	if hits < 50 {
		t.Fatalf("only %d samples recorded; the storm did not exercise the cache", hits)
	}
}

// TestCacheCarriesAcrossUnrelatedCommit: a commit invalidates only the
// cached answers whose premises intersect its cone; everything else is
// re-keyed to the new version and keeps serving without evaluation.
// liveSrc has two independent cones — flag/light and edge/reach.
func TestCacheCarriesAcrossUnrelatedCommit(t *testing.T) {
	l := openLive(t, Options{CacheBytes: 1 << 20, Mode: ModeUniform})
	pl := l.Pool()
	ctx := context.Background()

	// Warm both cones at v0.
	for _, q := range []string{"light(off)", "reach(a, b)"} {
		ok, info, err := pl.AskInfoCtx(ctx, q)
		if err != nil || !ok {
			t.Fatalf("warm %q: ok=%v err=%v", q, ok, err)
		}
		if info.Cache != CacheMiss {
			t.Fatalf("warm %q served %v, want miss", q, info.Cache)
		}
	}

	// Commit inside the edge/reach cone only.
	if _, err := l.Apply(mutations(t, []string{"edge(b, c)"}, nil)); err != nil {
		t.Fatal(err)
	}

	// light(off) is outside the cone: its answer was carried to v1 and
	// still serves as a hit.
	ok, info, err := pl.AskInfoCtx(ctx, "light(off)")
	if err != nil || !ok {
		t.Fatalf("light(off) after commit: ok=%v err=%v", ok, err)
	}
	if info.Cache != CacheHit {
		t.Fatalf("light(off) after unrelated commit served %v, want carried hit", info.Cache)
	}
	if info.DataVersion != 1 {
		t.Fatalf("carried hit at version %d, want 1", info.DataVersion)
	}

	// reach(a, b) is inside the cone: the old answer must not survive.
	ok, info, err = pl.AskInfoCtx(ctx, "reach(a, b)")
	if err != nil || !ok {
		t.Fatalf("reach(a, b) after commit: ok=%v err=%v", ok, err)
	}
	if info.Cache != CacheMiss {
		t.Fatalf("reach(a, b) after in-cone commit served %v, want miss", info.Cache)
	}

	// A commit in the flag/light cone drops the carried entry: the next
	// light read is a miss, not a stale carried answer.
	if _, err := l.Apply(mutations(t, []string{"flag(a)"}, nil)); err != nil {
		t.Fatal(err)
	}
	ok, info, err = pl.AskInfoCtx(ctx, "light(a)")
	if err != nil || !ok {
		t.Fatalf("light(a) after flag commit: ok=%v err=%v", ok, err)
	}
	if info.Cache != CacheMiss {
		t.Fatalf("light(a) after flag commit served %v, want miss", info.Cache)
	}
}
