package hypo

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"hypodatalog/internal/metrics"
	"hypodatalog/internal/workload"
)

// readSurface is Read of one kind, or one of the shims kept over it,
// normalised for the conformance table: a ground answer is reported as
// one empty binding when true and none when false, exactly as the core
// represents it.
type readSurface struct {
	name    string
	kind    ReadKind
	pool    bool // served by the pool (sees its version and cache)
	read    bool // Read itself: takes a context and any outer adds
	streams bool // takes a yield
	call    func(ctx context.Context, query string, adds []string, yield func(Binding) error) ([]Binding, *ReadInfo, error)
}

func fromBool(ok bool, info *ReadInfo, err error) ([]Binding, *ReadInfo, error) {
	if ok {
		return []Binding{{}}, info, err
	}
	return nil, info, err
}

// readSurfaces is r.Read of every kind.
func readSurfaces(name string, r reader, pool bool) []readSurface {
	var out []readSurface
	for _, k := range []ReadKind{ReadAsk, ReadAskUnder, ReadQuery} {
		k := k
		out = append(out, readSurface{name + "/" + k.String(), k, pool, true, true, func(ctx context.Context, q string, adds []string, yield func(Binding) error) ([]Binding, *ReadInfo, error) {
			info, err := r.Read(ctx, Request{Kind: k, Query: q, Add: adds}, yield)
			return nil, &info, err
		}})
	}
	return out
}

func engineSurfaces(e *Engine) []readSurface {
	type y = func(Binding) error
	return append(readSurfaces("Engine.Read", e, false),
		readSurface{"Engine.Ask", ReadAsk, false, false, false, func(_ context.Context, q string, _ []string, _ y) ([]Binding, *ReadInfo, error) {
			ok, err := e.Ask(q)
			return fromBool(ok, nil, err)
		}},
		readSurface{"Engine.AskUnder", ReadAskUnder, false, false, false, func(_ context.Context, q string, adds []string, _ y) ([]Binding, *ReadInfo, error) {
			ok, err := e.AskUnder(q, adds...)
			return fromBool(ok, nil, err)
		}},
		readSurface{"Engine.Query", ReadQuery, false, false, false, func(_ context.Context, q string, _ []string, _ y) ([]Binding, *ReadInfo, error) {
			bs, err := e.Query(q)
			return bs, nil, err
		}},
		readSurface{"Engine.QueryEach", ReadQuery, false, false, true, func(_ context.Context, q string, _ []string, yield y) ([]Binding, *ReadInfo, error) {
			return nil, nil, e.QueryEach(q, yield)
		}},
	)
}

func poolSurfaces(pl *Pool) []readSurface {
	type y = func(Binding) error
	return append(readSurfaces("Pool.Read", pl, true),
		readSurface{"Pool.AskInfoCtx", ReadAsk, true, false, false, func(ctx context.Context, q string, _ []string, _ y) ([]Binding, *ReadInfo, error) {
			ok, info, err := pl.AskInfoCtx(ctx, q)
			return fromBool(ok, &info, err)
		}},
		readSurface{"Pool.AskUnderInfoCtx", ReadAskUnder, true, false, false, func(ctx context.Context, q string, adds []string, _ y) ([]Binding, *ReadInfo, error) {
			ok, info, err := pl.AskUnderInfoCtx(ctx, q, adds...)
			return fromBool(ok, &info, err)
		}},
		readSurface{"Pool.QueryEachInfoCtx", ReadQuery, true, false, true, func(ctx context.Context, q string, _ []string, yield y) ([]Binding, *ReadInfo, error) {
			info := new(ReadInfo)
			return nil, info, pl.QueryEachInfoCtx(ctx, q, info, yield)
		}},
	)
}

// TestReadSurfaceConformance runs Read of every kind on Engine and Pool,
// and every shim kept over it — cache off and on — over one fixture and
// holds them to one contract: identical answers, identical error classes,
// ReadInfo filled before the first yield, nothing interned by a rejected
// read, and a balanced metrics window per call. Each cache setting runs
// twice: on cold compile memos, and on memos warmed with the valid halves
// of its rejected reads, so that a read whose every other part is held
// compiled is still rejected on the part that is not, and interns
// nothing.
func TestReadSurfaceConformance(t *testing.T) {
	const poolVersion = 7 // non-zero, so an unset ReadInfo.DataVersion shows

	type read struct {
		kind  ReadKind
		query string
		adds  []string
		want  string // bindingSet rendering
	}
	reads := []read{
		{ReadAsk, "grad(tony)", nil, ""},
		{ReadAsk, "grad(mary)", nil, "none"},
		{ReadAsk, "grad(mary)[add: take(mary, eng201)]", nil, ""},
		{ReadAsk, "not grad(mary)", nil, ""},
		{ReadAskUnder, "grad(mary)", []string{"take(mary, eng201)"}, ""},
		{ReadAskUnder, "grad(mary)", nil, "none"},
		{ReadAskUnder, "grad(tony)", []string{"take(mary, eng201)", "take(mary, his101)"}, ""},
		{ReadQuery, "grad(S)", nil, "S=tony"},
		{ReadQuery, "take(S, C)", nil, "C=eng201,S=tony|C=his101,S=mary|C=his101,S=tony"},
		{ReadQuery, "grad(S)[add: take(S, eng201)]", nil, "S=mary|S=tony"},
		{ReadQuery, "grad(tony)", nil, ""},
		{ReadQuery, "grad(mary)", nil, "none"},
	}
	render := func(bs []Binding) string {
		if len(bs) == 0 {
			return "none"
		}
		return bindingSet(bs)
	}
	// Reserved for the cancellation rows: never answered, so never cached.
	const uncached = "grad(mary)[add: take(mary, eng201), take(tony, his101)]"

	// The valid halves of the rejected reads below: their premises, their
	// valid adds, and a premise that is valid open under Query. Each interns
	// the predicates it names, which are then no rejected read's doing.
	warmUps := []Request{
		{Kind: ReadQuery, Query: "fresh2(S)"},
		{Kind: ReadQuery, Query: "grad(S)"},
		{Kind: ReadAskUnder, Query: "grad(tony)", Add: []string{"fresh4(tony)"}},
		{Kind: ReadAskUnder, Query: "grad(tony)", Add: []string{"take(mary, eng201)"}},
	}
	warmed := map[string]bool{"fresh2": true, "fresh4": true}

	for _, tc := range []struct {
		cacheBytes int64
		warm       bool
	}{{0, false}, {1 << 20, false}, {0, true}, {1 << 20, true}} {
		cacheBytes := tc.cacheBytes
		name := fmt.Sprintf("cache=%v", cacheBytes > 0)
		if tc.warm {
			name += ",warmed"
		}
		t.Run(name, func(t *testing.T) {
			mets := metrics.NewSet("conformance")
			opts := Options{CacheBytes: cacheBytes, Metrics: mets, PoolSize: 2}
			prog := mustParse(t, uniSrc)
			e, err := New(prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := NewPool(prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer pl.Close()
			if err := pl.reset(prog.comp.Facts, poolVersion); err != nil {
				t.Fatal(err)
			}
			surfaces := append(engineSurfaces(e), poolSurfaces(pl)...)
			ctx := context.Background()

			calls := int64(0)
			if tc.warm {
				for _, req := range warmUps {
					calls += 2
					if _, err := e.Read(ctx, req, func(Binding) error { return nil }); err != nil {
						t.Fatalf("warm-up %+v on the engine: %v", req, err)
					}
					if _, err := pl.Read(ctx, req, func(Binding) error { return nil }); err != nil {
						t.Fatalf("warm-up %+v on the pool: %v", req, err)
					}
				}
			}
			call := func(ctx context.Context, s readSurface, q string, adds []string, yield func(Binding) error) ([]Binding, *ReadInfo, error) {
				calls++
				var streamed []Binding
				if s.streams && yield == nil {
					yield = collectInto(&streamed)
				}
				bs, info, err := s.call(ctx, q, adds, yield)
				if s.streams {
					bs = streamed
				}
				return bs, info, err
			}

			// Answers, and how the Info wrappers say they were served.
			for _, rd := range reads {
				for _, s := range surfaces {
					if s.kind != rd.kind {
						continue
					}
					for round := 0; round < 2; round++ {
						bs, info, err := call(ctx, s, rd.query, rd.adds, nil)
						if err != nil {
							t.Fatalf("%s(%q, %v): %v", s.name, rd.query, rd.adds, err)
						}
						if got := render(bs); got != rd.want {
							t.Errorf("%s(%q, %v) = %s, want %s", s.name, rd.query, rd.adds, got, rd.want)
						}
						if info == nil {
							continue
						}
						wantVersion := uint64(0) // a standalone engine's
						if s.pool {
							wantVersion = poolVersion
						}
						if info.DataVersion != wantVersion {
							t.Errorf("%s(%q): DataVersion %d, want %d", s.name, rd.query, info.DataVersion, wantVersion)
						}
						if (cacheBytes == 0 || !s.pool) && info.Cache != CacheBypass {
							t.Errorf("%s(%q): cache status %v without a cache", s.name, rd.query, info.Cache)
						}
						if cacheBytes > 0 && s.pool && round == 1 && info.Cache != CacheHit {
							t.Errorf("%s(%q): repeat served %v, want hit", s.name, rd.query, info.Cache)
						}
					}
				}
			}

			// Two-phase ReadInfo: version and cache status are there when
			// the first binding arrives, on a miss and on a replayed hit.
			for round := 0; round < 2; round++ {
				var info ReadInfo
				seen := 0
				calls++
				got, err := pl.Read(ctx, Request{Kind: ReadQuery, Query: "take(tony, C)", Info: &info}, func(Binding) error {
					seen++
					want := CacheBypass
					if cacheBytes > 0 {
						want = []CacheStatus{CacheMiss, CacheHit}[round]
					}
					if info.DataVersion != poolVersion || info.Cache != want {
						t.Errorf("round %d, binding %d: info %+v before yield, want version %d, cache %v",
							round, seen, info, poolVersion, want)
					}
					return nil
				})
				if err != nil || seen != 2 {
					t.Fatalf("Read with Info: %d bindings, err %v", seen, err)
				}
				if got != info {
					t.Errorf("Read returned %+v, filled Info with %+v", got, info)
				}
			}

			// Error classes. Compile-time rejections come from the one
			// compileRead, so the message is identical across surfaces.
			rejected := []struct {
				class, query string
				adds         []string
				kinds        string // kinds the row applies to
				inMsg        string
			}{
				{"parse error", "grad(", nil, "aqu", ""},
				{"non-ground and out-of-domain", "fresh1(S, ghost1)", nil, "au", "outside dom(R, DB)"},
				{"non-ground", "fresh2(S)", nil, "au", "needs a ground query"},
				{"out-of-domain", "grad(ghost2)", nil, "aqu", "outside dom(R, DB)"},
				{"out-of-domain", "not grad(ghost3)", nil, "aqu", "outside dom(R, DB)"},
				{"out-of-domain", "fresh3(S)[add: take(S, ghost4)]", nil, "q", "outside dom(R, DB)"},
				{"out-of-domain add", "grad(tony)", []string{"fresh4(tony)", "take(ghost5, his101)"}, "u", "outside dom(R, DB)"},
				{"non-ground add", "grad(tony)", []string{"fresh5(S)"}, "u", "is not ground"},
				{"negated hypothetical", "not grad(tony)[add: take(tony, eng201)]", nil, "aqu", "negated hypotheticals are not supported"},
				{"adds off AskUnder", "grad(tony)", []string{"take(mary, eng201)"}, "aq", "takes no outer adds"},
				{"variables under adds", "grad(S)", []string{"take(mary, eng201)"}, "q", "takes no outer adds"},
			}
			preds := prog.syms.NumPreds()
			for _, rj := range rejected {
				first := ""
				for _, s := range surfaces {
					if !strings.ContainsRune(rj.kinds, rune(s.kind)) || rj.adds != nil && s.kind != ReadAskUnder && !s.read {
						continue // a shim without adds cannot express the row
					}
					_, _, err := call(ctx, s, rj.query, rj.adds, nil)
					var ae *AbortError
					if err == nil || errors.As(err, &ae) || !strings.Contains(err.Error(), rj.inMsg) {
						t.Errorf("%s(%q, %v) [%s] = %v, want a rejection mentioning %q", s.name, rj.query, rj.adds, rj.class, err, rj.inMsg)
						continue
					}
					msg := strings.Replace(err.Error(), s.kind.String(), "K", 1)
					if first == "" {
						first = msg
					} else if msg != first {
						t.Errorf("%s(%q) [%s] says %q, another surface says %q", s.name, rj.query, rj.class, msg, first)
					}
				}
			}
			for _, name := range []string{"ghost1", "ghost2", "ghost3", "ghost4", "ghost5"} {
				if _, ok := prog.syms.LookupConst(name); ok {
					t.Errorf("rejected read interned constant %q", name)
				}
			}
			if n := prog.syms.NumPreds(); n != preds {
				t.Errorf("rejected reads interned %d predicates", n-preds)
			}
			for name, arity := range map[string]int{"fresh1": 2, "fresh2": 1, "fresh3": 1, "fresh4": 1, "fresh5": 1} {
				if _, ok := prog.syms.LookupPred(name, arity); ok && !(tc.warm && warmed[name]) {
					t.Errorf("rejected read interned predicate %s/%d", name, arity)
				}
			}

			// A context cancelled before the call aborts every context-
			// taking surface the same way.
			dead, cancel := context.WithCancel(ctx)
			cancel()
			for _, s := range surfaces {
				if !s.read && !s.pool {
					continue // no context
				}
				_, _, err := call(dead, s, uncached, nil, nil)
				var ae *AbortError
				if !errors.Is(err, ErrCanceled) || !errors.As(err, &ae) {
					t.Errorf("%s on a cancelled context = %v, want *AbortError(ErrCanceled)", s.name, err)
				}
			}

			// A yield error stops the stream after one binding and comes
			// back verbatim — even one that looks like a context error —
			// and the cut-short enumeration poisons nothing: the full
			// answer follows.
			for _, sentinel := range []error{errors.New("stop"), context.Canceled} {
				for _, s := range surfaces {
					if !s.streams || s.kind != ReadQuery {
						continue
					}
					seen := 0
					_, _, err := call(ctx, s, "take(S, his101)", nil, func(Binding) error {
						seen++
						return sentinel
					})
					if err != sentinel || seen != 1 {
						t.Errorf("%s: yield error came back as %v after %d bindings", s.name, err, seen)
					}
					bs, _, err := call(ctx, s, "take(S, his101)", nil, nil)
					if err != nil || render(bs) != "S=mary|S=tony" {
						t.Errorf("%s after an aborted stream = %s, %v", s.name, render(bs), err)
					}
				}
			}

			started := mets.QueriesStarted.Value()
			done := mets.QueriesSucceeded.Value() + mets.QueriesFailed.Value() + mets.QueriesCanceled.Value()
			if started != calls || started != done {
				t.Errorf("metrics: %d calls, queries_started %d, succeeded+failed+canceled %d", calls, started, done)
			}
		})
	}
}

// readModes are the modes every read is held to, by name.
var readModes = []struct {
	name string
	Mode
}{{"auto", ModeAuto}, {"uniform", ModeUniform}, {"cascade", ModeCascade}}

// TestOpenReadsMatch: an open read of a predicate the program does not
// define takes its bindings from the state's matching atoms, in every
// mode, plain or under ground adds. On E8's padded cycle — three edges
// among 200 constants — edge(X, Y) used to try 40,200 domain bindings
// (40,000 goals under uniform) for its three answers; it now tries none
// and asks no goal.
func TestOpenReadsMatch(t *testing.T) {
	src := "edge(c0, c1).\nedge(c1, c2).\nedge(c2, c0).\n"
	for i := 3; i < 200; i++ {
		src += fmt.Sprintf("pad(c%d).\n", i)
	}
	prog := mustParse(t, src)
	for _, mode := range readModes {
		e, err := New(prog, Options{Mode: mode.Mode})
		if err != nil {
			t.Fatal(err)
		}
		for _, rd := range []struct{ query, want string }{
			{"edge(X, Y)", "X=c0,Y=c1|X=c1,Y=c2|X=c2,Y=c0"},
			{"edge(c0, Y)[add: edge(c0, c5)]", "Y=c1|Y=c5"},
		} {
			var got []Binding
			info, err := e.Read(context.Background(), Request{Kind: ReadQuery, Query: rd.query}, collectInto(&got))
			if err != nil {
				t.Fatalf("%s: %s: %v", mode.name, rd.query, err)
			}
			if s := bindingSet(got); s != rd.want {
				t.Errorf("%s: %s = %s, want %s", mode.name, rd.query, s, rd.want)
			}
			if info.Stats.Enumerated != 0 || info.Stats.Goals != 0 {
				t.Errorf("%s: %s enumerated %d bindings and asked %d goals, want 0 and 0",
					mode.name, rd.query, info.Stats.Enumerated, info.Stats.Goals)
			}
		}
	}
}

// TestGroundExtensionalReads: a ground read of a predicate the program
// does not define is decided by the state it is asked in — plain, under
// a ground add or del, or negated — in every mode, and asks no goal.
func TestGroundExtensionalReads(t *testing.T) {
	prog := mustParse(t, "edge(c0, c1).\nedge(c1, c2).\nreach(X, Y) :- edge(X, Y).\n")
	for _, mode := range readModes {
		e, err := New(prog, Options{Mode: mode.Mode})
		if err != nil {
			t.Fatal(err)
		}
		for _, rd := range []struct {
			query string
			want  bool
		}{
			{"edge(c0, c1)", true},
			{"edge(c0, c2)", false},
			{"edge(c0, c2)[add: edge(c0, c2)]", true},
			{"edge(c1, c0)[add: edge(c0, c2)]", false},
			{"edge(c0, c1)[del: edge(c0, c1)]", false},
			{"not edge(c0, c2)", true},
			{"not edge(c0, c1)", false},
		} {
			ok := false
			info, err := e.Read(context.Background(), Request{Kind: ReadAsk, Query: rd.query}, holds(&ok))
			if err != nil {
				t.Fatalf("%s: %s: %v", mode.name, rd.query, err)
			}
			if ok != rd.want {
				t.Errorf("%s: %s = %v, want %v", mode.name, rd.query, ok, rd.want)
			}
			if info.Stats.Goals != 0 {
				t.Errorf("%s: %s asked %d goals, want 0", mode.name, rd.query, info.Stats.Goals)
			}
		}
	}
}

// TestReadReportsItsOwnDepth: a read's MaxDepth is its own deepest proof
// stack, not the engine's lifetime one. On the n = 40 chain, a1 under b1
// walks the whole chain; a39 asked after it on the same engine reports
// the depth it reports on a fresh engine, and Engine.Stats keeps the
// lifetime maximum.
func TestReadReportsItsOwnDepth(t *testing.T) {
	prog := mustParse(t, workload.ChainProgram(40))
	depth := func(e *Engine, req Request) int {
		t.Helper()
		info, err := e.Read(context.Background(), req, func(Binding) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		return info.Stats.MaxDepth
	}
	deepReq := Request{Kind: ReadAskUnder, Query: "a1", Add: []string{"b1"}}
	shallowReq := Request{Kind: ReadAsk, Query: "a39"}
	for _, mode := range readModes[1:] {
		e, err := New(prog, Options{Mode: mode.Mode})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(prog, Options{Mode: mode.Mode})
		if err != nil {
			t.Fatal(err)
		}
		want := depth(fresh, shallowReq)
		deep := depth(e, deepReq)
		if deep <= want {
			t.Fatalf("%s: a1 under b1 reached depth %d, a39 %d: the chain is not deeper", mode.name, deep, want)
		}
		if got := depth(e, shallowReq); got != want {
			t.Errorf("%s: a39 after a1 under b1 reports depth %d; on a fresh engine %d", mode.name, got, want)
		}
		if got := e.Stats().MaxDepth; got != deep {
			t.Errorf("%s: Engine.Stats().MaxDepth = %d, want the lifetime maximum %d", mode.name, got, deep)
		}
	}
}
