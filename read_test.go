package hypo

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"hypodatalog/internal/metrics"
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
// read, and a balanced metrics window per call.
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

	for _, cacheBytes := range []int64{0, 1 << 20} {
		t.Run(fmt.Sprintf("cache=%v", cacheBytes > 0), func(t *testing.T) {
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
			pl.SetProgram(prog, poolVersion)
			surfaces := append(engineSurfaces(e), poolSurfaces(pl)...)
			ctx := context.Background()

			calls := int64(0)
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
				{"adds off AskUnder", "grad(tony)", []string{"take(mary, eng201)"}, "aq", "takes no outer adds"},
				{"variables under adds", "grad(S)", []string{"take(mary, eng201)"}, "q", "takes no outer adds"},
			}
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
			for name, arity := range map[string]int{"fresh1": 2, "fresh2": 1, "fresh3": 1, "fresh4": 1, "fresh5": 1} {
				if _, ok := prog.syms.LookupPred(name, arity); ok {
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
