package hypo_test

// Every case of every experiment of DESIGN.md §4 as a real testing.B
// benchmark: `go test -bench 'E/E8'` runs one experiment, `-bench
// 'E/E8/clique'` some of its cases. The cases are defined once, in
// internal/bench; cmd/hdlbench measures the same ones into BENCH_core.json
// and internal/bench's test gates their counters. BenchmarkLiveApply
// times one Live commit.

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	hypo "hypodatalog"
	"hypodatalog/internal/bench"
	"hypodatalog/internal/live"
	"hypodatalog/internal/workload"
)

func BenchmarkE(b *testing.B) {
	for _, ex := range bench.All() {
		b.Run(ex.ID, func(b *testing.B) {
			cases, err := ex.Cases(bench.DefaultSizes())
			if err != nil {
				b.Fatal(err)
			}
			for _, c := range cases {
				b.Run(c.Name, func(b *testing.B) {
					b.ReportAllocs()
					var work bench.Counters
					for i := 0; i < b.N; i++ {
						var err error
						if work, err = c.Run(); err != nil {
							b.Fatal(err)
						}
					}
					for name, v := range work {
						b.ReportMetric(float64(v), name)
					}
				})
			}
		})
	}
}

// BenchmarkLiveApply times one in-process commit, without fsync, that
// toggles an edge of a reach program: node/1 over n constants, a spine of
// edges v_i → v_i+1 and chords v_i → v_i+2 up to the fact count. No read
// runs, so no engine catches up: the figure is what a commit itself
// costs, and it should not grow with the facts it leaves alone.
func BenchmarkLiveApply(b *testing.B) {
	for _, facts := range []int{61, 6398} {
		b.Run(fmt.Sprint("facts=", facts), func(b *testing.B) {
			n := (facts + 1) / 2
			var src strings.Builder
			src.WriteString("reach(X, Y) :- edge(X, Y).\nreach(X, Y) :- edge(X, Z), reach(Z, Y).\n")
			for i := 0; i < n; i++ {
				fmt.Fprintf(&src, "node(v%d).\n", i)
			}
			for i := 0; n+i < facts; i++ {
				if i+1 < n {
					fmt.Fprintf(&src, "edge(v%d, v%d).\n", i, i+1)
				} else {
					fmt.Fprintf(&src, "edge(v%d, v%d).\n", i-n+1, i-n+3)
				}
			}
			p, err := hypo.Parse(src.String())
			if err != nil {
				b.Fatal(err)
			}
			l, err := hypo.OpenLive(p, hypo.LiveConfig{WALPath: filepath.Join(b.TempDir(), "wal.log"), NoSync: true}, hypo.Options{PoolSize: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			toggle := fmt.Sprintf("edge(v0, v%d)", n-1)
			assert, err := hypo.ParseMutations([]string{toggle}, nil)
			if err != nil {
				b.Fatal(err)
			}
			retract, err := hypo.ParseMutations(nil, []string{toggle})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ms := assert
				if i%2 == 1 {
					ms = retract
				}
				if _, err := l.Apply(ms); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCatchUp times a commit together with what it costs the read
// after it. The shape is churn_mixed's: a right-linear reach program over
// a 32-node spine with 12 of 24 chords present, served by a live pool of
// one engine. One op is one Live.Apply toggling a chord, then one ground
// reach ask at the new version, which the engine answers after applying
// the commit to its derived state. add asserts an absent chord, retract
// retracts a present one; the commit that restores it, and its read, run
// with the timer stopped.
func BenchmarkCatchUp(b *testing.B) {
	g, chords := workload.SpineChords(rand.New(rand.NewSource(1)), 32, 24)
	g.Edges = append(g.Edges, chords[:12]...)
	p, err := hypo.Parse(workload.ClosureProgram(g, workload.RightLinear))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		chord  [2]int
		assert bool
	}{{"add", chords[12], true}, {"retract", chords[0], false}} {
		b.Run(bc.name, func(b *testing.B) {
			l, err := hypo.OpenLive(p, hypo.LiveConfig{WALPath: filepath.Join(b.TempDir(), "wal.log"), NoSync: true}, hypo.Options{PoolSize: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			atom := []string{fmt.Sprintf("edge(n%d, n%d)", bc.chord[0], bc.chord[1])}
			do, err := hypo.ParseMutations(atom, nil)
			if err != nil {
				b.Fatal(err)
			}
			undo, err := hypo.ParseMutations(nil, atom)
			if err != nil {
				b.Fatal(err)
			}
			if !bc.assert {
				do, undo = undo, do
			}
			read := hypo.Request{Kind: hypo.ReadAsk, Query: "reach(n0, n31)"}
			ask := func(version uint64) {
				info, err := l.Pool().Read(context.Background(), read, func(hypo.Binding) error { return nil })
				if err != nil || info.DataVersion != version {
					b.Fatalf("read at version %d: %v (want %d)", info.DataVersion, err, version)
				}
			}
			commit := func(ms []live.Mutation) {
				ci, err := l.Apply(ms)
				if err != nil {
					b.Fatal(err)
				}
				ask(ci.Version)
			}
			ask(l.Version())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				commit(do)
				b.StopTimer()
				commit(undo)
				b.StartTimer()
			}
		})
	}
}

// BenchmarkReadWarmAskUnder is one warm ground askunder with two adds,
// a3 under b2 and b1 on ChainProgram(64), read from a pool of one engine
// without an answer cache. The engine's memo answers it, so the figure
// is what a read costs around its evaluation: compile, lease, measure.
func BenchmarkReadWarmAskUnder(b *testing.B) { benchWarmRead(b, 0, hypo.CacheBypass) }

// BenchmarkReadCacheHit is BenchmarkReadWarmAskUnder's read served from
// the answer cache: no engine is leased, so compile and lookup are all.
func BenchmarkReadCacheHit(b *testing.B) { benchWarmRead(b, 1<<20, hypo.CacheHit) }

func benchWarmRead(b *testing.B, cacheBytes int64, want hypo.CacheStatus) {
	p, err := hypo.Parse(workload.ChainProgram(64))
	if err != nil {
		b.Fatal(err)
	}
	pl, err := hypo.NewPool(p, hypo.Options{PoolSize: 1, CacheBytes: cacheBytes})
	if err != nil {
		b.Fatal(err)
	}
	defer pl.Close()
	ctx := context.Background()
	req := hypo.Request{Kind: hypo.ReadAskUnder, Query: "a3", Add: []string{"b2", "b1"}}
	var ok bool
	yield := func(hypo.Binding) error {
		ok = true
		return nil
	}
	if _, err := pl.Read(ctx, req, yield); err != nil || !ok {
		b.Fatalf("warm-up read: %v, %v", ok, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok = false
		info, err := pl.Read(ctx, req, yield)
		if err != nil || !ok || info.Cache != want {
			b.Fatalf("read = %v, %v (cache %v, want %v)", ok, err, info.Cache, want)
		}
	}
}
