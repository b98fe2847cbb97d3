package bench

// E18: replica read latency and read-your-writes wait latency.

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	hypo "hypodatalog"
	"hypodatalog/internal/repl"
	"hypodatalog/internal/workload"
)

// e18Node opens one hypo.Live over a fresh temp dir, returning a
// cleanup.
func e18Node(prog *hypo.Program, poolSize int) (*hypo.Live, func(), error) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	dir, err := os.MkdirTemp("", "hdl-e18-")
	if err != nil {
		return nil, nil, err
	}
	lv, err := hypo.OpenLive(prog, hypo.LiveConfig{
		WALPath: filepath.Join(dir, "wal.log"),
		NoSync:  true,
		Logger:  quiet,
	}, hypo.Options{PoolSize: poolSize})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return lv, func() { lv.Close(); os.RemoveAll(dir) }, nil
}

// e18Replication prices WAL-shipping read replicas, one scenario per
// replica count: warm closure reads on each replica (each runs its own
// engine pool), then the read-your-writes cost — after each primary
// commit, how long a replica read demanding that version
// (X-Hdl-Min-Version) waits for the record to ship and apply.
func e18Replication(s Sizes) ([]Case, error) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))

	// One fixed mid-size graph: E18 sweeps replica count, not data size.
	const n = 24
	w := workload.MixedReachability(rngFor(s, 18), n, 4*n, 0.3)
	prog, err := hypo.Parse(w.Source)
	if err != nil {
		return nil, err
	}
	closure := "reach(X, Y)"
	const readsPerReplica = 60
	const churnCommits = 15

	var cases []Case
	for _, replicas := range s.ReplN {
		c := Case{Name: fmt.Sprintf("replicas=%d", replicas), Values: map[string]float64{}}
		c.Run = func() (Counters, error) {
			primary, cleanup, err := e18Node(prog, 2)
			if err != nil {
				return nil, err
			}
			defer cleanup()

			mux := http.NewServeMux()
			repl.NewPrimary(repl.PrimaryConfig{
				Source:    primary.Store(),
				RulesHash: prog.RulesHash(),
				Heartbeat: 100 * time.Millisecond,
				Logger:    quiet,
			}).Mount(mux)
			srv := httptest.NewServer(mux)
			defer srv.Close()

			nodes := make([]*hypo.Live, replicas)
			for i := range nodes {
				lv, cleanup, err := e18Node(prog, 2)
				if err != nil {
					return nil, err
				}
				defer cleanup()
				nodes[i] = lv
				rep, err := repl.Start(repl.ReplicaConfig{
					Primary:    srv.URL,
					Target:     lv,
					RulesHash:  prog.RulesHash(),
					BackoffMin: 5 * time.Millisecond,
					Logger:     quiet,
				})
				if err != nil {
					return nil, err
				}
				defer rep.Close()
			}
			waitAll := func(v uint64) error {
				deadline := time.Now().Add(30 * time.Second)
				for _, lv := range nodes {
					ctx, cancel := context.WithDeadline(context.Background(), deadline)
					err := lv.WaitVersion(ctx, v)
					cancel()
					if err != nil {
						return fmt.Errorf("E18: replica stuck at %d waiting for %d", lv.Version(), v)
					}
				}
				return nil
			}
			if err := waitAll(primary.Version()); err != nil {
				return nil, err
			}

			// Warm each replica's memo tables once so the read phase measures
			// steady-state reads, not first-touch compilation.
			for _, lv := range nodes {
				if _, err := poolAnswers(lv.Pool(), closure); err != nil {
					return nil, err
				}
			}
			var reads []time.Duration
			for _, lv := range nodes {
				for r := 0; r < readsPerReplica; r++ {
					rs := time.Now()
					if _, err := poolAnswers(lv.Pool(), closure); err != nil {
						return nil, err
					}
					reads = append(reads, time.Since(rs))
				}
			}

			// Churn phase: commit on the primary, then immediately demand the
			// new version on a replica — the X-Hdl-Min-Version server gate is
			// Live.WaitVersion, measured here without the HTTP overhead.
			var waits []time.Duration
			for _, op := range w.Ops {
				if op.Query != "" {
					continue
				}
				ms, err := hypo.ParseMutations(op.Assert, op.Retract)
				if err != nil {
					return nil, err
				}
				info, err := primary.Apply(ms)
				if err != nil {
					return nil, err
				}
				lv := nodes[len(waits)%replicas]
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				ws := time.Now()
				err = lv.WaitVersion(ctx, info.Version)
				cancel()
				if err != nil {
					return nil, fmt.Errorf("E18: min-version wait for %d timed out at replica version %d", info.Version, lv.Version())
				}
				if waits = append(waits, time.Since(ws)); len(waits) >= churnCommits {
					break
				}
			}
			if len(waits) == 0 {
				return nil, fmt.Errorf("E18: workload produced no commits")
			}
			if err := waitAll(primary.Version()); err != nil {
				return nil, err
			}
			c.Values["node_read_p50_us"] = p50us(reads)
			c.Values["min_version_wait_p50_us"] = p50us(waits)
			return Counters{"reads": int64(len(reads)), "final_version": int64(primary.Version())}, nil
		}
		cases = append(cases, c)
	}
	return cases, nil
}

// us is a latency in microseconds, the unit of every E18-E20 value.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// p50us is the median of the given latencies, in microseconds.
func p50us(ds []time.Duration) float64 {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return us(ds[len(ds)/2])
}
