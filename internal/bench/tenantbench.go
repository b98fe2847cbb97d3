package bench

// E19: multi-tenant registry — per-tenant read latency as the number of
// co-resident programs grows.

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sort"
	"time"

	hypo "hypodatalog"
	"hypodatalog/internal/tenant"
	"hypodatalog/internal/workload"
)

// e19MultiTenant prices the program registry: K tenants, each with its
// own reachability graph, WAL, engine pool, and admission gate, served
// by one process. Traffic is a mixed read/write stream, round-robin
// interleaved across tenants so every read lands on a tenant whose
// neighbours just ran queries and commits of their own. The isolation
// claim is read off across the cases: the worst tenant's tail latency
// must not grow with K, because tenants share nothing but the process.
func e19MultiTenant(s Sizes) ([]Case, error) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))

	// Every tenant runs the identical graph and op stream: with the
	// workload held fixed, any growth in the worst tenant's p99 as K
	// rises is interference, not a harder-graph tenant skewing the tail.
	const n = 16
	w := workload.MixedReachability(rngFor(s, 19), n, 24*n, 0.3)

	var cases []Case
	for _, k := range s.TenantK {
		c := Case{Name: fmt.Sprintf("tenants=%d", k), Values: map[string]float64{}}
		c.Run = func() (Counters, error) {
			dir, err := os.MkdirTemp("", "hdl-e19-")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			reg, err := tenant.Open(tenant.Config{
				Dir:        dir,
				Options:    hypo.Options{PoolSize: 2},
				LiveConfig: hypo.LiveConfig{NoSync: true},
				Logger:     quiet,
			})
			if err != nil {
				return nil, err
			}
			defer reg.Close()

			tenants := make([]*tenant.Tenant, k)
			reads := make([][]time.Duration, k)
			for i := range tenants {
				tn, _, err := reg.Create(fmt.Sprintf("t%d", i), w.Source)
				if err != nil {
					return nil, err
				}
				// Warm the memo tables so the measured phase sees
				// steady-state reads, not first-touch compilation.
				if _, err := poolAnswers(tn.Pool(), "reach(X, Y)"); err != nil {
					return nil, err
				}
				tenants[i] = tn
			}

			commits := 0
			for _, o := range w.Ops {
				for i, tn := range tenants {
					release, err := tn.Admit(context.Background())
					if err != nil {
						return nil, err
					}
					if o.Query != "" {
						start := time.Now()
						_, err = poolAnswers(tn.Pool(), o.Query)
						reads[i] = append(reads[i], time.Since(start))
					} else if ms, perr := hypo.ParseMutations(o.Assert, o.Retract); perr != nil {
						err = perr
					} else if _, err = tn.Live().Apply(ms); err == nil {
						commits++
					}
					release()
					if err != nil {
						return nil, err
					}
				}
			}

			var all []time.Duration
			var worst time.Duration
			for _, rs := range reads {
				sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
				if p99 := rs[len(rs)*99/100]; p99 > worst {
					worst = p99
				}
				all = append(all, rs...)
			}
			c.Values["read_p50_us"] = p50us(all)
			c.Values["worst_tenant_read_p99_us"] = us(worst)
			return Counters{"reads": int64(len(all)), "commits": int64(commits)}, nil
		}
		cases = append(cases, c)
	}
	return cases, nil
}
