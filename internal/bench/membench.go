package bench

// E20: memory governance — what a per-query byte budget costs and what
// it buys. The budget's value proposition is the refusal speedup: an
// over-budget query is turned away after growing ~budget bytes instead
// of the full closure, so the latency of saying no must be well under
// the latency of paying up. The cheap-query column is the other half of
// the contract: work that fits the budget is not taxed by the guard.

import (
	"errors"
	"fmt"
	"time"

	hypo "hypodatalog"
	"hypodatalog/internal/workload"
)

// e20Budget is the per-query growth ceiling under test. It sits far
// under the full transitive closure of every sweep point but leaves
// room for queries touching a single source node.
const e20Budget = 8 << 10

// e20MemGovern prices Options.MaxMemoryBytes on a chain closure — reach/2
// has O(n²) answers, so the full closure is the expensive thing a budget
// refuses: the query is evaluated to completion on an unbudgeted pool,
// then refused by a budgeted one, on fresh pools each repetition so warm
// memo state never lets a retry finish what the budget refused. Cheap
// queries run on the budgeted pool AFTER its aborts — the same engines —
// so that value doubles as the unpoisoned-engine check.
func e20MemGovern(s Sizes) ([]Case, error) {
	const reps = 3
	var cases []Case
	for _, n := range s.MemN {
		prog, err := hypo.Parse(workload.ClosureProgram(workload.Chain(n), workload.RightLinear))
		if err != nil {
			return nil, err
		}
		c := Case{Name: fmt.Sprintf("n=%d", n), Values: map[string]float64{}}
		c.Run = func() (Counters, error) {
			var full, abort time.Duration
			var cheap []time.Duration
			for rep := 0; rep < reps; rep++ {
				// Unbudgeted: pay for the whole closure.
				pl, err := hypo.NewPool(prog, hypo.Options{PoolSize: 1})
				if err != nil {
					return nil, err
				}
				start := time.Now()
				closure, err := poolAnswers(pl, "reach(X, Y)")
				d := time.Since(start)
				pl.Close()
				if err != nil {
					return nil, fmt.Errorf("E20: unbudgeted closure: %w", err)
				}
				if want := n * (n + 1) / 2; closure != want {
					return nil, fmt.Errorf("E20: closure size %d, want %d", closure, want)
				}
				if rep == 0 || d < full {
					full = d
				}

				// Budgeted: the same query must be refused, fast.
				bpl, err := hypo.NewPool(prog, hypo.Options{PoolSize: 1, MaxMemoryBytes: e20Budget})
				if err != nil {
					return nil, err
				}
				start = time.Now()
				_, err = poolAnswers(bpl, "reach(X, Y)")
				d = time.Since(start)
				if !errors.Is(err, hypo.ErrMemory) {
					bpl.Close()
					return nil, fmt.Errorf("E20: budgeted closure at n=%d = %v, want ErrMemory", n, err)
				}
				if rep == 0 || d < abort {
					abort = d
				}
				// The refused pool still serves queries that fit.
				for i := 0; i < 8; i++ {
					start = time.Now()
					answers, err := poolAnswers(bpl, "edge(n0, Y)")
					cheap = append(cheap, time.Since(start))
					if err != nil || answers != 1 {
						bpl.Close()
						return nil, fmt.Errorf("E20: cheap query after abort = %d answers, %v", answers, err)
					}
				}
				bpl.Close()
			}
			c.Values["full_eval_us"] = us(full)
			c.Values["abort_us"] = us(abort)
			c.Values["cheap_p50_us"] = p50us(cheap)
			return Counters{"closure": int64(n * (n + 1) / 2)}, nil
		}
		cases = append(cases, c)
	}
	return cases, nil
}
