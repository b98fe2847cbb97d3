package main

import (
	"fmt"
	"os"
	"sort"
)

// repeatSets is the repeatability mode: n untraced sets of all four
// workloads back to back, set i on seed+i, the way the driver judges the
// benchmark (ten runs per workload, each on another seed). Per workload
// and end-to-end metric it prints the median, the quartile spread as a
// share of the median, and whether the spread stays inside the metric's
// bound; the target is a third of the bound.
func repeatSets(cfg runConfig, spec *benchmarkSpec, n int) int {
	cfg.trace = false
	values := map[string]map[string][]float64{} // workload → metric → one value per set
	code := 0
	for i := 0; i < n; i++ {
		c := cfg
		c.seed = cfg.seed + int64(i)
		for _, name := range workloadNames {
			res, err := runWorkload(c, name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "servedbench:", err)
				return 1
			}
			fmt.Printf("set %d seed %d %s: %d ops in %.2f s, %d failed\n", i+1, c.seed, name, res.Attempted, res.WindowS, res.Failed)
			if res.Failed > 0 {
				printResult(res, spec, false)
				code = 1
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for k, m := range res.E2E {
				values[name][k] = append(values[name][k], m.Value)
			}
		}
	}
	fmt.Printf("\n%-15s %-22s %12s %12s %12s %8s %6s  %s\n", "workload", "metric", "min", "median", "max", "spread", "bound", "verdict")
	for _, name := range workloadNames {
		for _, e := range spec.EndToEnd {
			xs := values[name][e.Name]
			spread := quartileSpread(xs)
			verdict := "steady"
			switch {
			case spread > e.Bound:
				verdict = "FAIL: spread exceeds the bound"
				if e.Name != "setup_s" { // the driver exempts setup_s from the spread rule
					code = 1
				}
			case spread > e.Bound/3:
				verdict = "pass (above a third of the bound)"
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			fmt.Printf("%-15s %-22s %12.4f %12.4f %12.4f %8.4f %6.2f  %s\n", name, e.Name, sorted[0], median(sorted), sorted[len(sorted)-1], spread, e.Bound, verdict)
		}
	}
	return code
}
