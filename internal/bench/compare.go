package bench

import (
	"fmt"
	"slices"
	"strings"
)

// Compare holds one run's results against an earlier run's (a committed
// BENCH_core.json) case by case. It returns a table of each experiment's
// median new/old ratios of bytes and allocations per op over the cases
// both runs share, and one error line for every shared case whose work
// counters differ: time may move between runs, work may not. It prints no
// ns/op ratio: one run of each side on a shared host swings far past any
// change worth measuring, so timing needs repeated, interleaved runs.
func Compare(old, cur []Result) (table string, diffs []error) {
	before := map[string]Result{}
	for _, r := range old {
		before[r.Experiment+"/"+r.Case] = r
	}
	type ratios struct{ bytes, allocs []float64 }
	byExp := map[string]*ratios{}
	var order []string
	shared := 0
	for _, r := range cur {
		o, ok := before[r.Experiment+"/"+r.Case]
		if !ok {
			continue
		}
		shared++
		if err := o.Counters.Diff(r.Counters); err != nil {
			diffs = append(diffs, fmt.Errorf("%s/%s: %v", r.Experiment, r.Case, err))
		}
		x := byExp[r.Experiment]
		if x == nil {
			x = &ratios{}
			byExp[r.Experiment] = x
			order = append(order, r.Experiment)
		}
		x.bytes = appendRatio(x.bytes, float64(r.BytesPerOp), float64(o.BytesPerOp))
		x.allocs = appendRatio(x.allocs, float64(r.AllocsPerOp), float64(o.AllocsPerOp))
	}

	var b strings.Builder
	fmt.Fprintf(&b, "== compare: %d shared cases, %d only in this run, %d only in the baseline; median new/old ==\n",
		shared, len(cur)-shared, len(old)-shared)
	fmt.Fprintf(&b, "%-5s  %5s  %6s  %9s\n", "exp", "cases", "B/op", "allocs/op")
	for _, id := range order {
		x := byExp[id]
		fmt.Fprintf(&b, "%-5s  %5d  %6s  %9s\n", id, len(x.allocs), median(x.bytes), median(x.allocs))
	}
	if len(diffs) == 0 {
		fmt.Fprintf(&b, "work counters: identical in all %d shared cases\n", shared)
	} else {
		fmt.Fprintf(&b, "work counters: %d of %d shared cases differ\n", len(diffs), shared)
	}
	return b.String(), diffs
}

// appendRatio appends cur/old; a zero old value has no ratio unless cur
// is zero too (nothing allocated before or after: 1).
func appendRatio(rs []float64, cur, old float64) []float64 {
	switch {
	case old > 0:
		return append(rs, cur/old)
	case cur == 0:
		return append(rs, 1)
	}
	return rs
}

// median formats the median of rs to two places, "-" for none.
func median(rs []float64) string {
	if len(rs) == 0 {
		return "-"
	}
	s := slices.Clone(rs)
	slices.Sort(s)
	m := s[len(s)/2]
	if len(s)%2 == 0 {
		m = (s[len(s)/2-1] + m) / 2
	}
	return fmt.Sprintf("%.2f", m)
}
