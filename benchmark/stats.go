package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported number. N is the sample count behind a
// percentile or median (0 for counters and ratios).
type metric struct {
	Value float64
	Unit  string
	N     int
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs, or 0 for an empty sample. It sorts xs in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// p50 and p99 wrap a latency sample as metrics. A p99 of fewer than 1000
// samples (ten beyond it) is still a number (the contract wants every metric on
// every run) but its N shows it is not to be trusted.
func p50(xs []float64, unit string) metric {
	return metric{Value: median(xs), Unit: unit, N: len(xs)}
}

func p99(xs []float64, unit string) metric {
	return metric{Value: percentile(xs, 99), Unit: unit, N: len(xs)}
}

// quartileSpread is the distance between the first and third quartile
// of xs as a share of their median — the steadiness measure the driver
// applies to ten seeds (Python's statistics.quantiles(xs, n=4), the
// default "exclusive" method).
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
