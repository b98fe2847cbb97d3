package hypo_test

// Every case of every experiment of DESIGN.md §4 as a real testing.B
// benchmark: `go test -bench 'E/E8'` runs one experiment, `-bench
// 'E/E8/clique'` some of its cases. The cases are defined once, in
// internal/bench; cmd/hdlbench measures the same ones into BENCH_core.json
// and internal/bench's test gates their counters.

import (
	"testing"

	"hypodatalog/internal/bench"
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
