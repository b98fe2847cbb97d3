// Package bench is the experiment harness. Every experiment of DESIGN.md
// §4 (E1-E15, the per-claim paper experiments, E18-E20, serving-layer
// scenarios, and E21, commit maintenance) is written once, as data: an
// Experiment whose Cases are cold operations that check their own answers
// and report deterministic work counters. Three consumers share those cases: Measure (cmd/hdlbench,
// which writes the committed BENCH_core.json), the testing.B loop in
// bench_test.go at the repository root, and this package's test, which
// holds every smoke-size case's counters to BENCH_core.json exactly.
package bench

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// Counters are the deterministic work counts of one operation — goals,
// table hits, materialisations, and so on. They must repeat exactly from
// run to run: the paper's claims are counting claims, and exact counts
// are what a test can gate on where wall-clock time cannot.
type Counters map[string]int64

// Diff reports every counter, in name order, that differs between c and
// got ("-" is a counter one side lacks), or nil when the two agree
// exactly.
func (c Counters) Diff(got Counters) error {
	names := map[string]bool{}
	for k := range c {
		names[k] = true
	}
	for k := range got {
		names[k] = true
	}
	var moved []string
	for _, k := range sortedNames(names) {
		w, wok := c[k]
		g, gok := got[k]
		if wok != gok || w != g {
			moved = append(moved, fmt.Sprintf("counter %q = %s, want %s", k, cell(fmt.Sprint(g), gok), cell(fmt.Sprint(w), wok)))
		}
	}
	if moved == nil {
		return nil
	}
	return errors.New(strings.Join(moved, "; "))
}

// Case is one measurable cell of an experiment. Run is one cold
// operation: it builds whatever must be fresh (an engine, a pool), does
// the work, checks the answer and returns the work counters. Everything
// that can be shared between runs — the workload, the compiled program —
// is built once, by Experiment.Cases.
type Case struct {
	Name string
	Run  func() (Counters, error)

	// Values is filled by Run with the latencies a scenario takes of its
	// own inner operations, in the unit its name ends in (E18-E20 only).
	// Being wall-clock, they are recorded but never compared.
	Values map[string]float64
}

// Experiment is one claim's worth of cases.
type Experiment struct {
	ID    string // "E1"
	Name  string // the claim and what is swept; "ID Name" titles the table
	Note  string // what a reader needs to know to read the cells
	Cases func(Sizes) ([]Case, error)
}

// Result is one measured case: the typed row of BENCH_core.json.
type Result struct {
	Experiment  string             `json:"experiment"`
	Case        string             `json:"case"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Counters    Counters           `json:"counters"`
	Values      map[string]float64 `json:"values,omitempty"`
}

// Measure times a case with testing.Benchmark — its iteration scaling,
// its allocation accounting — and fails if any two iterations disagree on
// a counter: a counter that does not repeat is not one.
func Measure(id string, c Case) (Result, error) {
	var first Counters
	var err error
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var got Counters
			if got, err = c.Run(); err == nil && first != nil {
				err = first.Diff(got)
			}
			if err != nil {
				b.FailNow()
			}
			first = got
		}
	})
	if err != nil {
		return Result{}, fmt.Errorf("%s/%s: %w", id, c.Name, err)
	}
	return Result{
		Experiment:  id,
		Case:        c.Name,
		NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
		BytesPerOp:  br.AllocedBytesPerOp(),
		AllocsPerOp: br.AllocsPerOp(),
		Counters:    first,
		Values:      c.Values,
	}, nil
}

// Table renders an experiment's results as fixed-width text: one row per
// case, the three testing.Benchmark columns, then one column per counter
// and per value (in name order; "-" where a case does not report it).
// Durations become text here and nowhere earlier.
func Table(ex Experiment, rs []Result) string {
	counters, values := map[string]bool{}, map[string]bool{}
	for _, r := range rs {
		for k := range r.Counters {
			counters[k] = true
		}
		for k := range r.Values {
			values[k] = true
		}
	}
	cnames, vnames := sortedNames(counters), sortedNames(values)
	rows := [][]string{append(append([]string{"case", "time/op", "B/op", "allocs/op"}, cnames...), vnames...)}
	for _, r := range rs {
		row := []string{r.Case, formatDuration(time.Duration(r.NsPerOp)), fmt.Sprint(r.BytesPerOp), fmt.Sprint(r.AllocsPerOp)}
		for _, k := range cnames {
			v, ok := r.Counters[k]
			row = append(row, cell(fmt.Sprint(v), ok))
		}
		for _, k := range vnames {
			v, ok := r.Values[k]
			row = append(row, cell(fmt.Sprintf("%.1f", v), ok))
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, c := range row {
			widths[i] = max(widths[i], utf8.RuneCountInString(c))
		}
	}
	sep := make([]string, len(widths))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "== %s %s ==\n", ex.ID, ex.Name)
	if ex.Note != "" {
		fmt.Fprintf(&b, "%s\n", ex.Note)
	}
	line := func(row []string) {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c + strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c)))
		}
		b.WriteByte('\n')
	}
	line(rows[0])
	line(sep)
	for _, row := range rows[1:] {
		line(row)
	}
	return b.String()
}

func sortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func cell(s string, ok bool) string {
	if !ok {
		return "-"
	}
	return s
}

func formatDuration(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
