package bench

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	hypo "hypodatalog"
	"hypodatalog/internal/workload"
)

// baseline is the committed result file, written by
// `go run ./cmd/hdlbench -json BENCH_core.json` at DefaultSizes.
const baseline = "../../BENCH_core.json"

// TestAllExperimentsSmoke is the gate: it runs every smoke-size case
// once — each case checks its own answer — and holds its work counters
// to the committed baseline exactly. Time is not compared; work is. A
// change that moves a counter either has a bug or has to say so by
// regenerating the baseline in the same commit.
func TestAllExperimentsSmoke(t *testing.T) {
	data, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	var committed []Result
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatalf("%s: %v", baseline, err)
	}
	want := map[string]Counters{}
	for _, r := range committed {
		want[r.Experiment+"/"+r.Case] = r.Counters
	}
	for _, ex := range All() {
		t.Run(ex.ID, func(t *testing.T) {
			cases, err := ex.Cases(SmokeSizes())
			if err != nil {
				t.Fatal(err)
			}
			if len(cases) == 0 {
				t.Fatal("no cases")
			}
			for _, c := range cases {
				key := ex.ID + "/" + c.Name
				got, err := c.Run()
				if err != nil {
					t.Errorf("%s: %v", key, err)
				} else if w, ok := want[key]; !ok {
					t.Errorf("%s: not in %s (SmokeSizes must stay a subset of DefaultSizes; regenerate with `go run ./cmd/hdlbench -json BENCH_core.json`)", key, baseline)
				} else if err := w.Diff(got); err != nil {
					t.Errorf("%s: %v in %s", key, err, baseline)
				}
			}
		})
	}
}

// TestMeasure: a steady case yields a typed result, and a case whose
// counters drift between iterations is refused by name.
func TestMeasure(t *testing.T) {
	if err := flag.Set("test.benchtime", "2ms"); err != nil {
		t.Fatal(err)
	}
	r, err := Measure("EX", Case{Name: "steady", Run: func() (Counters, error) {
		return Counters{"goals": int64(len(make([]byte, 100)))}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Experiment != "EX" || r.Case != "steady" || r.NsPerOp <= 0 || r.Counters["goals"] != 100 {
		t.Errorf("result = %+v", r)
	}

	calls := int64(0)
	_, err = Measure("EX", Case{Name: "drifting", Run: func() (Counters, error) {
		calls++
		return Counters{"goals": calls}, nil
	}})
	if err == nil || !strings.Contains(err.Error(), `EX/drifting: counter "goals" = 2, want 1`) {
		t.Errorf("drifting counters: err = %v", err)
	}

	boom := errors.New("boom")
	if _, err := Measure("EX", Case{Name: "failing", Run: func() (Counters, error) { return nil, boom }}); !errors.Is(err, boom) {
		t.Errorf("failing case: err = %v, want boom", err)
	}
}

func TestTableRendering(t *testing.T) {
	out := Table(Experiment{ID: "E0", Name: "(demo): two cases"}, []Result{
		{Case: "n=1", NsPerOp: 1500, BytesPerOp: 64, AllocsPerOp: 2, Counters: Counters{"goals": 4}},
		{Case: "n=22", NsPerOp: 2.5e6, Counters: Counters{"goals": 46, "aborted": 1}, Values: map[string]float64{"read_p50_us": 12.25}},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "== E0 (demo): two cases ==") {
		t.Errorf("title line = %q", lines[0])
	}
	if want := "case  time/op  B/op  allocs/op  aborted  goals  read_p50_us"; lines[1] != want {
		t.Errorf("header = %q, want %q", lines[1], want)
	}
	if want := "n=1   1.5µs    64    2          -        4      -"; strings.TrimRight(lines[3], " ") != want {
		t.Errorf("row = %q, want %q", lines[3], want)
	}
	// All lines align to the header width (in runes: µ is one column).
	for _, l := range lines[2:] {
		if len([]rune(l)) != len([]rune(lines[1])) {
			t.Errorf("misaligned:\n%s", out)
		}
	}
}

// TestChainStateBytes pins what interning hypothetical states bought, in
// bytes. A state's identity is a 4-byte id in the interner's state table,
// so (1) E1 at n = 512 — 512 states, each one atom larger than the last —
// allocates at most 0.6 of the 2,304,649 B/op the string-keyed tables
// needed (goals still 2n + 2), and (2) on a warm engine a memo entry costs
// tens of bytes however deep its state is: the live heap grows by under
// 160 B per entry over 200 distinct depth-256 chains (41 B measured; the
// string-keyed parent: 364 B, ≈ 131 KB of keys per chain).
func TestChainStateBytes(t *testing.T) {
	const n, keyedBytes = 512, 2304649
	cases, err := e1HypChain(Sizes{Chain: []int{n}})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := cases[0].Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got["goals"] != 2*n+2 {
		t.Errorf("E1 n=%d took %d goals, want %d", n, got["goals"], 2*n+2)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > keyedBytes*6/10 {
		t.Errorf("E1 n=%d allocated %d B, want at most 0.6 × %d", n, b, keyedBytes)
	}

	// Each tag opens a branch of 256 states no other ask stands in.
	const depth, warm, asks = 256, 50, 200
	prog, err := hypo.Parse(workload.TaggedChainProgram(depth, warm+asks))
	if err != nil {
		t.Fatal(err)
	}
	e, err := hypo.New(prog, uniform)
	if err != nil {
		t.Fatal(err)
	}
	chains := func(from, to int) {
		for i := from; i < to; i++ {
			if ok, err := e.AskUnder("a1", fmt.Sprintf("note(t%d)", i)); err != nil || !ok {
				t.Fatalf("a1 under note(t%d) = %v, %v; want true", i, ok, err)
			}
		}
	}
	live := func() (heap uint64, entries int) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc, e.Stats().TableSize
	}
	chains(0, warm)
	heap0, entries0 := live()
	chains(warm, warm+asks)
	heap1, entries1 := live()
	added := entries1 - entries0
	if added < asks*2*depth {
		t.Fatalf("%d chains added %d memo entries, want at least %d", asks, added, asks*2*depth)
	}
	if per := float64(heap1-heap0) / float64(added); per > 160 {
		t.Errorf("live heap grew %.0f B per memo entry over %d entries, want under 160", per, added)
	} else {
		t.Logf("live heap grew %.0f B per memo entry over %d entries", per, added)
	}
	runtime.KeepAlive(e)
}

// TestCompare: shared cases give per-experiment median ratios, cases on
// one side only are counted and otherwise ignored, and a shared case
// whose work counters moved is reported by name.
func TestCompare(t *testing.T) {
	old := []Result{
		{Experiment: "E1", Case: "n=1", NsPerOp: 100, BytesPerOp: 10, AllocsPerOp: 0, Counters: Counters{"goals": 4}},
		{Experiment: "E1", Case: "n=2", NsPerOp: 200, BytesPerOp: 20, AllocsPerOp: 2, Counters: Counters{"goals": 6}},
		{Experiment: "E1", Case: "n=3", NsPerOp: 400, BytesPerOp: 40, AllocsPerOp: 4, Counters: Counters{"goals": 8}},
		{Experiment: "E2", Case: "gone", NsPerOp: 1, Counters: Counters{"goals": 1}},
	}
	cur := []Result{
		{Experiment: "E1", Case: "n=1", NsPerOp: 50, BytesPerOp: 10, AllocsPerOp: 0, Counters: Counters{"goals": 4}},
		{Experiment: "E1", Case: "n=2", NsPerOp: 150, BytesPerOp: 10, AllocsPerOp: 1, Counters: Counters{"goals": 6}},
		{Experiment: "E1", Case: "n=3", NsPerOp: 400, BytesPerOp: 40, AllocsPerOp: 4, Counters: Counters{"goals": 8}},
		{Experiment: "E3", Case: "new", NsPerOp: 1, Counters: Counters{"goals": 1}},
	}
	table, diffs := Compare(old, cur)
	if len(diffs) != 0 {
		t.Fatalf("identical counters reported as diffs: %v", diffs)
	}
	for _, want := range []string{
		"3 shared cases, 1 only in this run, 1 only in the baseline",
		"E1         3    1.00       1.00",
		"work counters: identical in all 3 shared cases",
	} {
		if !strings.Contains(table, want) {
			t.Errorf("table lacks %q:\n%s", want, table)
		}
	}
	if strings.Contains(table, "E2") || strings.Contains(table, "E3") {
		t.Errorf("unshared experiments in the table:\n%s", table)
	}
	if strings.Contains(table, "ns/op") {
		t.Errorf("the table prints a one-run ns/op ratio:\n%s", table)
	}

	cur[1].Counters = Counters{"goals": 7}
	if _, diffs := Compare(old, cur); len(diffs) != 1 || !strings.Contains(diffs[0].Error(), `E1/n=2: counter "goals" = 7, want 6`) {
		t.Fatalf("moved counter: diffs = %v", diffs)
	}
}

// TestParityProveGoals pins E3's uniform cost exactly: proving the true
// parity of n items takes n² + 5n + 2 goals, the auxiliary goal that
// even's base rule negates (DESIGN §3, "Negation") included.
func TestParityProveGoals(t *testing.T) {
	for n := 2; n <= 12; n++ {
		cases, err := e3Parity(Sizes{Parity: []int{n}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := cases[0].Run() // prove/n=n
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(n*n + 5*n + 2); got["goals"] != want {
			t.Errorf("E3 prove/n=%d took %d goals, want n² + 5n + 2 = %d", n, got["goals"], want)
		}
	}
}

// TestCountersDiffNamesEveryMove: a diff names every counter that moved,
// in name order, including one that only one side has — not just the
// first.
func TestCountersDiffNamesEveryMove(t *testing.T) {
	want := Counters{"goals": 10, "table_hits": 4, "enumerated": 2, "gone": 1}
	got := Counters{"goals": 12, "table_hits": 4, "enumerated": 3, "new": 5}
	err := want.Diff(got)
	if err == nil {
		t.Fatal("no diff")
	}
	const msg = `counter "enumerated" = 3, want 2; counter "goals" = 12, want 10; ` +
		`counter "gone" = -, want 1; counter "new" = 5, want -`
	if err.Error() != msg {
		t.Errorf("diff = %q\nwant %q", err, msg)
	}
	if err := want.Diff(want); err != nil {
		t.Errorf("a counter set differs from itself: %v", err)
	}
}
