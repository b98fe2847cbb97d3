package bench

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"strings"
	"testing"
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
