// Command hdlbench measures the experiment suite of DESIGN.md §4 with
// testing.Benchmark and prints one result table per experiment — the rows
// recorded in EXPERIMENTS.md.
//
// Usage:
//
//	hdlbench [-run E1,E7] [-smoke] [-json BENCH_core.json] [-compare old.json]
//
// With -json the typed results (ns/op, B/op, allocs/op and the work
// counters of every case) are also written to the given file. The
// committed BENCH_core.json is a full default-size run; internal/bench's
// test holds every smoke case's counters to it exactly.
//
// With -compare the run is also held against an earlier results file:
// hdlbench prints each experiment's median new/old ratios of B and allocs
// per op over the cases both share, and exits non-zero if any work
// counter of a shared case differs. So
//
//	hdlbench -json new.json -compare BENCH_core.json
//
// is the check that a change moved memory but not work. It prints no
// ns/op ratio: one run of each side swings too far on a shared host to
// read, so timing needs repeated, interleaved runs (medians and quartiles
// per case); -json still records every case's ns/op for them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"hypodatalog/internal/bench"
)

func main() {
	// A private flag set: testing.Init below registers the test.* flags on
	// the process-wide one, and they are no part of this command's surface.
	fs := flag.NewFlagSet("hdlbench", flag.ExitOnError)
	runList := fs.String("run", "", "comma-separated experiment ids (default: all)")
	smoke := fs.Bool("smoke", false, "use the small sweep sizes the tests run")
	jsonOut := fs.String("json", "", "also write the typed results to this file as JSON")
	compare := fs.String("compare", "", "hold the results to an earlier -json file: median B and allocs ratios, and exit 1 if a shared case's work counters differ")
	_ = fs.Parse(os.Args[1:]) // ExitOnError

	// testing.Benchmark reads -test.benchtime. A tenth of a second is
	// thousands of iterations of the µs-scale cases and keeps the full run
	// (some 350 cases) inside four minutes; slower cases run once.
	testing.Init()
	if err := flag.Set("test.benchtime", "100ms"); err != nil {
		panic(err)
	}

	sizes := bench.DefaultSizes()
	if *smoke {
		sizes = bench.SmokeSizes()
	}
	want := map[string]bool{}
	if *runList != "" {
		for _, id := range strings.Split(*runList, ",") {
			want[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}
	failed := false
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "hdlbench: "+format+"\n", args...)
		failed = true
	}
	// Read the baseline first: -json may overwrite the file it names.
	var baseline []bench.Result
	if *compare != "" {
		data, err := os.ReadFile(*compare)
		if err == nil {
			err = json.Unmarshal(data, &baseline)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hdlbench: -compare %s: %v\n", *compare, err)
			os.Exit(2)
		}
	}
	results := []bench.Result{}
	for _, ex := range bench.All() {
		if len(want) > 0 && !want[ex.ID] {
			continue
		}
		cases, err := ex.Cases(sizes)
		if err != nil {
			fail("%s: %v", ex.ID, err)
			continue
		}
		from := len(results)
		for _, c := range cases {
			r, err := bench.Measure(ex.ID, c)
			if err != nil {
				fail("%v", err)
				continue
			}
			results = append(results, r)
		}
		fmt.Println(bench.Table(ex, results[from:]))
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fail("writing %s: %v", *jsonOut, err)
		}
	}
	if *compare != "" {
		table, diffs := bench.Compare(baseline, results)
		fmt.Print(table)
		for _, d := range diffs {
			fail("%v (against %s)", d, *compare)
		}
	}
	if failed {
		os.Exit(1)
	}
}
