// Command servedbench measures hypothetical-Datalog serving end to end:
// it builds cmd/hdld, spawns it on a loopback port with shipped defaults,
// replays a seeded, fixed op list per workload over HTTP, checks every
// answer against an oracle that shares no code with the engines, and
// prints every metric of BENCHMARK.json by name with its unit. See
// README.md in this directory.
//
//	servedbench                         all four workloads, untraced then traced
//	servedbench -workload cached_reads  one workload (the BENCHMARK.json contract:
//	                                    -seed -seconds -trace 0|1, result JSON last)
//	servedbench -repeat 5               five sets back to back, spread per metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sort"
	"syscall"
)

func main() { os.Exit(run()) }

func run() int {
	workloadFlag := flag.String("workload", "", "run one workload and end with the result JSON line (default: all four)")
	seed := flag.Int64("seed", 1, "seed of the generated programs and op lists")
	seconds := flag.Float64("seconds", 0, "sizes the op lists: the timed window is about this long on the calibration host (default: BENCHMARK.json's run_seconds)")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, ladder replay and out/trace_<workload>.json")
	repeat := flag.Int("repeat", 0, "run this many untraced sets back to back and report the spread per metric")
	root := flag.String("root", ".", "checkout root (where cmd/hdld and go.mod are)")
	flag.Parse()
	// The load generator keeps every reply until the window closes; with
	// the default GC target it would collect that growing heap a dozen
	// times mid-window, on cores it shares with the daemon it is timing.
	debug.SetGCPercent(800)
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "servedbench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}

	// An interrupted benchmark still stops its daemon, waits for it and
	// removes its run directory.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		_ = active.Load().stop()
		if dir := activeDir.Load(); dir != nil {
			_ = os.RemoveAll(*dir)
		}
		os.Exit(130)
	}()

	spec, err := loadBenchmarkJSON(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "servedbench:", err)
		return 2
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	scratch := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "servedbench:", err)
		return 1
	}
	hdld, err := buildHdld(*root, scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servedbench:", err)
		return 1
	}
	cfg := runConfig{
		hdld:      hdld,
		scratch:   scratch,
		outDir:    filepath.Join(*root, "benchmark", "out"),
		seed:      *seed,
		seconds:   *seconds,
		trace:     *trace == 1,
		setupReps: 5,
		ladderOps: 200,
	}

	switch {
	case *repeat > 0:
		return repeatSets(cfg, spec, *repeat)
	case *workloadFlag != "":
		res, err := runWorkload(cfg, *workloadFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "servedbench:", err)
			return 1
		}
		printResult(res, spec, cfg.trace)
		if err := printContractLine(res, spec, cfg.trace); err != nil {
			fmt.Fprintln(os.Stderr, "servedbench:", err)
			return 1
		}
		if res.Failed > 0 {
			return 1
		}
		return 0
	}
	// All four workloads, untraced (the end-to-end numbers) then traced
	// (the per-layer numbers).
	code := 0
	for _, traced := range []bool{false, true} {
		cfg.trace = traced
		for _, name := range workloadNames {
			res, err := runWorkload(cfg, name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "servedbench:", err)
				return 1
			}
			printResult(res, spec, traced)
			if res.Failed > 0 {
				code = 1
			}
		}
	}
	return code
}

// benchmarkSpec is BENCHMARK.json, the list of metric names every run
// must print.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// printResult writes the human-readable table of one run.
func printResult(res *runResult, spec *benchmarkSpec, traced bool) {
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	fmt.Printf("== %s (%s) input %s: %d ops in %.2f s, %d failed ==\n",
		res.Workload, mode, res.Hash, res.Attempted, res.WindowS, res.Failed)
	for _, f := range res.Failures {
		fmt.Printf("   FAILED: %s\n", f)
	}
	if res.KeptDir != "" {
		fmt.Printf("   run directory kept: %s\n", res.KeptDir)
	}
	row := func(name string, m metric) {
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Printf("   %-34s %14.4f %-6s%s\n", name, m.Value, m.Unit, n)
	}
	for _, e := range spec.EndToEnd {
		row(e.Name, res.E2E[e.Name])
	}
	if traced {
		names := make([]string, 0, len(res.Layer))
		for k := range res.Layer {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			row(k, res.Layer[k])
		}
		for _, c := range res.Checks {
			fmt.Printf("   check: %s\n", c)
		}
	}
}

// printContractLine prints the one JSON object the driver reads: with
// trace 0 every end_to_end metric of BENCHMARK.json, with trace 1 every
// per_layer metric. A metric the run did not produce is a benchmark bug.
func printContractLine(res *runResult, spec *benchmarkSpec, traced bool) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]val{}}
	put := func(name, unit string, from map[string]metric) error {
		m, ok := from[name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s of BENCHMARK.json was not measured on %s", name, res.Workload)
		}
		if m.Unit != unit {
			return fmt.Errorf("metric %s: measured in %s, BENCHMARK.json says %s", name, m.Unit, unit)
		}
		out.Metrics[name] = val{m.Value, m.Unit}
		return nil
	}
	if traced {
		for _, p := range spec.PerLayer {
			if err := put(p.Name, p.Unit, res.Layer); err != nil {
				return err
			}
		}
	} else {
		for _, e := range spec.EndToEnd {
			if err := put(e.Name, e.Unit, res.E2E); err != nil {
				return err
			}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
