// Command hdl evaluates hypothetical Datalog programs.
//
// Usage:
//
//	hdl [flags] program.hdl [more.hdl ...]
//
// The embedded "?- query." clauses of the programs are evaluated and
// printed. Additional queries can be given with -q, and -i drops into an
// interactive prompt afterwards. Queries may contain variables; all
// bindings over dom(R, DB) are printed.
//
// Flags:
//
//	-q query     evaluate this query (repeatable)
//	-i           interactive prompt after file queries
//	-mode m      auto | uniform | cascade (default auto)
//	-stats       print each query's own work (goals, table hits, loop cuts)
//	             beside the engine's table size and depth, and a final
//	             metrics dump
//	-max n       abort a query after n goal expansions (0 = unlimited)
//	-deadline d  abort each query after duration d, e.g. 500ms (0 = none)
//	-snapshot-out FILE  compact the loaded program+facts into a HDLSNAP
//	             snapshot (e.g. to seed hdld -snapshot) and exit, unless
//	             queries or -i ask for evaluation too
//
// Exit status is 0 on a clean run, 1 if any file or -q query aborted
// (deadline, cancellation or goal budget — partial work is reported on
// stderr) or on a usage/parse error.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"hypodatalog"
	"hypodatalog/internal/metrics"
)

type queryList []string

func (q *queryList) String() string { return strings.Join(*q, "; ") }

func (q *queryList) Set(s string) error {
	*q = append(*q, s)
	return nil
}

func main() {
	var queries queryList
	flag.Var(&queries, "q", "query to evaluate (repeatable)")
	interactive := flag.Bool("i", false, "interactive prompt")
	mode := flag.String("mode", "auto", "evaluation mode: auto | uniform | cascade")
	stats := flag.Bool("stats", false, "print evaluation statistics")
	explain := flag.Bool("explain", false, "print a derivation tree for provable ground queries (uniform mode)")
	maxGoals := flag.Int64("max", 0, "goal budget per query, in every mode (0 = unlimited); bottom-up Δ-part work is not goals: -deadline bounds it")
	deadline := flag.Duration("deadline", 0, "per-query evaluation deadline, e.g. 500ms (0 = none)")
	snapshotOut := flag.String("snapshot-out", "", "write the loaded program+facts to this HDLSNAP file")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: hdl [flags] program.hdl ...")
		flag.PrintDefaults()
		os.Exit(2)
	}

	var src strings.Builder
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		src.Write(data)
		src.WriteByte('\n')
	}
	prog, err := hypo.Parse(src.String())
	if err != nil {
		fatal(err)
	}
	if *snapshotOut != "" {
		if err := writeSnapshot(prog, *snapshotOut); err != nil {
			fatal(err)
		}
		fmt.Printf("%% snapshot written to %s\n", *snapshotOut)
		// Snapshot-only invocations stop here; queries or -i keep going.
		if len(prog.Queries()) == 0 && len(queries) == 0 && !*interactive {
			return
		}
	}
	opts := hypo.Options{MaxGoals: *maxGoals}
	if *explain {
		*mode = "uniform"
	}
	switch *mode {
	case "auto":
		opts.Mode = hypo.ModeAuto
	case "uniform":
		opts.Mode = hypo.ModeUniform
	case "cascade":
		opts.Mode = hypo.ModeCascade
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
	eng, err := hypo.New(prog, opts)
	if err != nil {
		fatal(err)
	}

	s := prog.Stratification()
	if s.Linear {
		fmt.Printf("%% linearly stratified, %d strata (data-complexity in Σ_%d^P)\n", s.Strata, s.Strata)
	} else {
		fmt.Printf("%% not linearly stratified (%s); uniform evaluation\n", s.Reason)
	}

	all := append(append([]string{}, prog.Queries()...), queries...)
	aborted := false
	for _, q := range all {
		if runQuery(eng, q, *stats, *deadline) {
			aborted = true
		}
		if *explain {
			printExplanation(eng, q)
		}
	}

	if *interactive {
		repl(eng, prog, *stats, *deadline)
	}
	if *stats {
		dumpMetrics()
	}
	// A deadline or budget abort mid-file must not look like a clean
	// run: the skipped answers never printed.
	if aborted {
		os.Exit(1)
	}
}

// repl reads queries (and :commands) from stdin until EOF or :quit.
func repl(eng *hypo.Engine, prog *hypo.Program, stats bool, deadline time.Duration) {
	fmt.Println("% enter queries ('grad(S)[add: take(S, C)]'); :help for commands")
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("?- ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		line = strings.TrimSuffix(line, ".")
		switch {
		case line == "":
		case line == ":quit" || line == ":q" || line == "quit" || line == "exit":
			return
		case line == ":help":
			fmt.Println(`  <premise>         evaluate a query (variables enumerate bindings)
  :explain <query>  print a derivation tree (uniform mode only)
  :strata           show the stratification report
  :program          print the loaded program
  :help             this text
  :quit             leave`)
		case line == ":strata":
			s := prog.Stratification()
			if s.Linear {
				fmt.Printf("   linearly stratified, %d strata (Σ_%d^P)\n", s.Strata, s.Strata)
				var preds []string
				for p := range s.Partition {
					preds = append(preds, p)
				}
				sort.Strings(preds)
				for _, p := range preds {
					fmt.Printf("   %-24s partition %d\n", p, s.Partition[p])
				}
			} else {
				fmt.Printf("   not linearly stratifiable: %s\n", s.Reason)
			}
		case line == ":program":
			fmt.Print(prog.String())
		case strings.HasPrefix(line, ":explain "):
			q := strings.TrimSpace(strings.TrimPrefix(line, ":explain"))
			tree, err := eng.Explain(q)
			switch {
			case err != nil:
				fmt.Printf("   error: %v\n", err)
			case tree == "":
				fmt.Println("   false (nothing to explain)")
			default:
				for _, l := range strings.Split(strings.TrimRight(tree, "\n"), "\n") {
					fmt.Printf("   | %s\n", l)
				}
			}
		default:
			runQuery(eng, line, stats, deadline)
		}
		fmt.Print("?- ")
	}
}

// runQuery evaluates and prints one query, reporting whether it was cut
// short by an *AbortError (deadline, cancellation or goal budget).
func runQuery(eng *hypo.Engine, q string, stats bool, deadline time.Duration) (aborted bool) {
	ctx := context.Background()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	var bs []hypo.Binding
	info, err := eng.Read(ctx, hypo.Request{Kind: hypo.ReadQuery, Query: q}, func(b hypo.Binding) error {
		bs = append(bs, b)
		return nil
	})
	if err != nil {
		var ae *hypo.AbortError
		if errors.As(err, &ae) {
			fmt.Printf("?- %s.\n   aborted: %v\n", q, err)
			fmt.Fprintf(os.Stderr,
				"hdl: query %q aborted: %v (partial work: goals=%d enumerated=%d table=%d hits=%d cuts=%d depth=%d)\n",
				q, ae.Reason, ae.Stats.Goals, ae.Stats.Enumerated, ae.Stats.TableSize,
				ae.Stats.TableHits, ae.Stats.LoopCuts, ae.Stats.MaxDepth)
			return true
		}
		fmt.Printf("?- %s.\n   error: %v\n", q, err)
		return false
	}
	fmt.Printf("?- %s.\n", q)
	switch {
	case len(bs) == 1 && len(bs[0]) == 0:
		fmt.Println("   true")
	case len(bs) == 0:
		fmt.Println("   false")
	default:
		for _, b := range bs {
			vars := make([]string, 0, len(b))
			for v := range b {
				vars = append(vars, v)
			}
			sort.Strings(vars)
			parts := make([]string, len(vars))
			for i, v := range vars {
				parts[i] = fmt.Sprintf("%s = %s", v, b[v])
			}
			fmt.Printf("   %s\n", strings.Join(parts, ", "))
		}
	}
	if stats {
		// The query's own work; table and depth are the engine's gauges.
		st := info.Stats
		fmt.Printf("   %% goals=%d table=%d hits=%d cuts=%d depth=%d\n",
			st.Goals, st.TableSize, st.TableHits, st.LoopCuts, st.MaxDepth)
	}
	return false
}

func printExplanation(eng *hypo.Engine, q string) {
	tree, err := eng.Explain(q)
	if err != nil {
		fmt.Printf("   %% no explanation: %v\n", err)
		return
	}
	if tree == "" {
		return
	}
	for _, line := range strings.Split(strings.TrimRight(tree, "\n"), "\n") {
		fmt.Printf("   | %s\n", line)
	}
}

// dumpMetrics prints the process-wide metrics snapshot (the same data
// exported on expvar as "hypo") as indented JSON.
func dumpMetrics() {
	out, err := json.MarshalIndent(metrics.Snapshot(), "% ", "  ")
	if err != nil {
		return
	}
	fmt.Printf("%% metrics %s\n", out)
}

// writeSnapshot compacts the program into a HDLSNAP file via tmp+rename
// so a crash never leaves a torn snapshot at the target path.
func writeSnapshot(prog *hypo.Program, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := prog.WriteSnapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hdl:", err)
	os.Exit(1)
}
