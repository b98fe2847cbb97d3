package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	hypo "hypodatalog"
	"hypodatalog/internal/generic"
	"hypodatalog/internal/horn"
	"hypodatalog/internal/parser"
	"hypodatalog/internal/ref"
	"hypodatalog/internal/strat"
	"hypodatalog/internal/topdown"
	"hypodatalog/internal/turing"
	"hypodatalog/internal/workload"
)

// Sizes configure the sweeps.
type Sizes struct {
	Chain   []int // E1
	Order   []int // E2
	Parity  []int // E3/E8/E12
	HamN    []int // E4/E5/E8/E12
	StratM  []int // E6: k values (width fixed at 4)
	TMLen   []int // E7/E15: input lengths
	HypOrd  []int // E9/E14: domain sizes (n! orders!)
	HornN   []int // E10/E13
	Closure []int // E8: chain lengths under the linear closure rules
	Clique  []int // E8: clique sizes
	NonLin  []int // E8: chain lengths under the non-linear closure rule
	ReplN   []int // E18: replica counts
	TenantK []int // E19: co-resident tenant counts
	MemN    []int // E20: memory-budget graph sizes
	Seed    int64
}

// DefaultSizes are the sweep points of BENCH_core.json and EXPERIMENTS.md.
func DefaultSizes() Sizes {
	return Sizes{
		Chain:   []int{4, 16, 64, 256, 512},
		Order:   []int{4, 16, 64, 128},
		Parity:  []int{4, 8, 16, 32, 48},
		HamN:    []int{4, 6, 8, 10},
		StratM:  []int{4, 16, 64, 256, 1024},
		TMLen:   []int{0, 1, 2, 3},
		HypOrd:  []int{2, 3, 4, 5},
		HornN:   []int{16, 64, 256, 512},
		Closure: []int{32, 64, 128},
		Clique:  []int{6, 8, 10, 12},
		NonLin:  []int{16, 32},
		ReplN:   []int{1, 2, 3},
		TenantK: []int{1, 2, 4},
		MemN:    []int{24, 48, 64},
		Seed:    1,
	}
}

// SmokeSizes are the sweeps the test runs. Each is a subset of its
// default and every random input is seeded per case, so a smoke case is
// a default case and its counters are in BENCH_core.json.
func SmokeSizes() Sizes {
	return Sizes{
		Chain:   []int{4, 16},
		Order:   []int{4, 16},
		Parity:  []int{4, 8},
		HamN:    []int{4, 6},
		StratM:  []int{4, 16},
		TMLen:   []int{0, 1},
		HypOrd:  []int{2, 3},
		HornN:   []int{16, 64},
		Closure: []int{32},
		Clique:  []int{6, 8},
		NonLin:  []int{16},
		ReplN:   []int{1, 2},
		TenantK: []int{1, 2},
		MemN:    []int{24},
		Seed:    1,
	}
}

// rngFor seeds one case's random input from the sweep seed, the
// experiment's salt and the case's own parameters — never from the cases
// generated before it, so dropping a sweep point changes no other case.
func rngFor(s Sizes, salt int64, params ...int) *rand.Rand {
	seed := s.Seed*1_000_003 + salt
	for _, p := range params {
		seed = seed*1_000_003 + int64(p)
	}
	return rand.New(rand.NewSource(seed))
}

// uniform is the evaluator of the per-claim experiments: the paper's
// counting claims (Example 4's 2n+2 goals, Appendix A's bound) are about
// one top-down proof search. E8 is where the evaluators are compared.
var uniform = hypo.Options{Mode: hypo.ModeUniform}

// eval is the cold operation most cases measure: a fresh engine, one
// query, the number of answers checked (1 or 0 for a ground query), the
// engine's work reported. Running out of Options.MaxGoals is a result —
// the cell reports aborted=1 beside the counters it got to, which the
// exact budget makes deterministic. Running out of time is an error: no
// counter of such a run repeats.
func eval(ctx context.Context, prog *hypo.Program, opts hypo.Options, query string, want int) (Counters, error) {
	e, err := hypo.New(prog, opts)
	if err != nil {
		return nil, err
	}
	n := 0
	_, err = e.Read(ctx, hypo.Request{Kind: hypo.ReadQuery, Query: query}, func(hypo.Binding) error { n++; return nil })
	return settle(work(e), query, n, want, err)
}

// poolAnswers reads query from a pool and counts its answers.
func poolAnswers(pl *hypo.Pool, query string) (n int, err error) {
	_, err = pl.Read(context.Background(), hypo.Request{Kind: hypo.ReadQuery, Query: query}, func(hypo.Binding) error { n++; return nil })
	return n, err
}

// work is the counter set of an engine's evaluation work.
func work(e *hypo.Engine) Counters {
	st := e.Stats()
	return Counters{
		"goals":            st.Goals,
		"table_hits":       st.TableHits,
		"max_depth":        int64(st.MaxDepth),
		"states":           int64(st.TableSize),
		"materialisations": st.Materialisations,
		"derived_models":   st.DerivedModels,
		"join_probes":      st.JoinProbes,
	}
}

// settle turns how an evaluation ended into how its case ends.
func settle(c Counters, query string, answers, want int, err error) (Counters, error) {
	switch {
	case errors.Is(err, hypo.ErrBudget):
		c["aborted"] = 1
	case err != nil:
		return nil, fmt.Errorf("%s: %w", query, err)
	case answers != want:
		return nil, fmt.Errorf("%s has %d answers, want %d", query, answers, want)
	}
	return c, nil
}

// count is a ground query's number of answers.
func count(holds bool) int {
	if holds {
		return 1
	}
	return 0
}

// caseList accumulates an experiment's cases; the first program that
// fails to parse fails the experiment.
type caseList struct {
	cases []Case
	err   error
}

func (l *caseList) add(name string, run func() (Counters, error)) {
	l.cases = append(l.cases, Case{Name: name, Run: run})
}

// parse compiles the program a case (or a row of cases) shares.
func (l *caseList) parse(name, src string) *hypo.Program {
	prog, err := hypo.Parse(src)
	if err != nil && l.err == nil {
		l.err = fmt.Errorf("%s: %w", name, err)
	}
	return prog
}

// ask adds a case asking a ground query of src cold.
func (l *caseList) ask(name, src string, opts hypo.Options, query string, want bool) {
	prog := l.parse(name, src)
	l.add(name, func() (Counters, error) { return eval(context.Background(), prog, opts, query, count(want)) })
}

func (l *caseList) done() ([]Case, error) { return l.cases, l.err }

func e1HypChain(s Sizes) ([]Case, error) {
	var l caseList
	for _, n := range s.Chain {
		l.ask(fmt.Sprintf("n=%d", n), workload.ChainProgram(n), uniform, "a1", true)
	}
	return l.done()
}

func e2OrderLoop(s Sizes) ([]Case, error) {
	var l caseList
	for _, n := range s.Order {
		l.ask(fmt.Sprintf("n=%d", n), workload.OrderLoopProgram(n), uniform, "a", true)
	}
	return l.done()
}

// e3Parity: proving the true parity predicate follows one copy chain
// (polynomial with tabling); refuting the false one must explore the
// whole subset lattice (2^n tabled states) — the coNP face of the same
// query — so refutations stop at n = 12.
func e3Parity(s Sizes) ([]Case, error) {
	var l caseList
	for _, n := range s.Parity {
		trueQ, falseQ := "even", "odd"
		if n%2 == 1 {
			trueQ, falseQ = falseQ, trueQ
		}
		l.ask(fmt.Sprintf("prove/n=%d", n), workload.ParityProgram(n), uniform, trueQ, true)
		if n <= 12 {
			l.ask(fmt.Sprintf("refute/n=%d", n), workload.ParityProgram(n), uniform, falseQ, false)
		}
	}
	return l.done()
}

// e4Hamiltonian checks Example 7 against brute-force search, which is
// also timed: the rules are a generic prover, the baseline a dedicated one.
func e4Hamiltonian(s Sizes) ([]Case, error) {
	var l caseList
	for _, n := range s.HamN {
		for i, kind := range []string{"planted", "random"} {
			var g workload.Digraph
			if rng := rngFor(s, 4, n, i); kind == "planted" {
				g = workload.PlantedHamiltonian(rng, n, 0.15)
			} else {
				g = workload.RandomDigraph(rng, n, 0.25)
			}
			want := workload.HasHamiltonianPath(g)
			l.ask(fmt.Sprintf("rules/%s/n=%d", kind, n), workload.HamiltonianProgram(g), uniform, "yes", want)
			l.add(fmt.Sprintf("brute/%s/n=%d", kind, n), func() (Counters, error) {
				return Counters{"edges": int64(len(g.Edges)), "found": int64(count(workload.HasHamiltonianPath(g)))}, nil
			})
		}
	}
	return l.done()
}

// e5HamComplement: Example 8's NO <- ~YES is the exact complement.
func e5HamComplement(s Sizes) ([]Case, error) {
	var l caseList
	for _, n := range s.HamN {
		g := workload.RandomDigraph(rngFor(s, 5, n), n, 0.2)
		l.ask(fmt.Sprintf("n=%d", n), workload.HamiltonianProgram(g), uniform, "no", !workload.HasHamiltonianPath(g))
	}
	return l.done()
}

func e6Stratify(s Sizes) ([]Case, error) {
	var l caseList
	for _, k := range s.StratM {
		prog, err := parser.Parse(workload.KStrataProgram(k, 4))
		if err != nil {
			return nil, err
		}
		l.add(fmt.Sprintf("k=%d", k), func() (Counters, error) {
			st, err := strat.Stratify(prog)
			if err != nil {
				return nil, err
			}
			if st.NumStrata != k {
				return nil, fmt.Errorf("k=%d: %d strata", k, st.NumStrata)
			}
			return Counters{"rules": int64(len(prog.Rules)), "preds": int64(len(st.Part)), "iterations": int64(st.Iterations)}, nil
		})
	}
	return l.done()
}

// e7TMEncoding: Theorem 1's lower bound — the encoded oracle machines
// agree with direct simulation on every input.
func e7TMEncoding(s Sizes) ([]Case, error) {
	var l caseList
	opts := hypo.Options{Mode: hypo.ModeUniform, MaxGoals: 100_000_000}
	for _, m := range []*turing.Machine{turing.HasOne(), turing.GuessOne(), turing.CopyThenAskYes(), turing.CopyThenAskNo()} {
		for _, in := range inputs(s.TMLen) {
			n := 2*len(in) + 6
			want, err := m.Accepts(in, n)
			if err != nil {
				return nil, err
			}
			src, err := turing.Encode(m, in, n)
			if err != nil {
				return nil, err
			}
			l.ask(fmt.Sprintf("%s/in=%s", m.Name, orDash(in)), src, opts, "accept", want)
		}
	}
	return l.done()
}

// inputs is every binary string of each given length.
func inputs(lens []int) []string {
	var out []string
	for _, l := range lens {
		for v := 0; v < 1<<l; v++ {
			out = append(out, fmt.Sprintf("%0*b", l, v)[:l])
		}
	}
	return out
}

func orDash(in string) string {
	if in == "" {
		return "-"
	}
	return in
}

// e8Budget and e8Deadline bound every cell of the E8 matrix, so a cell
// whose evaluator is exponential on its workload reports aborted=1 with
// the counters it reached instead of hanging the run. The budget is sized
// so that every cell that finishes at all finishes well inside it.
const (
	e8Budget   = 200_000
	e8Deadline = time.Minute
)

// e8Evaluators are the columns of the E8 matrix: every evaluation
// architecture a server can be started with (-mode).
var e8Evaluators = []struct {
	name string
	opts hypo.Options
}{
	{"uniform", hypo.Options{Mode: hypo.ModeUniform}},
	{"cascade", hypo.Options{Mode: hypo.ModeCascade}},
}

// e8Matrix is the evaluator matrix: workload rows × evaluator columns,
// every cell the same cold query. The Σ-dominated rows (parity,
// Hamiltonian) are where the cascade mirrors the upper-bound proof of
// Theorem 1 at a constant overhead; the closure rows are Δ-dominated and
// are where the evaluators part ways — bound point queries favour a
// goal-directed search, refutation over a clique and the non-linear rule
// are polynomial only bottom-up.
func e8Matrix(s Sizes) ([]Case, error) {
	var l caseList
	row := func(name, src, query string, want int) {
		prog := l.parse(name, src)
		for _, ev := range e8Evaluators {
			opts := ev.opts
			opts.MaxGoals = e8Budget
			l.add(name+"/"+ev.name, func() (Counters, error) {
				ctx, cancel := context.WithTimeout(context.Background(), e8Deadline)
				defer cancel()
				return eval(ctx, prog, opts, query, want)
			})
		}
	}
	for _, n := range s.Parity {
		row(fmt.Sprintf("parity/n=%d", n), workload.ParityProgram(n), "even", (n+1)%2)
	}
	for _, n := range s.HamN {
		g := workload.PlantedHamiltonian(rngFor(s, 8, n), n, 0.15)
		row(fmt.Sprintf("hamiltonian/n=%d", n), workload.HamiltonianProgram(g), "yes", 1)
	}
	for _, rec := range []struct{ name, rule string }{{"right", workload.RightLinear}, {"left", workload.LeftLinear}} {
		for _, n := range s.Closure {
			src := workload.ClosureProgram(workload.Chain(n), rec.rule)
			row(fmt.Sprintf("%s/n=%d/hit", rec.name, n), src, fmt.Sprintf("reach(n0, n%d)", n), 1)
			row(fmt.Sprintf("%s/n=%d/miss", rec.name, n), src, fmt.Sprintf("reach(n%d, n0)", n), 0)
			row(fmt.Sprintf("%s/n=%d/open", rec.name, n), src, "reach(n0, Y)", n)
		}
	}
	for _, k := range s.Clique {
		row(fmt.Sprintf("clique/k=%d", k), workload.ClosureProgram(workload.Clique(k), workload.RightLinear), fmt.Sprintf("reach(n0, n%d)", k), 0)
	}
	for _, n := range s.NonLin {
		row(fmt.Sprintf("nonlinear/n=%d", n), workload.ClosureProgram(workload.Chain(n), workload.NonLinear), fmt.Sprintf("reach(n0, n%d)", n), 1)
	}
	return l.done()
}

// e9HypOrder: the section 6 construction asserts every linear order
// hypothetically (all n! of them on a no-instance, so n stays small); a
// renamed, re-ordered domain must give the same answer for the same work.
func e9HypOrder(s Sizes) ([]Case, error) {
	var l caseList
	for _, n := range s.HypOrd {
		names, renamed := make([]string, n), make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("el%d", i)
			renamed[i] = fmt.Sprintf("other%d", n-1-i)
		}
		l.ask(fmt.Sprintf("n=%d", n), generic.ParityViaOrder("d")+generic.DomainFacts("d", names), uniform, "yes", n%2 == 1)
		l.ask(fmt.Sprintf("renamed/n=%d", n), generic.ParityViaOrder("d")+generic.DomainFacts("d", renamed), uniform, "yes", n%2 == 1)
	}
	return l.done()
}

// e10Horn is the Horn baseline: left-linear and non-linear transitive
// closure of a chain on the Δ-part join core alone — polynomial, and the
// yardstick E8's cascade closure cells are read against.
func e10Horn(s Sizes) ([]Case, error) {
	var l caseList
	for _, n := range s.HornN {
		for _, v := range []struct{ name, rule string }{{"linear", workload.LeftLinear}, {"non-linear", workload.NonLinear}} {
			prog := l.parse(v.name, workload.ClosureProgram(workload.Chain(n), v.rule))
			l.add(fmt.Sprintf("%s/semi-naive/n=%d", v.name, n), func() (Counters, error) {
				e, err := horn.New(prog.Compiled())
				if err != nil {
					return nil, err
				}
				m, err := e.Model()
				if err != nil {
					return nil, err
				}
				if want := n * (n + 1) / 2; len(m) != want {
					return nil, fmt.Errorf("derived %d tuples, want %d", len(m), want)
				}
				return Counters{"derived": int64(len(m)), "probes": e.JoinProbes()}, nil
			})
		}
	}
	return l.done()
}

// e11Rewrite: a negated hypothetical premise, rewritten away by Parse
// (section 3.1), answers as the hand-written auxiliary predicate does.
func e11Rewrite(Sizes) ([]Case, error) {
	const (
		auto   = "p(a).\nq(X) :- p(X), not r(X)[add: w(X)].\nr(X) :- w(X), blocked.\nqa :- q(a).\n"
		manual = "p(a).\nq(X) :- p(X), not aux(X).\naux(X) :- r(X)[add: w(X)].\nr(X) :- w(X), blocked.\nqa :- q(a).\n"
	)
	var l caseList
	l.ask("blocked/auto", auto, uniform, "qa", true)
	l.ask("blocked/manual", manual, uniform, "qa", true)
	l.ask("enabled/auto", "blocked.\n"+auto, uniform, "qa", false)
	l.ask("enabled/manual", "blocked.\n"+manual, uniform, "qa", false)
	return l.done()
}

// e12Ablation switches off the top-down engine's two features, on the
// workloads where each is load-bearing: refuting the false parity is
// factorial in |A| without the memo table, and Hamiltonian rule bodies
// are the join-heavy ones the planner reorders. The knobs are topdown's
// own, so these cases build that engine directly.
func e12Ablation(s Sizes) ([]Case, error) {
	var l caseList
	row := func(name, src, query string, want bool) {
		prog := l.parse(name, src)
		for _, cfg := range []struct {
			name string
			opts topdown.Options
		}{
			{"full", topdown.Options{MaxGoals: e8Budget}},
			{"no-tabling", topdown.Options{MaxGoals: e8Budget, NoTabling: true}},
			{"no-planner", topdown.Options{MaxGoals: e8Budget, NoPlanner: true}},
		} {
			l.add(name+"/"+cfg.name, func() (Counters, error) {
				cp := prog.Compiled()
				e := topdown.New(cp, ref.Domain(cp), cfg.opts)
				p, _ := cp.Syms.LookupPred(query, 0)
				got, err := e.Ask(e.Interner().ID(p, nil), e.EmptyState())
				st := e.Stats()
				return settle(Counters{"goals": st.Goals, "table_hits": st.TableHits, "enumerated": st.Enumerated},
					query, count(got), count(want), err)
			})
		}
	}
	for _, n := range s.Parity {
		if n <= 8 {
			falseQ := "odd"
			if n%2 == 1 {
				falseQ = "even"
			}
			row(fmt.Sprintf("parity-refute/n=%d", n), workload.ParityProgram(n), falseQ, false)
		}
	}
	for _, n := range s.HamN {
		if n <= 7 {
			g := workload.PlantedHamiltonian(rngFor(s, 12, n), n, 0.15)
			row(fmt.Sprintf("hamiltonian/n=%d", n), workload.HamiltonianProgram(g), "yes", true)
		}
	}
	return l.done()
}

// e13Deletion is the hypothetical-deletion extension: in the token game
// each move is an [add][del] pair, cyclic move graphs revisit database
// states, and the answer is graph reachability (BFS is the check).
func e13Deletion(s Sizes) ([]Case, error) {
	var l caseList
	opts := hypo.Options{Mode: hypo.ModeUniform, MaxGoals: 100_000_000}
	for _, n := range s.HornN {
		if n > 128 {
			continue
		}
		for i, kind := range []string{"planted", "random"} {
			rng := rngFor(s, 13, n, i)
			g := workload.RandomDigraph(rng, n, 2.0/float64(n))
			target := rng.Intn(n)
			if kind == "planted" {
				g.Edges = append(g.Edges, workload.Chain(target).Edges...)
			}
			l.ask(fmt.Sprintf("%s/n=%d", kind, n), workload.TokenGameProgram(g, 0, target), opts, "goal", workload.Reachable(g, 0, target))
		}
	}
	return l.done()
}

// e14GenericCompile runs Theorem 2's construction end to end: constant-
// free rulebases compiled from Turing machines decide generic queries on
// unordered domains. A no-instance pays for all n! orders times the
// n^2-step simulation, so n stays small by design.
func e14GenericCompile(s Sizes) ([]Case, error) {
	var l caseList
	opts := hypo.Options{Mode: hypo.ModeUniform, MaxGoals: 500_000_000}
	for _, q := range []struct {
		m    *turing.Machine
		want func(n, marked int) bool
	}{
		{turing.HasOne(), func(n, marked int) bool { return marked > 0 }},   // p is non-empty
		{turing.AllOnes(), func(n, marked int) bool { return marked == n }}, // p covers the domain
	} {
		rules, err := generic.CompileGeneric(q.m, "d", "p")
		if err != nil {
			return nil, err
		}
		for _, n := range s.HypOrd {
			for _, marked := range []int{0, n / 2, n} {
				var fs strings.Builder
				for i := 0; i < n; i++ {
					fmt.Fprintf(&fs, "d(el%d).\n", i)
				}
				for i := 0; i < marked; i++ {
					fmt.Fprintf(&fs, "p(el%d).\n", i)
				}
				l.ask(fmt.Sprintf("%s/n=%d/p=%d", q.m.Name, n, marked), rules+fs.String(), opts, "yes", q.want(n, marked))
			}
		}
	}
	return l.done()
}

// e15Alternation is section 4's PSPACE context: alternating machines
// encoded with rule form (2) — the form linear stratification exists to
// exclude — are evaluable, agree with direct alternating simulation, and
// are rejected by Lemma 1's test.
func e15Alternation(s Sizes) ([]Case, error) {
	var l caseList
	opts := hypo.Options{Mode: hypo.ModeUniform, MaxGoals: 100_000_000}
	for _, m := range []*turing.AMachine{turing.AllOnesForall(), turing.HasDoubleOne()} {
		rules, err := turing.EncodeAlternating(m)
		if err != nil {
			return nil, err
		}
		if prog, err := hypo.Parse(rules); err != nil || prog.Stratification().Linear {
			return nil, fmt.Errorf("%s: parsed with %v and is linearly stratifiable; want a rule form (2) program", m.Name, err)
		}
		for _, in := range inputs(s.TMLen) {
			n := 2*len(in) + 6
			want, err := m.Accepts(in, n)
			if err != nil {
				return nil, err
			}
			db, err := turing.EncodeAlternatingDB(m, in, n)
			if err != nil {
				return nil, err
			}
			l.ask(fmt.Sprintf("%s/in=%s", m.Name, orDash(in)), rules+db, opts, "accept", want)
		}
	}
	return l.done()
}

// hypAsk is one askunder read: a ground query, its hypothetical adds and
// its answer.
type hypAsk struct {
	query string
	adds  []string
	want  bool
}

// e16SharedRulebase runs Examples 4, 6 and 7–8 in one rulebase, as a
// served program holds them, plus neven :- not even, which gives stratum
// 2's Δ part two components (no :- not yes is the other). Each cell is one
// cold engine. The work the per-example experiments cannot see shows here:
//
//   - neven: materialising all of Δ2 would run no's Hamiltonian search;
//   - a1 under every b_i: materialising all of Δ1 would run the selectx
//     and selecty rules beside the d chain a1 needs;
//   - even-again: even under {copied(x0), b3}, then under
//     {copied(x0), b7}. Parity cannot read a b_i, so the second ask is one
//     table hit on the part of the state even reads.
func e16SharedRulebase(Sizes) ([]Case, error) {
	const chain, items = 16, 8
	src := workload.ChainProgram(chain) + workload.ParityProgram(items) +
		workload.HamiltonianProgram(workload.Clique(6)) + "neven :- not even.\n"
	allB := make([]string, chain)
	for i := range allB {
		allB[i] = fmt.Sprintf("b%d", i+1)
	}
	rows := []struct {
		name string
		asks []hypAsk
	}{
		{"neven", []hypAsk{{"neven", nil, false}}},
		{"a1-all-b", []hypAsk{{"a1", allB, true}}},
		{"even-again", []hypAsk{{"even", []string{"copied(x0)", "b3"}, false}, {"even", []string{"copied(x0)", "b7"}, false}}},
	}
	var l caseList
	prog := l.parse("shared", src)
	for _, r := range rows {
		for _, ev := range e8Evaluators {
			l.add(r.name+"/"+ev.name, func() (Counters, error) {
				e, err := hypo.New(prog, ev.opts)
				if err != nil {
					return nil, err
				}
				for _, a := range r.asks {
					got, err := e.AskUnder(a.query, a.adds...)
					if err != nil {
						return nil, fmt.Errorf("%s under %v: %w", a.query, a.adds, err)
					}
					if got != a.want {
						return nil, fmt.Errorf("%s under %v = %v, want %v", a.query, a.adds, got, a.want)
					}
				}
				return work(e), nil
			})
		}
	}
	return l.done()
}

// All returns every experiment in id order.
func All() []Experiment {
	return []Experiment{
		{"E1", "(Example 4): chain of n hypothetical adds", "a1 needs all n hypotheses accumulated: exactly 2n+2 goals, depth 2n+1.", e1HypChain},
		{"E2", "(Example 5): loop over a stored linear order", "", e2OrderLoop},
		{"E3", "(Example 6): EVEN iff |A| is even", "proving the true parity is one chain; refuting the false one is 2^n states (the coNP face).", e3Parity},
		{"E4", "(Example 7): directed Hamiltonian path, rules vs brute force", "NP workload; every rules answer is checked against the brute-force search timed beside it.", e4Hamiltonian},
		{"E5", "(Example 8): NO <- ~YES adds the complement", "", e5HamComplement},
		{"E6", "(Lemma 1): linear stratification is polynomial time", "k strata of 5 rules over 7 predicates; the relaxation takes 2k outer iterations.", e6Stratify},
		{"E7", "(Theorem 1, lower bound): oracle-TM encodings agree with simulation", "", e7TMEncoding},
		{"E8", "(Theorem 1, upper bound): the evaluator matrix", fmt.Sprintf("workload/query × evaluator, each cell one cold query under a %d-goal budget; aborted=1 marks a cell that spent it.", e8Budget), e8Matrix},
		{"E9", "(Theorem 2 / section 6): hypothetically asserted orders", "yes iff |D| is odd; renamed/ re-runs the case on a renamed, reversed domain.", e9HypOrder},
		{"E10", "(section 1 claim): Horn Datalog stays in P", "", e10Horn},
		{"E11", "(section 3.1): ~A[add:B] rewrite preserves answers", "", e11Rewrite},
		{"E12", "(ablation): tabling and premise planning", fmt.Sprintf("the top-down engine with one feature off, under a %d-goal budget.", e8Budget), e12Ablation},
		{"E13", "(extension): hypothetical deletions — token game", "each move is [add: token(Y)][del: token(X)]; states cycle, answers equal reachability.", e13Deletion},
		{"E14", "(Theorem 2): constant-free machine compilation on unordered domains", "n! orders × n^2-step machines; n stays small by design.", e14GenericCompile},
		{"E15", "(section 4 context): alternation via rule form (2) — the PSPACE fragment", "", e15Alternation},
		{"E16", "(served rulebases): Examples 4, 6 and 7–8 sharing one rulebase", "chain n=16, parity over 8 items, Hamiltonian over a 6-clique plus an isolated node, and neven :- not even; each cell one cold engine.", e16SharedRulebase},
		{"E18", "(replication): closure reads on replicas, min-version wait under churn", "one scenario per case; values are latencies of its inner operations.", e18Replication},
		{"E19", "(multi-tenant): K co-resident programs under mixed traffic", "round-robin interleaved clients, one request in flight at a time.", e19MultiTenant},
		{"E20", "(memory governance): a per-query byte budget, refusing vs paying", fmt.Sprintf("budget %d bytes; full = unbudgeted reach(X, Y), abort = the budgeted pool refusing it, cheap = edge(n0, Y) on that pool afterwards.", e20Budget), e20MemGovern},
	}
}
