package difftest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	hypo "hypodatalog"
	"hypodatalog/internal/ast"
	"hypodatalog/internal/facts"
	"hypodatalog/internal/parser"
	"hypodatalog/internal/ref"
	"hypodatalog/internal/strat"
	"hypodatalog/internal/symbols"
)

// mustAddProgram generates a stratified program with planted ground-add
// chains — a0 :- a1[add: b_k], … — whose links sometimes read what they
// add: plainly, under ~ (directly or through a helper g_m that reads it),
// or inside another hypothetical premise. Alternative rules for the chain
// goals do the same or recurse back down the chain; add lists sometimes
// carry an intensional atom, the rule's own head among them, and
// sometimes a [del:]. Negation only reaches extensional atoms and the
// helpers, which read extensional atoms alone, so the program is
// stratified by construction.
func mustAddProgram(rng *rand.Rand) string {
	const nb, ng = 4, 3
	chain := 2 + rng.Intn(3)
	var b strings.Builder
	bAtom := func() string { return fmt.Sprintf("b%d", rng.Intn(nb)) }
	for i := 0; i < nb; i++ {
		if rng.Intn(4) == 0 {
			fmt.Fprintf(&b, "b%d.\n", i)
		}
	}
	b.WriteString("e(c0).\n")
	for m := 0; m < ng; m++ {
		switch rng.Intn(3) {
		case 0:
			fmt.Fprintf(&b, "g%d :- %s.\n", m, bAtom())
		case 1:
			fmt.Fprintf(&b, "g%d :- ~%s, %s.\n", m, bAtom(), bAtom())
		default:
			fmt.Fprintf(&b, "g%d :- %s, e(c0).\n", m, bAtom())
		}
	}
	g := func() string { return fmt.Sprintf("g%d", rng.Intn(ng)) }
	// hyp is a hypothetical premise on goal with one or two b adds,
	// sometimes an intensional atom as well and sometimes a deletion, and
	// the b atoms it adds.
	hyp := func(goal, head string) (string, []string) {
		bs := []string{bAtom()}
		if rng.Intn(3) == 0 {
			bs = append(bs, bAtom())
		}
		list := bs
		if rng.Intn(6) == 0 {
			list = append(list[:len(list):len(list)], []string{head, g(), "i0"}[rng.Intn(3)])
		}
		s := goal + "[add: " + strings.Join(list, ", ") + "]"
		if rng.Intn(8) == 0 {
			s += "[del: " + bAtom() + "]"
		}
		return s, bs
	}
	// reader is a premise that reads one of the atoms bs.
	reader := func(bs []string) string {
		x := bs[rng.Intn(len(bs))]
		switch rng.Intn(4) {
		case 0:
			return x
		case 1:
			return "~" + x
		case 2:
			return fmt.Sprintf("g%d", rng.Intn(ng)) // a helper reads some b
		default:
			return "i0"
		}
	}
	a := func(i int) string { return fmt.Sprintf("a%d", i) }
	// rule is a rule for a_i through a_j.
	rule := func(i, j int) string {
		pr, bs := hyp(a(j), a(i))
		switch rng.Intn(5) {
		case 0: // reads an atom it adds, beside the add
			return fmt.Sprintf("%s :- %s, %s.\n", a(i), pr, reader(bs))
		case 1: // reads one inside another hypothetical premise
			inner, _ := hyp(g(), a(i))
			return fmt.Sprintf("%s :- %s, %s.\n", a(i), inner, pr)
		case 2: // deletes
			return fmt.Sprintf("%s :- %s[del: %s].\n", a(i), a(j), bAtom())
		default:
			return fmt.Sprintf("%s :- %s.\n", a(i), pr)
		}
	}
	for i := 0; i < chain; i++ {
		b.WriteString(rule(i, i+1))
	}
	bottom := []string{bAtom(), "~" + bAtom(), g(), "~" + g(), "e(c0)", "i0"}
	fmt.Fprintf(&b, "%s :- %s.\n", a(chain), bottom[rng.Intn(len(bottom))])
	i0, _ := hyp(g(), "i0")
	fmt.Fprintf(&b, "i0 :- %s.\n", i0)
	for n := rng.Intn(3); n > 0; n-- {
		b.WriteString(rule(rng.Intn(chain), rng.Intn(chain+1)))
	}
	b.WriteString(dataProgram(rng))
	return b.String()
}

// dataProgram is the part of a generated program whose must-add sets the
// data determines, Example 5's shape: h walks a relation r over c0..c3,
// sometimes with a cycle, adding m(Y) for each step, and exits at s
// through a body that reads m atoms. Extra rules sometimes read an m atom
// beside the walk, walk r backwards or start from a 0-ary goal (hh); in a
// third of the programs a rule adds an r atom at the t constants, which
// makes r a relation the proofs can change. Every r fact is a line of its
// own, so a commit can edit the source.
func dataProgram(rng *rand.Rand) string {
	const nc = 4
	c := func() string { return fmt.Sprintf("c%d", rng.Intn(nc)) }
	var b strings.Builder
	for i := 0; i < nc; i++ {
		fmt.Fprintf(&b, "cst(c%d).\n", i)
	}
	var edges []string
	for n := 2 + rng.Intn(4); n > 0; n-- {
		edges = append(edges, fmt.Sprintf("r(%s, %s)", c(), c()))
	}
	if rng.Intn(2) == 0 {
		edges = append(edges, "r(c1, c2)", "r(c2, c1)")
	}
	slices.Sort(edges)
	for _, e := range slices.Compact(edges) {
		fmt.Fprintf(&b, "%s.\n", e)
	}
	fmt.Fprintf(&b, "s(%s).\n", c())
	b.WriteString("h(X) :- r(X, Y), h(Y)[add: m(Y)].\n")
	exits := []string{"k", "~m(" + c() + ")", "m(" + c() + ")", "g0"}
	fmt.Fprintf(&b, "h(X) :- s(X), %s.\n", exits[rng.Intn(len(exits))])
	fmt.Fprintf(&b, "k :- m(%s), m(%s).\n", c(), c())
	if rng.Intn(3) == 0 {
		fmt.Fprintf(&b, "h(X) :- t(X), h(X)[add: r(X, %s)].\nt(%s).\nt(%s).\n", c(), c(), c())
	}
	for n := rng.Intn(3); n > 0; n-- {
		switch rng.Intn(3) {
		case 0:
			fmt.Fprintf(&b, "h(X) :- r(X, Y), h(Y)[add: m(Y)], m(%s).\n", c())
		case 1:
			b.WriteString("h(X) :- r(Y, X), h(Y)[add: m(Y)].\n")
		default:
			b.WriteString("hh :- r(X, Y), h(X)[add: m(Y)].\n")
		}
	}
	return b.String()
}

// checkMustAdd is the key-soundness oracle for must-add sets. For every
// goal p with a non-empty M(p) it draws states S over the atoms the
// program can add and subsets X ⊆ M(p), and checks that internal/ref
// answers p alike in S and in S ∪ X — the lemma the Σ memo's normalised
// keys rest on — and that both engines, each one engine across all asks,
// agree with ref in both states.
func checkMustAdd(src string, rng *rand.Rand) error {
	prog, err := parser.Parse(src)
	if err != nil {
		return fmt.Errorf("%w: parse: %v", ErrSkip, err)
	}
	if errs := ast.Validate(prog); len(errs) > 0 {
		return fmt.Errorf("%w: validate: %v", ErrSkip, errs[0])
	}
	if err := strat.CheckNegation(prog); err != nil {
		return fmt.Errorf("%w: negation: %v", ErrSkip, err)
	}
	cp, err := ast.Compile(prog, symbols.NewTable())
	if err != nil {
		return fmt.Errorf("%w: compile: %v", ErrSkip, err)
	}
	ip := ref.New(cp)
	refHolds := refOracle(ip)
	// The sets, computed as the engines compute them: over the rewritten
	// program.
	rw, err := ast.Compile(ast.RewriteNegation(prog), symbols.NewTable())
	if err != nil {
		return fmt.Errorf("%w: compile rewritten: %v", ErrSkip, err)
	}
	keys := facts.NewRelevance(rw)
	// Interners over each symbol table, only to print ground atoms.
	cpAtoms, rwAtoms := facts.NewInterner(cp.Syms), facts.NewInterner(rw.Syms)

	hp, err := hypo.Parse(src)
	if err != nil {
		return fmt.Errorf("difftest: hypo.Parse rejects a generated program: %v\n%s", err, src)
	}
	engines := map[string]*hypo.Engine{}
	modes := map[string]hypo.Mode{"uniform": hypo.ModeUniform}
	if hp.Stratification().Linear {
		modes["cascade"] = hypo.ModeCascade
	}
	for name, m := range modes {
		if engines[name], err = hypo.New(hp, hypo.Options{Mode: m, MaxGoals: maxGoalBudget}); err != nil {
			return fmt.Errorf("difftest: %s construction: %v", name, err)
		}
	}

	// The atoms a state may hold: every ground atom an [add:] or [del:]
	// names, intensional ones included.
	var pool []string
	seen := map[string]bool{}
	for _, r := range cp.Rules {
		for _, pr := range r.Body {
			for _, a := range append(append([]ast.CAtom(nil), pr.Adds...), pr.Dels...) {
				if !a.IsGround() {
					continue
				}
				if s := cpAtoms.Format(cpAtoms.Ground(a, nil)); !seen[s] {
					seen[s] = true
					pool = append(pool, s)
				}
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), checkDeadline)
	defer cancel()
	for p := symbols.Pred(0); int(p) < rw.Syms.NumPreds(); p++ {
		must := keys.MustAdd(p)
		if len(must) == 0 || rw.Syms.PredArity(p) != 0 {
			continue
		}
		goal := rw.Syms.PredName(p)
		if _, ok := cp.Syms.LookupPred(goal, 0); !ok {
			continue // an auxiliary predicate of the rewrite
		}
		for trial := 0; trial < 6; trial++ {
			var s, sx []string
			for _, a := range pool {
				if rng.Intn(3) == 0 {
					s = append(s, a)
				}
			}
			sx = append(sx, s...)
			for _, a := range must {
				if x := rwAtoms.Format(rwAtoms.Ground(a, nil)); rng.Intn(2) == 0 || trial == 0 {
					sx = append(sx, x)
				}
			}
			want := refHolds(goal, s)
			if got := refHolds(goal, sx); got != want {
				return fmt.Errorf("difftest: must-add set of %s is unsound: ref answers %v under %v but %v under %v (M = %v)\n%s",
					goal, want, s, got, sx, formatAtoms(rwAtoms, must), src)
			}
			for name, e := range engines {
				for _, adds := range [][]string{s, sx} {
					got, err := ask(ctx, e, goal, adds...)
					if err != nil {
						return skipOrFail(name, goal, err, src)
					}
					if got != want {
						return fmt.Errorf("difftest: AskUnder(%s, add %v): %s=%v ref=%v (M = %v)\n%s",
							goal, adds, name, got, want, formatAtoms(rwAtoms, must), src)
					}
				}
			}
		}
	}
	return checkDataMust(ctx, src, engines, rng)
}

// refOracle answers a ground goal under added atoms, both written as
// source, with internal/ref.
func refOracle(ip *ref.Interp) func(goal string, adds []string) bool {
	syms := ip.Interner().Syms()
	atomOf := func(s string) facts.AtomID {
		p, err := parser.ParseAtom(s)
		if err != nil {
			panic(err)
		}
		c, err := ast.CompilePremise(ast.PlainP(p), syms, map[string]int{}, new([]string))
		if err != nil {
			panic(err)
		}
		return ip.Interner().Ground(c.Atom, nil)
	}
	return func(goal string, adds []string) bool {
		st := ip.EmptyState()
		for _, s := range adds {
			st = st.Add(atomOf(s))
		}
		return ip.Holds(atomOf(goal), st)
	}
}

// checkDataMust is the oracle for the data-determined must-add sets of
// dataProgram's goals: the engines, one each across all asks, answer h(c)
// and hh as internal/ref does under states of m atoms, some of which also
// add an r or s atom (a state the sets must not be used in); then a
// commit retracts an r fact and asserts another, and the same engines
// must answer as ref does over the edited facts (sets computed before it
// must not survive it).
func checkDataMust(ctx context.Context, src string, engines map[string]*hypo.Engine, rng *rand.Rand) error {
	goals := []string{"h(c0)", "h(c1)", "h(c2)", "h(c3)"}
	if strings.Contains(src, "hh :-") {
		goals = append(goals, "hh")
	}
	check := func(src, when string) error {
		prog, err := parser.Parse(src)
		if err != nil {
			return fmt.Errorf("difftest: %s: parse: %v", when, err)
		}
		cp, err := ast.Compile(prog, symbols.NewTable())
		if err != nil {
			return fmt.Errorf("difftest: %s: compile: %v", when, err)
		}
		refHolds := refOracle(ref.New(cp))
		for trial := 0; trial < 6; trial++ {
			var adds []string
			for i := 0; i < 4; i++ {
				if rng.Intn(2) == 0 {
					adds = append(adds, fmt.Sprintf("m(c%d)", i))
				}
			}
			switch rng.Intn(6) {
			case 0:
				adds = append(adds, fmt.Sprintf("r(c%d, c%d)", rng.Intn(4), rng.Intn(4)))
			case 1:
				adds = append(adds, fmt.Sprintf("s(c%d)", rng.Intn(4)))
			}
			for _, goal := range goals {
				want := refHolds(goal, adds)
				for name, e := range engines {
					got, err := ask(ctx, e, goal, adds...)
					if err != nil {
						return skipOrFail(name, goal, err, src)
					}
					if got != want {
						return fmt.Errorf("difftest: %s, AskUnder(%s, add %v): %s=%v ref=%v\n%s", when, goal, adds, name, got, want, src)
					}
				}
			}
		}
		return nil
	}
	if err := check(src, "before the commit"); err != nil {
		return err
	}
	var present, absent []string
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if r := fmt.Sprintf("r(c%d, c%d)", i, j); strings.Contains(src, "\n"+r+".\n") {
				present = append(present, r)
			} else {
				absent = append(absent, r)
			}
		}
	}
	retract, assert := present[rng.Intn(len(present))], absent[rng.Intn(len(absent))]
	for name, e := range engines {
		if err := e.ApplyDelta([]string{assert}, []string{retract}); err != nil {
			return fmt.Errorf("difftest: %s commit: %v", name, err)
		}
	}
	edited := strings.Replace(src, "\n"+retract+".\n", "\n", 1) + assert + ".\n"
	return check(edited, fmt.Sprintf("after retracting %s and asserting %s", retract, assert))
}

func formatAtoms(in *facts.Interner, atoms []ast.CAtom) []string {
	out := make([]string, len(atoms))
	for i, a := range atoms {
		out[i] = in.Format(in.Ground(a, nil))
	}
	return out
}

// FuzzMustAdd generates a program with planted ground-add chains per
// input and holds its must-add sets to the key-soundness oracle
// (checkMustAdd). CI runs it for a bounded wall-clock slice.
func FuzzMustAdd(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		if err := checkMustAdd(mustAddProgram(rng), rng); err != nil && !errors.Is(err, ErrSkip) {
			t.Fatal(err)
		}
	})
}

// TestMustAddSeeds is the deterministic slice of FuzzMustAdd, and checks
// that the generator plants what the oracle needs: goals with non-empty
// must-add sets.
func TestMustAddSeeds(t *testing.T) {
	iters := 300
	if testing.Short() {
		iters = 60
	}
	planted := 0
	for seed := int64(0); seed < int64(iters); seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := mustAddProgram(rng)
		if err := checkMustAdd(src, rng); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p, _ := parser.Parse(src)
		rw, _ := ast.Compile(ast.RewriteNegation(p), symbols.NewTable())
		keys := facts.NewRelevance(rw)
		for q := symbols.Pred(0); int(q) < rw.Syms.NumPreds(); q++ {
			if keys.MustAdd(q) != nil {
				planted++
				break
			}
		}
	}
	if planted < iters/2 {
		t.Errorf("%d of %d programs have a goal with a non-empty must-add set; the generator no longer plants chains", planted, iters)
	}
}
