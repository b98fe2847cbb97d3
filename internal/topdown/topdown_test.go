package topdown

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/facts"
	"hypodatalog/internal/parser"
	"hypodatalog/internal/ref"
	"hypodatalog/internal/strat"
	"hypodatalog/internal/symbols"
)

// compileSrc parses, validates and compiles a program.
func compileSrc(t *testing.T, src string) *ast.CProgram {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog = ast.RewriteNegation(prog)
	if errs := ast.Validate(prog); len(errs) > 0 {
		t.Fatalf("validate: %v", errs[0])
	}
	if err := strat.CheckNegation(prog); err != nil {
		t.Fatalf("stratify: %v", err)
	}
	cp, err := ast.Compile(prog, symbols.NewTable())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return cp
}

// newEngine builds a topdown engine with the paper's dom(R, DB).
func newEngine(t *testing.T, src string, opts Options) (*Engine, *ast.CProgram) {
	t.Helper()
	cp := compileSrc(t, src)
	return New(cp, ref.Domain(cp), opts, nil), cp
}

// ask evaluates a premise given in surface syntax, e.g.
// "grad(tony)[add: take(tony, cs452)]" or "not yes".
func ask(t *testing.T, e *Engine, cp *ast.CProgram, query string) bool {
	t.Helper()
	pr, err := parser.ParsePremise(query)
	if err != nil {
		t.Fatalf("parse query %q: %v", query, err)
	}
	vars := map[string]int{}
	var names []string
	cpr, err := ast.CompilePremise(pr, cp.Syms, vars, &names)
	if err != nil {
		t.Fatalf("compile query %q: %v", query, err)
	}
	if len(names) > 0 {
		t.Fatalf("query %q is not ground", query)
	}
	ok, err := askPremise(e, cpr, e.EmptyState())
	if err != nil {
		t.Fatalf("ask %q: %v", query, err)
	}
	return ok
}

// askPremise decides a ground premise as a read decides its root
// instance: Ask of the premise's atom, in the state extended by its adds
// and dels, read negated for a negated premise.
func askPremise(e *Engine, p ast.CPremise, st facts.State) (bool, error) {
	ok, err := e.Ask(e.in.Instance(&p, nil, st))
	return ok != (p.Kind == ast.Negated), err
}

// askCtx asks a ground premise as one query under ctx, beginning and
// ending the engine's Budget b around it as a query's owner does.
func askCtx(ctx context.Context, b *Budget, e *Engine, p ast.CPremise) (bool, error) {
	if err := b.Begin(ctx); err != nil {
		return false, err
	}
	defer b.End()
	return askPremise(e, p, e.EmptyState())
}

// everyPred is the cone of every predicate of cp: PruneTable over it
// empties the memo.
func everyPred(cp *ast.CProgram) map[symbols.Pred]bool {
	cone := make(map[symbols.Pred]bool, cp.Syms.NumPreds())
	for p := symbols.Pred(0); int(p) < cp.Syms.NumPreds(); p++ {
		cone[p] = true
	}
	return cone
}

func expect(t *testing.T, e *Engine, cp *ast.CProgram, query string, want bool) {
	t.Helper()
	if got := ask(t, e, cp, query); got != want {
		t.Errorf("query %s = %v, want %v", query, got, want)
	}
}

const universitySrc = `
	% Examples 1-3 of the paper: university rules.
	take(tony, his101).
	take(tony, eng201).
	take(mary, his101).
	grad(S) :- take(S, his101), take(S, eng201).

	% Example 3: two-discipline graduation via hypothetical premises.
	take2(sue, m1). take2(sue, m2). take2(sue, p1).
	grad2(S, math) :- take2(S, m1), take2(S, m2), take2(S, m3).
	grad2(S, phys) :- take2(S, p1), take2(S, p2).
	within1(S, D) :- grad2(S, D)[add: take2(S, C)].
	grad2(S, mathphys) :- within1(S, math), within1(S, phys).
`

func TestExample1HypotheticalQuery(t *testing.T) {
	e, cp := newEngine(t, universitySrc, Options{})
	// Tony already graduates.
	expect(t, e, cp, "grad(tony)", true)
	// Example 1: "if Mary took eng201, would she be eligible?"
	expect(t, e, cp, "grad(mary)", false)
	expect(t, e, cp, "grad(mary)[add: take(mary, eng201)]", true)
	expect(t, e, cp, "grad(mary)[add: take(mary, his101)]", false)
}

func TestExample3WithinOne(t *testing.T) {
	e, cp := newEngine(t, universitySrc, Options{})
	// Sue is one course short of math (needs m3) and one short of physics
	// (needs p2), so she qualifies for the joint degree.
	expect(t, e, cp, "grad2(sue, math)", false)
	expect(t, e, cp, "within1(sue, math)", true)
	expect(t, e, cp, "within1(sue, phys)", true)
	expect(t, e, cp, "grad2(sue, mathphys)", true)
	// Tony has taken nothing in take2, so he is not within one course.
	expect(t, e, cp, "within1(tony, math)", false)
}

// chainSrc builds Example 4: A_i <- A_{i+1}[add: B_i], A_{n+1} <- D, where
// D <- B_1, ..., B_n (so A_1 holds iff all hypotheses accumulate).
func chainSrc(n int) string {
	src := ""
	for i := 1; i <= n; i++ {
		src += fmt.Sprintf("a%d :- a%d[add: b%d].\n", i, i+1, i)
	}
	src += fmt.Sprintf("a%d :- d.\n", n+1)
	src += "d :- "
	for i := 1; i <= n; i++ {
		if i > 1 {
			src += ", "
		}
		src += fmt.Sprintf("b%d", i)
	}
	src += ".\n"
	return src
}

func TestExample4HypChain(t *testing.T) {
	for _, n := range []int{1, 3, 8} {
		e, cp := newEngine(t, chainSrc(n), Options{})
		// A_1 requires the whole chain of additions B_1..B_n.
		expect(t, e, cp, "a1", true)
		// A_2 misses B_1, so D cannot be proven.
		if n >= 1 {
			expect(t, e, cp, "a2", false)
		}
	}
}

const orderLoopSrc = `
	% Example 5: iterate over a stored linear order a1..a4, adding b(x).
	first(e1). next(e1, e2). next(e2, e3). next(e3, e4). last(e4).
	a :- first(X), ap(X)[add: b(X)].
	ap(X) :- next(X, Y), ap(Y)[add: b(Y)].
	ap(X) :- last(X), d.
	d :- b(e1), b(e2), b(e3), b(e4).
`

func TestExample5OrderLoop(t *testing.T) {
	e, cp := newEngine(t, orderLoopSrc, Options{})
	expect(t, e, cp, "a", true)
	// ap(e2) only accumulates b(e2)..b(e4), so d fails.
	expect(t, e, cp, "ap(e2)[add: b(e2)]", false)
}

// paritySrc is Example 6 over a unary relation item/1 with n elements.
func paritySrc(n int) string {
	src := `
		even :- selectx(X), odd[add: copied(X)].
		odd :- selectx(X), even[add: copied(X)].
		even :- not selectx(X).
		selectx(X) :- item(X), not copied(X).
	`
	for i := 0; i < n; i++ {
		src += fmt.Sprintf("item(x%d).\n", i)
	}
	return src
}

func TestExample6Parity(t *testing.T) {
	for n := 0; n <= 7; n++ {
		e, cp := newEngine(t, paritySrc(n), Options{})
		wantEven := n%2 == 0
		if got := ask(t, e, cp, "even"); got != wantEven {
			t.Errorf("n=%d: even = %v, want %v", n, got, wantEven)
		}
		if n > 0 {
			if got := ask(t, e, cp, "odd"); got != !wantEven {
				t.Errorf("n=%d: odd = %v, want %v", n, got, !wantEven)
			}
		}
	}
}

// hamSrc is Example 7 (plus Example 8's NO rule) for a given digraph.
func hamSrc(nodes []string, edges [][2]string) string {
	src := `
		yes :- node(X), path(X)[add: pnode(X)].
		path(X) :- selecty(Y), edge(X, Y), path(Y)[add: pnode(Y)].
		path(X) :- not selecty(Y).
		selecty(Y) :- node(Y), not pnode(Y).
		no :- not yes.
	`
	for _, n := range nodes {
		src += fmt.Sprintf("node(%s).\n", n)
	}
	for _, e := range edges {
		src += fmt.Sprintf("edge(%s, %s).\n", e[0], e[1])
	}
	return src
}

func TestExample7Hamiltonian(t *testing.T) {
	cases := []struct {
		name  string
		nodes []string
		edges [][2]string
		want  bool
	}{
		{"single node", []string{"n1"}, nil, true},
		{"two connected", []string{"n1", "n2"}, [][2]string{{"n1", "n2"}}, true},
		{"two disconnected", []string{"n1", "n2"}, nil, false},
		{"path of 4", []string{"n1", "n2", "n3", "n4"},
			[][2]string{{"n1", "n2"}, {"n2", "n3"}, {"n3", "n4"}}, true},
		{"star has no ham path", []string{"c", "l1", "l2", "l3"},
			[][2]string{{"c", "l1"}, {"c", "l2"}, {"c", "l3"}}, false},
		{"cycle", []string{"n1", "n2", "n3"},
			[][2]string{{"n1", "n2"}, {"n2", "n3"}, {"n3", "n1"}}, true},
		{"needs the right start", []string{"n1", "n2", "n3"},
			[][2]string{{"n2", "n1"}, {"n2", "n3"}, {"n3", "n1"}}, true},
		{"wrong direction", []string{"n1", "n2", "n3"},
			[][2]string{{"n1", "n2"}, {"n1", "n3"}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, cp := newEngine(t, hamSrc(tc.nodes, tc.edges), Options{})
			expect(t, e, cp, "yes", tc.want)
			// Example 8: NO <- ~YES flips the answer.
			expect(t, e, cp, "no", !tc.want)
		})
	}
}

func TestStatsAndTable(t *testing.T) {
	e, cp := newEngine(t, paritySrc(4), Options{})
	expect(t, e, cp, "even", true)
	s := e.budget.Stats
	if s.Goals == 0 || s.MaxDepth == 0 {
		t.Errorf("stats not collected: %+v", s)
	}
	// Second ask should hit the table.
	expect(t, e, cp, "even", true)
	if work := e.budget.Stats.Sub(s); work.TableHits == 0 {
		t.Errorf("expected table hits on repeat query, got %+v", work)
	}
	e.PruneTable(everyPred(cp))
	if e.budget.Stats.TableSize != 0 {
		t.Errorf("table not cleared")
	}
}

// TestHypExtensionalPremiseMatches: a hypothetical premise over an
// extensional predicate, its adds bound, is matched in the state its adds
// make, as a plain one is in the rule's state: r(a) takes Y from e's atoms
// under e(a, z) instead of ranging Y over dom and proving each e(a, Y).
// Over 50 filler constants it costs one goal, r(a)'s own.
func TestHypExtensionalPremiseMatches(t *testing.T) {
	src := "d(a).\ne(b, c).\nr(X) :- d(X), e(X, Y)[add: e(X, z)].\n"
	for i := 0; i < 50; i++ {
		src += fmt.Sprintf("pad(c%d).\n", i)
	}
	e, cp := newEngine(t, src, Options{})
	expect(t, e, cp, "r(a)", true)
	expect(t, e, cp, "r(b)", false)
	if g, n := e.budget.Stats.Goals, e.budget.Stats.Enumerated; g != 2 || n != 0 {
		t.Errorf("r(a) and r(b) asked %d goals and enumerated %d bindings, want 2 and 0", g, n)
	}
}

func TestNoTablingMatches(t *testing.T) {
	for n := 0; n <= 4; n++ {
		src := paritySrc(n)
		e1, cp1 := newEngine(t, src, Options{})
		e2, cp2 := newEngine(t, src, Options{NoTabling: true})
		if ask(t, e1, cp1, "even") != ask(t, e2, cp2, "even") {
			t.Errorf("n=%d: tabling changes the answer", n)
		}
	}
}

func TestNoPlannerMatches(t *testing.T) {
	// Bodies ordered so left-to-right evaluation still terminates: the
	// planner-free engine enumerates unbound variables over the domain.
	src := hamSrc([]string{"n1", "n2", "n3"},
		[][2]string{{"n1", "n2"}, {"n2", "n3"}})
	e1, cp1 := newEngine(t, src, Options{})
	e2, cp2 := newEngine(t, src, Options{NoPlanner: true})
	if ask(t, e1, cp1, "yes") != ask(t, e2, cp2, "yes") {
		t.Error("planner changes the answer")
	}
}

func TestGoalBudget(t *testing.T) {
	cp := compileSrc(t, paritySrc(6))
	e := New(cp, ref.Domain(cp), Options{}, &Budget{Max: 5})
	pr, err := parser.ParsePremise("even")
	if err != nil {
		t.Fatal(err)
	}
	vars := map[string]int{}
	var names []string
	cpr, err := ast.CompilePremise(pr, cp.Syms, vars, &names)
	if err != nil {
		t.Fatal(err)
	}
	_, err = askPremise(e, cpr, e.EmptyState())
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %T, want *AbortError", err)
	}
	if ae.Limit != 5 {
		t.Errorf("AbortError.Limit = %d, want 5", ae.Limit)
	}
	// The budget is exact: exactly Max expansions ran, and the ledger
	// counts them all.
	if g := e.budget.Stats.Goals; g != 5 {
		t.Errorf("goals = %d, want exactly 5", g)
	}
}

// TestContextCancel checks that a canceled context aborts evaluation with
// ErrCanceled and a stats snapshot, and that a pre-canceled context never
// starts proving.
func TestContextCancel(t *testing.T) {
	// "even" over 9 items is false, so the untabled search is exhaustive
	// (factorial): plenty of goal expansions for the poll to notice.
	b := new(Budget)
	cp := compileSrc(t, paritySrc(9))
	e := New(cp, ref.Domain(cp), Options{NoTabling: true}, b)
	pr, err := parser.ParsePremise("even")
	if err != nil {
		t.Fatal(err)
	}
	cpr, err := ast.CompilePremise(pr, cp.Syms, map[string]int{}, new([]string))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = askCtx(ctx, b, e, cpr)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled: err = %v, want ErrCanceled", err)
	}
	if g := b.Stats.Goals; g != 0 {
		t.Errorf("pre-canceled context still expanded %d goals", g)
	}

	// Untabled parity over 8 items runs far longer than 5ms, so the
	// cancellation lands mid-evaluation.
	ctx, cancel = context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err = askCtx(ctx, b, e, cpr)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("mid-flight: err = %v, want ErrCanceled", err)
	}
	var ae *AbortError
	if !errors.As(err, &ae) || b.Work().Goals == 0 {
		t.Errorf("abort should come mid-evaluation, after goals in the ledger; got %+v, %+v", err, b.Work())
	}
}

// TestContextDeadline checks ErrDeadline on an expired deadline.
func TestContextDeadline(t *testing.T) {
	b := new(Budget)
	cp := compileSrc(t, paritySrc(9))
	e := New(cp, ref.Domain(cp), Options{NoTabling: true}, b)
	pr, err := parser.ParsePremise("even")
	if err != nil {
		t.Fatal(err)
	}
	cpr, err := ast.CompilePremise(pr, cp.Syms, map[string]int{}, new([]string))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = askCtx(ctx, b, e, cpr)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("abort took %v, want well under 2s", d)
	}
}

// TestAgainstReference differentially tests the engine against the naive
// Definition 3 interpreter on all the example programs and every ground
// atom over their domains.
func TestAgainstReference(t *testing.T) {
	// The full university program (Example 3) is excluded: its grad2/within1
	// hypothetical recursion makes the naive fixpoint reference materialise
	// an exponential state space. A trimmed variant with the same structure
	// but a two-constant course pool is used instead.
	sources := map[string]string{
		"university-small": `
			t(s1, m1).
			g(S, m) :- t(S, m1), t(S, m2).
			w(S) :- g(S, m)[add: t(S, C)].
		`,
		"chain":     chainSrc(3),
		"orderloop": orderLoopSrc,
		"parity2":   paritySrc(2),
		"parity3":   paritySrc(3),
		"ham": hamSrc([]string{"n1", "n2", "n3"},
			[][2]string{{"n1", "n2"}, {"n2", "n3"}, {"n3", "n1"}}),
		"negchain": `
			p(a). q(b).
			r(X) :- p(X), not q(X).
			s(X) :- r(X)[add: p(X)].
			w(X) :- not r(X), q(X).
		`,
		"mutual": `
			e(a, b). e(b, c).
			even(X) :- start(X).
			even(X) :- e(Y, X), odd(Y).
			odd(X) :- e(Y, X), even(Y).
			start(a).
		`,
	}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			cp := compileSrc(t, src)
			ip := ref.New(cp)
			e := New(cp, ref.Domain(cp), Options{}, nil)
			checkAllAtoms(t, cp, ip, e)
		})
	}
}

// checkAllAtoms compares engine and reference on every ground atom
// constructible from the program's predicates and domain.
func checkAllAtoms(t *testing.T, cp *ast.CProgram, ip *ref.Interp, e *Engine) {
	t.Helper()
	dom := ip.Dom()
	st := e.EmptyState()
	rst := ip.EmptyState()
	for p := symbols.Pred(0); int(p) < cp.Syms.NumPreds(); p++ {
		arity := cp.Syms.PredArity(p)
		args := make([]symbols.Const, arity)
		var rec func(i int)
		rec = func(i int) {
			if i == arity {
				idE := e.Interner().ID(p, args)
				idR := ip.Interner().ID(p, args)
				got, err := e.Ask(idE, st)
				if err != nil {
					t.Fatalf("ask: %v", err)
				}
				want := ip.Holds(idR, rst)
				if got != want {
					t.Errorf("atom %s: engine=%v ref=%v",
						e.Interner().Format(idE), got, want)
				}
				return
			}
			for _, c := range dom {
				args[i] = c
				rec(i + 1)
			}
		}
		rec(0)
	}
}

// TestMatchStateScanAllocatesNothing: matching an extensional premise
// walks the state's added atoms where they lie, in its runs and its tail,
// and allocates nothing for it — the walk must neither copy the added set
// nor move its iterator to the heap. The premise's predicate has no fact
// in the base or the delta, so every added atom is visited and none bound.
func TestMatchStateScanAllocatesNothing(t *testing.T) {
	e, cp := newEngine(t, "p(X) :- q(X).\nt(X) :- s(X).\n", Options{})
	s, ok := cp.Syms.LookupPred("s", 1)
	if !ok {
		t.Fatal("no predicate s/1")
	}
	st := e.EmptyState()
	for i := 0; i < 30; i++ {
		st = st.Add(e.in.ID(s, []symbols.Const{cp.Syms.Const(fmt.Sprint("c", i))}))
	}
	rule := &cp.Rules[cp.ByHead[cp.Rules[0].Head.Pred][0]]
	binding := ast.NewBinding(rule.NumVars)
	yield := func() error { return errors.New("q has no atom to match") }
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := facts.Match(st, rule.Body[0].Atom, binding, yield); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Match over a %d-atom delta allocates %v times per call, want 0", st.Delta.Len(), allocs)
	}
}

// TestMatchStateBindAllocatesNothing: matching a pattern with an unbound
// variable binds it for each candidate on the stack, walking the state's
// added atoms where they lie, and allocates nothing per match. The delta
// holds twelve q atoms among thirty s atoms, so the walk passes atoms of
// another predicate and binds X twelve times.
func TestMatchStateBindAllocatesNothing(t *testing.T) {
	e, cp := newEngine(t, "p(X) :- q(X).\nt(X) :- s(X).\n", Options{})
	q, _ := cp.Syms.LookupPred("q", 1)
	s, _ := cp.Syms.LookupPred("s", 1)
	st := e.EmptyState()
	for i := 0; i < 30; i++ {
		st = st.Add(e.in.ID(s, []symbols.Const{cp.Syms.Const(fmt.Sprint("c", i))}))
		if i%5 < 2 {
			st = st.Add(e.in.ID(q, []symbols.Const{cp.Syms.Const(fmt.Sprint("d", i))}))
		}
	}
	rule := &cp.Rules[cp.ByHead[cp.Rules[0].Head.Pred][0]]
	binding := ast.NewBinding(rule.NumVars)
	matches := 0
	yield := func() error {
		if binding[0] == ast.Unbound {
			return errors.New("match left X unbound")
		}
		matches++
		return nil
	}
	allocs := testing.AllocsPerRun(100, func() {
		matches = 0
		if _, err := facts.Match(st, rule.Body[0].Atom, binding, yield); err != nil {
			t.Fatal(err)
		}
	})
	if matches != 12 || binding[0] != ast.Unbound {
		t.Fatalf("Match bound X %d times (left %d), want 12 and unbound after", matches, binding[0])
	}
	if allocs != 0 {
		t.Fatalf("Match binding %d matches allocates %v times per call, want 0", matches, allocs)
	}
}

// orderSrc is Example 5's loop over a stored linear order, cut after e5:
// next(e5, e9) is not a fact, so oap(e1) holds only in a state that adds
// it. marker and next are both extensional, and the loop's states carry
// marker atoms beside whatever was added.
const orderSrc = `oa :- first(X), oap(X)[add: marker(X)].
oap(X) :- next(X, Y), oap(Y)[add: marker(Y)].
oap(X) :- last(X).
first(e1).
next(e1, e2). next(e2, e3). next(e3, e4). next(e4, e5).
last(e9).
`

// TestMatchStateFindsAddedBaseAtom: a hypothetical state that adds an atom
// of a base extensional predicate — next(e5, e9), beside next's stored
// facts — is matched by a pattern over it, whether the added atom is the
// state's only token or sits among marker tokens, added before them or
// after (the later walk reaches the state the earlier one interned,
// through another parent); a state whose tokens are all markers matches
// next's stored facts alone. The order loop then answers through it.
func TestMatchStateFindsAddedBaseAtom(t *testing.T) {
	e, cp := newEngine(t, orderSrc, Options{})
	next, _ := cp.Syms.LookupPred("next", 2)
	marker, _ := cp.Syms.LookupPred("marker", 1)
	c := cp.Syms.Const
	added := e.in.ID(next, []symbols.Const{c("e5"), c("e9")})
	var markerIDs []facts.AtomID
	for _, x := range []string{"e1", "e2", "e3", "e4", "e5", "e9"} {
		markerIDs = append(markerIDs, e.in.ID(marker, []symbols.Const{c(x)}))
	}
	var rule *ast.CRule // oap(X) :- next(X, Y), …
	for i := range cp.Rules {
		if r := &cp.Rules[i]; r.Body[0].Atom.Pred == next {
			rule = r
		}
	}
	pattern := rule.Body[0].Atom
	// Built in this order: the next-first walk interns the set the
	// markers-first walk then finds.
	alone := e.EmptyState().Add(added)
	before, markers := alone, e.EmptyState()
	for _, id := range markerIDs {
		before, markers = before.Add(id), markers.Add(id)
	}
	for _, tc := range []struct {
		name string
		st   facts.State
		want int // matches of next(X, Y)
	}{
		{"alone", alone, 5},
		{"before markers", before, 5},
		{"after markers", markers.Add(added), 5},
		{"markers only", markers, 4},
	} {
		binding := ast.NewBinding(rule.NumVars)
		found, n := false, 0
		_, err := facts.Match(tc.st, pattern, binding, func() error {
			n++
			found = found || (binding[0] == c("e5") && binding[1] == c("e9"))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != tc.want || found != (tc.want == 5) {
			t.Errorf("%s: next(X, Y) matched %d atoms (next(e5, e9) among them: %v), want %d", tc.name, n, found, tc.want)
		}
	}

	expect(t, e, cp, "oa", false)
	expect(t, e, cp, "oap(e5)[add: next(e5, e9)]", true)
	expect(t, e, cp, "oa[add: next(e5, e9)]", true)
	expect(t, e, cp, "oap(e4)[add: marker(e4), marker(e5), next(e5, e9), marker(e9)]", true)
}

// TestNewRefusesUnrewrittenNegation: the engine tests every negated
// premise ground, so a program that still has a negation with a variable
// of its own, or a negated hypothetical, is refused, not answered under
// the wrong quantifier.
func TestNewRefusesUnrewrittenNegation(t *testing.T) {
	for _, src := range []string{"empty :- not q(X).\n", "p :- not q(a)[add: w(a)].\n"} {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := ast.Compile(prog, symbols.NewTable())
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepts %q before the negation rewrite", src)
				}
			}()
			New(cp, ref.Domain(cp), Options{}, nil)
		}()
	}
}
