// Package difftest cross-checks the package's evaluators against each
// other through the public API: the top-down tabled engine
// (hypo.ModeUniform), the paper's PROVE_Σ/PROVE_Δ cascade
// (hypo.ModeCascade, when the program is linearly stratifiable), the
// naive Definition-3 reference interpreter (internal/ref), and — as a
// further implementation — engines mutated in place through
// Engine.ApplyDelta, which must agree with a cold rebuild at the
// post-batch fact set. Any disagreement on Ask, Query or
// AskUnder is a bug in at least one of them.
//
// The existing fuzzers in internal/topdown and internal/engine compare
// the evaluators below the public surface — on interned atom IDs, with
// hand-built states. This package closes the remaining gap: it drives
// the same surface strings (query text, hypothetical add lists) that the
// HTTP server and the answer cache key on, so a divergence introduced in
// parsing, compilation, domain checking or result materialisation is
// caught too, not just one in the provers.
package difftest

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	hypo "hypodatalog"
	"hypodatalog/internal/ast"
	"hypodatalog/internal/parser"
	"hypodatalog/internal/ref"
	"hypodatalog/internal/strat"
	"hypodatalog/internal/symbols"
)

// ErrSkip reports that an input is out of scope for differential
// checking — it does not parse, fails validation or stratification (the
// fuzzer mutates source text freely), or is too large for the
// exponential reference interpreter to ground out. Test with errors.Is.
var ErrSkip = errors.New("difftest: input out of scope")

// Bounds keeping one Check call tractable: the reference interpreter is
// deliberately exponential in the reachable hypothetical states, and the
// enumeration below grounds every predicate over the full domain.
const (
	maxSrcBytes   = 8 << 10
	maxDomain     = 4
	maxGroundQs   = 300
	maxHypAtoms   = 6
	maxRefWork    = 300_000
	maxGoalBudget = 500_000

	// checkDeadline bounds the engine-side wall clock of one Check call.
	// Fuzz mutation finds programs whose every query runs long without
	// ever tripping the goal budget; without a hard clock those dominate
	// the fuzzing loop. Hitting the deadline skips the input — which
	// queries complete before it varies with machine speed, but a
	// disagreement can only ever be reported on completed answers, never
	// manufactured by the timeout.
	checkDeadline = 3 * time.Second
)

// Check parses src and asserts that every evaluator agrees on:
//
//   - Ask for every ground atom of arity ≤ 2 over the program's domain;
//   - Query("p(X)") / Query("p(X, Y)") binding sets for those predicates;
//   - AskUnder with hypothetical pool/1 and side/1 additions, when the
//     program declares either (the convention of
//     workload.RandomStratifiedProgram).
//
// It returns nil when all evaluators agree, an error wrapping ErrSkip
// when the input is out of scope, and a descriptive disagreement error
// otherwise.
func Check(src string) error {
	if len(src) > maxSrcBytes {
		return fmt.Errorf("%w: source over %d bytes", ErrSkip, maxSrcBytes)
	}
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
	dom := ip.Dom()
	if len(dom) == 0 || len(dom) > maxDomain {
		return fmt.Errorf("%w: domain size %d", ErrSkip, len(dom))
	}
	if groundQueries(cp.Syms, len(dom)) > maxGroundQs {
		return fmt.Errorf("%w: too many ground queries", ErrSkip)
	}
	hyp := hypAtoms(prog, len(dom))
	if hyp > maxHypAtoms {
		return fmt.Errorf("%w: %d hypothetically mutable ground atoms", ErrSkip, hyp)
	}
	if w := refWork(prog, len(dom), hyp); w > maxRefWork {
		return fmt.Errorf("%w: reference work estimate %d", ErrSkip, w)
	}

	// The same source through the public API. The internal pipeline above
	// accepted it, so a public-surface rejection is itself a finding.
	hp, err := hypo.Parse(src)
	if err != nil {
		return fmt.Errorf("difftest: internal parser accepts but hypo.Parse rejects: %v\n%s", err, src)
	}
	engines := map[string]*hypo.Engine{}
	uni, err := hypo.New(hp, hypo.Options{Mode: hypo.ModeUniform, MaxGoals: maxGoalBudget})
	if err != nil {
		return fmt.Errorf("%w: ModeUniform construction: %v", ErrSkip, err)
	}
	engines["uniform"] = uni
	if hp.Stratification().Linear {
		casc, err := hypo.New(hp, hypo.Options{Mode: hypo.ModeCascade, MaxGoals: maxGoalBudget})
		if err != nil {
			return fmt.Errorf("difftest: linearly stratifiable per Stratification() but ModeCascade fails: %v\n%s", err, src)
		}
		engines["cascade"] = casc
	}

	ctx, cancel := context.WithTimeout(context.Background(), checkDeadline)
	defer cancel()
	if err := checkAsk(ctx, src, cp.Syms, dom, ip, engines); err != nil {
		return err
	}
	if err := checkQuery(ctx, src, cp.Syms, dom, ip, engines); err != nil {
		return err
	}
	if err := checkAskUnder(ctx, src, cp.Syms, dom, ip, engines); err != nil {
		return err
	}
	return checkIncremental(ctx, src, prog, cp, dom, hp)
}

// checkIncremental is the fourth implementation under test: engines
// mutated in place through Engine.ApplyDelta must agree with a cold
// engine built from scratch at the post-batch fact set. The batch is
// derived deterministically from the program — every third extensional
// ground atom over the domain, capped — flipping membership: present
// facts are retracted (exercising DRed delete-rederive), absent ones
// asserted (semi-naive propagation). The cold engine pins the original
// domain via ExtraDomain, matching the incremental engines' fixed
// dom(R, DB).
func checkIncremental(ctx context.Context, src string, prog *ast.Program, cp *ast.CProgram, dom []symbols.Const, hp *hypo.Program) error {
	syms := cp.Syms
	factSet := map[string]ast.Atom{}
	for _, f := range prog.Facts {
		factSet[f.String()] = f
	}
	const maxBatch = 6
	var asserts, retracts []string
	cand := 0
	_ = eachGroundAtom(syms, dom, func(p symbols.Pred, args []symbols.Const) error {
		if cp.IDB[p] || len(asserts)+len(retracts) >= maxBatch {
			return nil
		}
		cand++
		if cand%3 != 0 {
			return nil
		}
		a := ast.Atom{Pred: syms.PredName(p)}
		for _, c := range args {
			a.Args = append(a.Args, ast.Term{Name: syms.ConstName(c)})
		}
		k := a.String()
		if _, ok := factSet[k]; ok {
			retracts = append(retracts, k)
			delete(factSet, k)
		} else {
			asserts = append(asserts, k)
			factSet[k] = a
		}
		return nil
	})
	if len(asserts)+len(retracts) == 0 {
		return nil
	}

	incremental := map[string]*hypo.Engine{}
	extra := make([]string, len(dom))
	for i, c := range dom {
		extra[i] = syms.ConstName(c)
	}
	opts := hypo.Options{Mode: hypo.ModeUniform, MaxGoals: maxGoalBudget, ExtraDomain: extra}
	uni, err := hypo.New(hp, opts)
	if err != nil {
		return fmt.Errorf("%w: incremental ModeUniform construction: %v", ErrSkip, err)
	}
	incremental["incremental-uniform"] = uni
	if hp.Stratification().Linear {
		opts.Mode = hypo.ModeCascade
		casc, err := hypo.New(hp, opts)
		if err != nil {
			return fmt.Errorf("%w: incremental ModeCascade construction: %v", ErrSkip, err)
		}
		incremental["incremental-cascade"] = casc
	}
	for name, e := range incremental {
		if err := e.ApplyDelta(asserts, retracts); err != nil {
			// Admission rejections on fuzz-shaped names (quoting, arity
			// oddities) put the batch out of scope rather than failing it;
			// correctness bugs surface in the comparisons below.
			return fmt.Errorf("%w: %s ApplyDelta: %v", ErrSkip, name, err)
		}
	}

	// The cold reference: the same rules re-parsed with the post-batch
	// facts (Rule.String/Atom.String round-trip through the parser).
	var b strings.Builder
	for _, r := range prog.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	keys := make([]string, 0, len(factSet))
	for k := range factSet {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.WriteString(k)
		b.WriteString(".\n")
	}
	coldProg, err := hypo.Parse(b.String())
	if err != nil {
		return fmt.Errorf("%w: post-batch source re-parse: %v", ErrSkip, err)
	}
	opts.Mode = hypo.ModeUniform
	cold, err := hypo.New(coldProg, opts)
	if err != nil {
		return fmt.Errorf("%w: cold post-batch construction: %v", ErrSkip, err)
	}

	batch := fmt.Sprintf("assert %v retract %v", asserts, retracts)
	err = eachGroundAtom(syms, dom, func(p symbols.Pred, args []symbols.Const) error {
		q := atomString(syms, p, args)
		want, err := ask(ctx, cold, q)
		if err != nil {
			return skipOrFail("cold-rebuild", q, err, src)
		}
		for name, e := range incremental {
			got, err := ask(ctx, e, q)
			if err != nil {
				return skipOrFail(name, q, err, src)
			}
			if got != want {
				return fmt.Errorf("difftest: after %s, Ask(%s): %s=%v cold=%v\n%s",
					batch, q, name, got, want, src)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for p := symbols.Pred(0); int(p) < syms.NumPreds(); p++ {
		arity := syms.PredArity(p)
		if arity < 1 || arity > 2 {
			continue
		}
		q := syms.PredName(p) + "(X)"
		if arity == 2 {
			q = syms.PredName(p) + "(X, Y)"
		}
		wantBs, err := query(ctx, cold, q)
		if err != nil {
			return skipOrFail("cold-rebuild", q, err, src)
		}
		want := canonBindings(wantBs)
		for name, e := range incremental {
			bs, err := query(ctx, e, q)
			if err != nil {
				return skipOrFail(name, q, err, src)
			}
			if got := canonBindings(bs); !equalStrings(got, want) {
				return fmt.Errorf("difftest: after %s, Query(%s): %s=%v cold=%v\n%s",
					batch, q, name, got, want, src)
			}
		}
	}
	poolPred, ok := syms.LookupPred("pool", 1)
	if !ok || len(dom) == 0 {
		return nil
	}
	// One hypothetical probe: mutated base plus a pool/1 extension, so
	// the post-batch memo state is also exercised under [add:].
	add := atomString(syms, poolPred, []symbols.Const{dom[0]})
	return eachGroundAtom(syms, dom, func(p symbols.Pred, args []symbols.Const) error {
		q := atomString(syms, p, args)
		want, err := ask(ctx, cold, q, add)
		if err != nil {
			return skipOrFail("cold-rebuild", q, err, src)
		}
		for name, e := range incremental {
			got, err := ask(ctx, e, q, add)
			if err != nil {
				return skipOrFail(name, q, err, src)
			}
			if got != want {
				return fmt.Errorf("difftest: after %s, AskUnder(%s, add %s): %s=%v cold=%v\n%s",
					batch, q, add, name, got, want, src)
			}
		}
		return nil
	})
}

// hypAtoms counts the ground atoms of predicates that appear in an add or
// del position anywhere in the program. The reference interpreter's state
// space is exponential in this number (each such atom can be added,
// deleted or untouched along a premise chain), so fuzz-mutated sources
// with many hypothetical premises must be skipped, not endured.
func hypAtoms(prog *ast.Program, domSize int) int {
	preds := map[string]int{}
	for _, r := range prog.Rules {
		for _, pr := range r.Body {
			for _, a := range pr.Adds {
				preds[a.Pred] = a.Arity()
			}
			for _, a := range pr.Dels {
				preds[a.Pred] = a.Arity()
			}
		}
	}
	n := 0
	for _, arity := range preds {
		atoms := 1
		for i := 0; i < arity; i++ {
			atoms *= domSize
		}
		n += atoms
	}
	return n
}

// refWork estimates the reference interpreter's cost: ground
// substitutions per rule (|dom|^vars), summed over rules, times the
// hypothetical state-space bound (3^hypAtoms: each mutable atom is
// added, deleted or untouched). The interpreter has no deadline, so
// inputs whose estimate explodes — fuzz mutation loves rules with many
// distinct variables — are skipped up front.
func refWork(prog *ast.Program, domSize, hypCount int) int {
	subst := 0
	for _, r := range prog.Rules {
		w := 1
		for range r.Vars() {
			w *= domSize
			if w > maxRefWork {
				return maxRefWork + 1
			}
		}
		subst += w
	}
	states := 1
	for i := 0; i < hypCount; i++ {
		states *= 3
	}
	if subst > 0 && states > maxRefWork/subst {
		return maxRefWork + 1
	}
	return subst * states
}

// groundQueries counts the ground atoms the enumeration below will ask.
func groundQueries(syms *symbols.Table, domSize int) int {
	n := 0
	for p := symbols.Pred(0); int(p) < syms.NumPreds(); p++ {
		switch syms.PredArity(p) {
		case 0:
			n++
		case 1:
			n += domSize
		case 2:
			n += domSize * domSize
		}
	}
	return n
}

// atomString renders p(c1, ..., ck) in surface syntax.
func atomString(syms *symbols.Table, p symbols.Pred, args []symbols.Const) string {
	if len(args) == 0 {
		return syms.PredName(p)
	}
	names := make([]string, len(args))
	for i, c := range args {
		names[i] = syms.ConstName(c)
	}
	return syms.PredName(p) + "(" + strings.Join(names, ", ") + ")"
}

// eachGroundAtom calls fn for every ground atom of arity ≤ 2 over dom.
func eachGroundAtom(syms *symbols.Table, dom []symbols.Const, fn func(p symbols.Pred, args []symbols.Const) error) error {
	for p := symbols.Pred(0); int(p) < syms.NumPreds(); p++ {
		switch syms.PredArity(p) {
		case 0:
			if err := fn(p, nil); err != nil {
				return err
			}
		case 1:
			for _, c := range dom {
				if err := fn(p, []symbols.Const{c}); err != nil {
					return err
				}
			}
		case 2:
			for _, c1 := range dom {
				for _, c2 := range dom {
					if err := fn(p, []symbols.Const{c1, c2}); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// ask decides a ground read on e: a plain Ask, or an AskUnder when adds
// are given.
func ask(ctx context.Context, e *hypo.Engine, q string, adds ...string) (ok bool, err error) {
	kind := hypo.ReadAsk
	if len(adds) > 0 {
		kind = hypo.ReadAskUnder
	}
	_, err = e.Read(ctx, hypo.Request{Kind: kind, Query: q, Add: adds}, func(hypo.Binding) error {
		ok = true
		return nil
	})
	return ok, err
}

// query collects every binding of a read on e.
func query(ctx context.Context, e *hypo.Engine, q string) (bs []hypo.Binding, err error) {
	_, err = e.Read(ctx, hypo.Request{Kind: hypo.ReadQuery, Query: q}, func(b hypo.Binding) error {
		bs = append(bs, b)
		return nil
	})
	return bs, err
}

// skipOrFail wraps an evaluation error: budget or deadline exhaustion
// makes the whole input out of scope, anything else is a real failure.
func skipOrFail(name, q string, err error, src string) error {
	if errors.Is(err, hypo.ErrBudget) || errors.Is(err, hypo.ErrDeadline) || errors.Is(err, hypo.ErrCanceled) {
		return fmt.Errorf("%w: %s gave up on %s: %v", ErrSkip, name, q, err)
	}
	return fmt.Errorf("difftest: engine %s failed on %s: %v\n%s", name, q, err, src)
}

func checkAsk(ctx context.Context, src string, syms *symbols.Table, dom []symbols.Const, ip *ref.Interp, engines map[string]*hypo.Engine) error {
	return eachGroundAtom(syms, dom, func(p symbols.Pred, args []symbols.Const) error {
		q := atomString(syms, p, args)
		want := ip.Holds(ip.Interner().ID(p, args), ip.EmptyState())
		for name, e := range engines {
			got, err := ask(ctx, e, q)
			if err != nil {
				return skipOrFail(name, q, err, src)
			}
			if got != want {
				return fmt.Errorf("difftest: Ask(%s): %s=%v ref=%v\n%s", q, name, got, want, src)
			}
		}
		return nil
	})
}

func checkQuery(ctx context.Context, src string, syms *symbols.Table, dom []symbols.Const, ip *ref.Interp, engines map[string]*hypo.Engine) error {
	for p := symbols.Pred(0); int(p) < syms.NumPreds(); p++ {
		arity := syms.PredArity(p)
		if arity < 1 || arity > 2 {
			continue
		}
		var q string
		var want []string
		if arity == 1 {
			q = syms.PredName(p) + "(X)"
			for _, c := range dom {
				if ip.Holds(ip.Interner().ID(p, []symbols.Const{c}), ip.EmptyState()) {
					want = append(want, "X="+syms.ConstName(c))
				}
			}
		} else {
			q = syms.PredName(p) + "(X, Y)"
			for _, c1 := range dom {
				for _, c2 := range dom {
					if ip.Holds(ip.Interner().ID(p, []symbols.Const{c1, c2}), ip.EmptyState()) {
						want = append(want, "X="+syms.ConstName(c1)+",Y="+syms.ConstName(c2))
					}
				}
			}
		}
		sort.Strings(want)
		for name, e := range engines {
			bs, err := query(ctx, e, q)
			if err != nil {
				return skipOrFail(name, q, err, src)
			}
			got := canonBindings(bs)
			if !equalStrings(got, want) {
				return fmt.Errorf("difftest: Query(%s): %s=%v ref=%v\n%s", q, name, got, want, src)
			}
		}
	}
	return nil
}

// checkAskUnder compares every evaluator under hypothetical extensions of
// the pool/1 and side/1 relations — each single atom, one two-atom set of
// each pool, and sets mixing the two, so that a side atom some goals cannot
// read sits in states beside pool atoms they can. Programs with neither
// are vacuously fine (Ask already covered them).
func checkAskUnder(ctx context.Context, src string, syms *symbols.Table, dom []symbols.Const, ip *ref.Interp, engines map[string]*hypo.Engine) error {
	type atom struct {
		pred symbols.Pred
		arg  symbols.Const
	}
	var pools []symbols.Pred
	for _, name := range []string{"pool", "side"} {
		if p, ok := syms.LookupPred(name, 1); ok {
			pools = append(pools, p)
		}
	}
	var addSets [][]atom
	for _, p := range pools {
		for _, c := range dom {
			addSets = append(addSets, []atom{{p, c}})
		}
		if len(dom) >= 2 {
			addSets = append(addSets, []atom{{p, dom[0]}, {p, dom[1]}})
		}
	}
	if len(pools) == 2 {
		for _, c := range dom {
			addSets = append(addSets, []atom{{pools[0], dom[0]}, {pools[1], c}})
		}
	}
	for _, set := range addSets {
		adds := make([]string, len(set))
		stR := ip.EmptyState()
		for i, a := range set {
			args := []symbols.Const{a.arg}
			adds[i] = atomString(syms, a.pred, args)
			stR = stR.Add(ip.Interner().ID(a.pred, args))
		}
		err := eachGroundAtom(syms, dom, func(p symbols.Pred, args []symbols.Const) error {
			q := atomString(syms, p, args)
			want := ip.Holds(ip.Interner().ID(p, args), stR)
			for name, e := range engines {
				got, err := ask(ctx, e, q, adds...)
				if err != nil {
					return skipOrFail(name, q, err, src)
				}
				if got != want {
					return fmt.Errorf("difftest: AskUnder(%s, add %v): %s=%v ref=%v\n%s",
						q, adds, name, got, want, src)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// canonBindings renders a binding set in a sorted canonical form so two
// evaluators' answer sets compare independent of enumeration order.
func canonBindings(bs []hypo.Binding) []string {
	out := make([]string, 0, len(bs))
	for _, b := range bs {
		keys := make([]string, 0, len(b))
		for k := range b {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k + "=" + b[k]
		}
		out = append(out, strings.Join(parts, ","))
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
