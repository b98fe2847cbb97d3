package hypo

import (
	"bytes"
	"context"
	"sort"
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return p
}

func mustEngine(t *testing.T, src string, opts Options) *Engine {
	t.Helper()
	e, err := New(mustParse(t, src), opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

// reader is the one read method Engine and Pool share.
type reader interface {
	Read(context.Context, Request, func(Binding) error) (ReadInfo, error)
}

// collect reads req from r and gathers its bindings (nil on error).
func collect(ctx context.Context, r reader, req Request) ([]Binding, ReadInfo, error) {
	var bs []Binding
	info, err := r.Read(ctx, req, collectInto(&bs))
	if err != nil {
		return nil, info, err
	}
	return bs, info, nil
}

// ask, askUnder and query are the tests' call shapes over Read.
func ask(ctx context.Context, r reader, q string) (bool, error) {
	bs, _, err := collect(ctx, r, Request{Kind: ReadAsk, Query: q})
	return len(bs) > 0, err
}

func askUnder(ctx context.Context, r reader, q string, added ...string) (bool, error) {
	bs, _, err := collect(ctx, r, Request{Kind: ReadAskUnder, Query: q, Add: added})
	return len(bs) > 0, err
}

func query(ctx context.Context, r reader, q string) ([]Binding, error) {
	bs, _, err := collect(ctx, r, Request{Kind: ReadQuery, Query: q})
	return bs, err
}

const uniSrc = `
	take(tony, his101).
	take(tony, eng201).
	take(mary, his101).
	grad(S) :- take(S, his101), take(S, eng201).
`

func TestAskGround(t *testing.T) {
	e := mustEngine(t, uniSrc, Options{})
	for q, want := range map[string]bool{
		"grad(tony)":                          true,
		"grad(mary)":                          false,
		"grad(mary)[add: take(mary, eng201)]": true,
		"not grad(mary)":                      true,
	} {
		got, err := e.Ask(q)
		if err != nil {
			t.Fatalf("Ask(%q): %v", q, err)
		}
		if got != want {
			t.Errorf("Ask(%q) = %v, want %v", q, got, want)
		}
	}
}

func TestAskRejectsNonGround(t *testing.T) {
	e := mustEngine(t, uniSrc, Options{})
	if _, err := e.Ask("grad(S)"); err == nil {
		t.Error("expected non-ground rejection")
	}
}

func TestQueryBindings(t *testing.T) {
	e := mustEngine(t, uniSrc, Options{})
	// Example 2: who could graduate with one more course?
	bs, err := e.Query("grad(S)[add: take(S, C)]")
	if err != nil {
		t.Fatal(err)
	}
	students := map[string]bool{}
	for _, b := range bs {
		students[b["S"]] = true
	}
	if !students["tony"] || !students["mary"] {
		t.Errorf("students = %v", students)
	}
}

func TestAskUnder(t *testing.T) {
	e := mustEngine(t, uniSrc, Options{})
	got, err := e.AskUnder("grad(mary)", "take(mary, eng201)")
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("AskUnder failed")
	}
	if _, err := e.AskUnder("grad(mary)", "take(mary, C)"); err == nil {
		t.Error("expected non-ground add rejection")
	}
}

func TestStratificationReport(t *testing.T) {
	p := mustParse(t, `
		a2 :- b2, a2[add: c2].
		a2 :- d2, not a1.
		a1 :- b1, a1[add: c1].
		a1 :- d1.
	`)
	s := p.Stratification()
	if !s.Linear || s.Strata != 2 {
		t.Errorf("stratification = %+v", s)
	}
	if s.Partition["a1/0"]%2 != 0 {
		t.Errorf("a1 partition = %d, want even", s.Partition["a1/0"])
	}

	p2 := mustParse(t, "a :- b, a[add: c1], a[add: c2].\n")
	s2 := p2.Stratification()
	if s2.Linear {
		t.Error("non-linear program reported as linear")
	}
	if !strings.Contains(s2.Reason, "non-linear") {
		t.Errorf("reason = %q", s2.Reason)
	}
}

func TestRecursionThroughNegationRejectedAtParse(t *testing.T) {
	if _, err := Parse("a :- not b.\nb :- not a.\n"); err == nil {
		t.Error("expected parse-time rejection")
	}
}

func TestNegHypRewriteAccepted(t *testing.T) {
	e := mustEngine(t, `
		p(a).
		q(X) :- p(X), not r(X)[add: w(X)].
		r(X) :- w(X), blocked.
	`, Options{})
	// blocked is false, so r(a) is not provable even with w(a): q(a) holds.
	got, err := e.Ask("q(a)")
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("q(a) should hold via the rewritten negated hypothetical")
	}
}

func TestModeCascadeRequiresLinear(t *testing.T) {
	p := mustParse(t, "a :- b, a[add: c1], a[add: c2].\n")
	if _, err := New(p, Options{Mode: ModeCascade}); err == nil {
		t.Error("cascade over non-linear program should fail")
	}
	if _, err := New(p, Options{Mode: ModeUniform}); err != nil {
		t.Errorf("uniform mode should work: %v", err)
	}
	// Auto falls back to uniform.
	if _, err := New(p, Options{}); err != nil {
		t.Errorf("auto mode should work: %v", err)
	}
}

func TestModesAgree(t *testing.T) {
	src := `
		item(x0). item(x1). item(x2).
		even :- selectx(X), odd[add: copied(X)].
		odd :- selectx(X), even[add: copied(X)].
		even :- not selectx(X).
		selectx(X) :- item(X), not copied(X).
	`
	u := mustEngine(t, src, Options{Mode: ModeUniform})
	c := mustEngine(t, src, Options{Mode: ModeCascade})
	for _, q := range []string{"even", "odd"} {
		gu, err := u.Ask(q)
		if err != nil {
			t.Fatal(err)
		}
		gc, err := c.Ask(q)
		if err != nil {
			t.Fatal(err)
		}
		if gu != gc {
			t.Errorf("query %q: uniform=%v cascade=%v", q, gu, gc)
		}
	}
}

func TestExtraDomain(t *testing.T) {
	e := mustEngine(t, "grad(S) :- take(S, c1).\n", Options{ExtraDomain: []string{"bob", "c1"}})
	got, err := e.Ask("grad(bob)[add: take(bob, c1)]")
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("extra-domain query failed")
	}
}

func TestProgramAccessors(t *testing.T) {
	p := mustParse(t, "p(a).\nq(X) :- p(X).\n?- q(a).\n")
	if len(p.Queries()) != 1 || p.Queries()[0] != "q(a)" {
		t.Errorf("queries = %v", p.Queries())
	}
	if !strings.Contains(p.String(), "q(X) :- p(X).") {
		t.Errorf("String() = %q", p.String())
	}
	sigs := p.AST().Predicates()
	var names []string
	for _, s := range sigs {
		names = append(names, s.String())
	}
	sort.Strings(names)
	if strings.Join(names, ",") != "p/1,q/1" {
		t.Errorf("predicates = %v", names)
	}
}

func TestStatsExposed(t *testing.T) {
	e := mustEngine(t, uniSrc, Options{Mode: ModeUniform})
	if _, err := e.Ask("grad(tony)"); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Goals == 0 {
		t.Error("no goals counted")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	p := mustParse(t, uniSrc)
	var buf bytes.Buffer
	if err := p.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	p2, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(p2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Ask("grad(tony)")
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("snapshot lost derivability of grad(tony)")
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"p(",              // syntax
		"p(X).\np(a, b).", // arity conflict
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}
