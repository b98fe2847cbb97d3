package turing

import (
	"strings"
	"testing"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/parser"
	"hypodatalog/internal/ref"
	"hypodatalog/internal/strat"
	"hypodatalog/internal/symbols"
	"hypodatalog/internal/topdown"
)

func allOnes(s string) bool { return !strings.ContainsRune(s, '0') }

func hasDouble(s string) bool { return strings.Contains(s, "11") }

func TestAlternatingSimulator(t *testing.T) {
	fa := AllOnesForall()
	dd := HasDoubleOne()
	for _, in := range []string{"", "0", "1", "00", "01", "10", "11", "101", "110", "111", "0110"} {
		n := 2*len(in) + 6
		got, err := fa.Accepts(in, n)
		if err != nil {
			t.Fatal(err)
		}
		if got != allOnes(in) {
			t.Errorf("AllOnesForall(%q) = %v, want %v", in, got, allOnes(in))
		}
		got, err = dd.Accepts(in, n)
		if err != nil {
			t.Fatal(err)
		}
		if got != hasDouble(in) {
			t.Errorf("HasDoubleOne(%q) = %v, want %v", in, got, hasDouble(in))
		}
	}
}

// compileAlternating parses and compiles the encoding, checking it has
// stratified negation but — per section 4 — is NOT linearly stratifiable
// when the machine has a branching universal state (rule form (2)).
func compileAlternating(t *testing.T, m *AMachine, input string, n int, wantNonLinear bool) *ast.CProgram {
	t.Helper()
	rules, err := EncodeAlternating(m)
	if err != nil {
		t.Fatal(err)
	}
	db, err := EncodeAlternatingDB(m, input, n)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parser.Parse(rules + db)
	if err != nil {
		t.Fatalf("encoding does not parse: %v\n%s", err, rules)
	}
	if errs := ast.Validate(prog); len(errs) > 0 {
		t.Fatalf("encoding invalid: %v", errs[0])
	}
	if err := strat.CheckNegation(prog); err != nil {
		t.Fatalf("recursion through negation: %v", err)
	}
	_, err = strat.Stratify(prog)
	if wantNonLinear {
		if err == nil {
			t.Fatal("universal-branching encoding unexpectedly linearly stratifiable")
		}
		if !strings.Contains(err.Error(), "non-linear") {
			t.Fatalf("wrong stratification failure: %v", err)
		}
	} else if err != nil {
		t.Fatalf("stratify: %v", err)
	}
	cp, err := ast.Compile(ast.RewriteNegation(prog), symbols.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestAlternatingEncodingMatchesSimulator: the PSPACE encoding (rule form
// (2)) agrees with direct alternating simulation — evaluated by the
// uniform engine, which handles the non-linearly-stratifiable fragment.
func TestAlternatingEncodingMatchesSimulator(t *testing.T) {
	machines := []*AMachine{AllOnesForall(), HasDoubleOne()}
	inputs := []string{"", "0", "1", "00", "01", "10", "11", "011"}
	for _, m := range machines {
		for _, in := range inputs {
			n := 2*len(in) + 6
			want, err := m.Accepts(in, n)
			if err != nil {
				t.Fatal(err)
			}
			cp := compileAlternating(t, m, in, n, true)
			e := topdown.New(cp, ref.Domain(cp), topdown.Options{}, &topdown.Budget{Max: 100_000_000})
			p, ok := cp.Syms.LookupPred("accept", 0)
			if !ok {
				t.Fatal("no accept/0")
			}
			got, err := e.Ask(e.Interner().ID(p, nil), e.EmptyState())
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("machine %s input %q: encoding=%v simulator=%v", m.Name, in, got, want)
			}
		}
	}
}

// TestUniversalRuleIsForm2 checks the syntactic claim: the universal
// state's rule has two recursive hypothetical premises — exactly the
// form (2) that section 4 disallows for linear stratification.
func TestUniversalRuleIsForm2(t *testing.T) {
	rules, err := EncodeAlternating(AllOnesForall())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, line := range strings.Split(rules, "\n") {
		if strings.Count(line, "aaccept(Tn)[add:") >= 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no rule-form-(2) rule in:\n%s", rules)
	}
}

// TestVacuousUniversal: a universal state with no applicable transition
// accepts vacuously, in both simulator and encoding.
func TestVacuousUniversal(t *testing.T) {
	m := &AMachine{
		Name:      "vacuous",
		Start:     "u",
		Accepting: map[string]bool{},
		Universal: map[string]bool{"u": true},
		Blank:     'x',
		Alphabet:  Alphabet01,
		Transitions: []ATransition{
			// Only defined on '0'; reading anything else is a vacuous ∀.
			{From: "u", Read: '0', Write: '0', Move: Stay, To: "dead"},
		},
	}
	for _, tc := range []struct {
		in   string
		want bool
	}{
		{"1", true}, {"", true}, {"0", false},
	} {
		n := 6
		got, err := m.Accepts(tc.in, n)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("simulator vacuous(%q) = %v, want %v", tc.in, got, tc.want)
		}
		cp := compileAlternating(t, m, tc.in, n, false)
		e := topdown.New(cp, ref.Domain(cp), topdown.Options{}, nil)
		p, _ := cp.Syms.LookupPred("accept", 0)
		enc, err := e.Ask(e.Interner().ID(p, nil), e.EmptyState())
		if err != nil {
			t.Fatal(err)
		}
		if enc != tc.want {
			t.Errorf("encoding vacuous(%q) = %v, want %v", tc.in, enc, tc.want)
		}
	}
}
