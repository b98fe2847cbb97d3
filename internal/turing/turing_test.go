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

func hasOne(s string) bool { return strings.ContainsRune(s, '1') }

func TestSimulatorHasOne(t *testing.T) {
	m := HasOne()
	for _, tc := range []struct {
		in   string
		want bool
	}{
		{"", false}, {"0", false}, {"1", true}, {"01", true},
		{"000", false}, {"001", true}, {"100", true}, {"010", true},
	} {
		got, err := m.Accepts(tc.in, 2*len(tc.in)+6)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("HasOne(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestSimulatorNondeterminism(t *testing.T) {
	m := GuessOne()
	for _, in := range []string{"", "0", "1", "00", "01", "10", "010"} {
		got, err := m.Accepts(in, 2*len(in)+6)
		if err != nil {
			t.Fatal(err)
		}
		if got != hasOne(in) {
			t.Errorf("GuessOne(%q) = %v, want %v", in, got, hasOne(in))
		}
	}
}

func TestSimulatorOracleCascades(t *testing.T) {
	yes := CopyThenAskYes()
	no := CopyThenAskNo()
	three := ThreeLevel()
	for _, in := range []string{"", "0", "1", "00", "01", "10", "11", "000", "010"} {
		n := 3*len(in) + 8
		gotYes, err := yes.Accepts(in, n)
		if err != nil {
			t.Fatal(err)
		}
		if gotYes != hasOne(in) {
			t.Errorf("CopyThenAskYes(%q) = %v, want %v", in, gotYes, hasOne(in))
		}
		gotNo, err := no.Accepts(in, n)
		if err != nil {
			t.Fatal(err)
		}
		if gotNo != !hasOne(in) {
			t.Errorf("CopyThenAskNo(%q) = %v, want %v", in, gotNo, !hasOne(in))
		}
		gotThree, err := three.Accepts(in, n+4)
		if err != nil {
			t.Fatal(err)
		}
		if gotThree != !hasOne(in) {
			t.Errorf("ThreeLevel(%q) = %v, want %v", in, gotThree, !hasOne(in))
		}
	}
}

func TestSimulatorClockBudget(t *testing.T) {
	// With too small a clock the machine cannot reach the 1.
	m := HasOne()
	got, err := m.Accepts("0001", 4) // needs 4 moves + accept check
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("accepted despite exhausted clock")
	}
	got, err = m.Accepts("0001", 8)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("rejected despite sufficient clock")
	}
}

func TestValidate(t *testing.T) {
	bad := HasOne()
	bad.Transitions[0].WriteOracle = '0' // no oracle to write
	if err := bad.Validate(); err == nil {
		t.Error("expected oracle-write validation error")
	}
	bad2 := CopyThenAskYes()
	bad2.Transitions = append(bad2.Transitions,
		Transition{From: "pq", Read: 'x', WriteWork: 'x', MoveWork: Stay, WriteOracle: 'x', To: "p0"})
	if err := bad2.Validate(); err == nil {
		t.Error("expected query-state transition rejection")
	}
}

// compileEncoding parses and compiles R(L) ∪ DB(s̄), checking the linear
// stratification along the way.
func compileEncoding(t *testing.T, m *Machine, input string, n int) (*ast.CProgram, *strat.Stratification) {
	t.Helper()
	src, err := Encode(m, input, n)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("encoding does not parse: %v", err)
	}
	if errs := ast.Validate(prog); len(errs) > 0 {
		t.Fatalf("encoding invalid: %v", errs[0])
	}
	prog = ast.RewriteNegation(prog)
	s, err := strat.Stratify(prog)
	if err != nil {
		t.Fatalf("encoding not linearly stratifiable: %v", err)
	}
	cp, err := ast.Compile(prog, symbols.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	return cp, s
}

// TestEncodingStrataCount checks the headline structural property: R(L)
// for a k-machine cascade has exactly k strata.
func TestEncodingStrataCount(t *testing.T) {
	for _, tc := range []struct {
		m *Machine
		k int
	}{
		{HasOne(), 1},
		{GuessOne(), 1},
		{CopyThenAskYes(), 2},
		{CopyThenAskNo(), 2},
		{ThreeLevel(), 3},
	} {
		_, s := compileEncoding(t, tc.m, "01", 8)
		if s.NumStrata != tc.k {
			t.Errorf("machine %s: %d strata, want %d", tc.m.Name, s.NumStrata, tc.k)
		}
	}
}

// TestEncodingRulesInputIndependent checks that R(L) does not depend on
// the input string (only DB(s̄) does).
func TestEncodingRulesInputIndependent(t *testing.T) {
	m := CopyThenAskYes()
	r1, err := EncodeRules(m)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := EncodeRules(m)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("EncodeRules is not deterministic")
	}
	db1, err := EncodeDB(m, "01", 8)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := EncodeDB(m, "10", 8)
	if err != nil {
		t.Fatal(err)
	}
	if db1 == db2 {
		t.Error("different inputs produced identical databases")
	}
}

// askAccept evaluates the 0-ary accept goal of an encoding.
func askAccept(t *testing.T, cp *ast.CProgram) bool {
	t.Helper()
	e := topdown.New(cp, ref.Domain(cp), topdown.Options{}, &topdown.Budget{Max: 50_000_000})
	p, ok := cp.Syms.LookupPred("accept", 0)
	if !ok {
		t.Fatal("encoding has no accept predicate")
	}
	goal := e.Interner().ID(p, nil)
	got, err := e.Ask(goal, e.EmptyState())
	if err != nil {
		t.Fatalf("ask accept: %v", err)
	}
	return got
}

func TestEndsWithOneLeftMoves(t *testing.T) {
	m := EndsWithOne()
	for _, tc := range []struct {
		in   string
		want bool
	}{
		{"", false}, {"1", true}, {"0", false}, {"01", true},
		{"10", false}, {"11", true}, {"010", false}, {"011", true},
	} {
		n := 2*len(tc.in) + 6
		got, err := m.Accepts(tc.in, n)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("EndsWithOne(%q) = %v, want %v", tc.in, got, tc.want)
		}
		// And the encoding (exercises the left-move rule form).
		cp, _ := compileEncoding(t, m, tc.in, n)
		if enc := askAccept(t, cp); enc != tc.want {
			t.Errorf("encoding EndsWithOne(%q) = %v, want %v", tc.in, enc, tc.want)
		}
	}
}

// TestEncodingMatchesSimulator is the Theorem 1 lower-bound experiment:
// R(L), DB(s̄) ⊢ accept iff the machine cascade accepts s̄.
func TestEncodingMatchesSimulator(t *testing.T) {
	machines := []*Machine{HasOne(), GuessOne(), EndsWithOne(), CopyThenAskYes(), CopyThenAskNo()}
	inputs := []string{"", "0", "1", "01", "10", "00", "11"}
	for _, m := range machines {
		for _, in := range inputs {
			n := 2*len(in) + 6
			want, err := m.Accepts(in, n)
			if err != nil {
				t.Fatal(err)
			}
			cp, _ := compileEncoding(t, m, in, n)
			if got := askAccept(t, cp); got != want {
				t.Errorf("machine %s input %q: encoding=%v simulator=%v", m.Name, in, got, want)
			}
		}
	}
}

// TestEncodingThreeLevels runs the k=3 cascade end to end on the smallest
// inputs (it is the most expensive encoding).
func TestEncodingThreeLevels(t *testing.T) {
	if testing.Short() {
		t.Skip("three-level encoding is slow")
	}
	m := ThreeLevel()
	for _, in := range []string{"", "1", "0"} {
		n := 3*len(in) + 7
		want, err := m.Accepts(in, n)
		if err != nil {
			t.Fatal(err)
		}
		cp, s := compileEncoding(t, m, in, n)
		if s.NumStrata != 3 {
			t.Fatalf("strata = %d", s.NumStrata)
		}
		if got := askAccept(t, cp); got != want {
			t.Errorf("three-level input %q: encoding=%v simulator=%v", in, got, want)
		}
	}
}
