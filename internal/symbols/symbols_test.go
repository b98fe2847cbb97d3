package symbols

import (
	"testing"
	"testing/quick"
)

func TestPredInterning(t *testing.T) {
	tb := NewTable()
	p1 := tb.Pred("edge", 2)
	p2 := tb.Pred("edge", 2)
	if p1 != p2 {
		t.Fatal("same predicate interned twice")
	}
	// Same name, different arity: distinct predicate.
	p3 := tb.Pred("edge", 1)
	if p3 == p1 {
		t.Fatal("arity ignored")
	}
	if tb.PredName(p1) != "edge" || tb.PredArity(p1) != 2 {
		t.Error("metadata wrong")
	}
	if tb.NumPreds() != 2 {
		t.Errorf("NumPreds = %d", tb.NumPreds())
	}
	if _, ok := tb.LookupPred("edge", 2); !ok {
		t.Error("lookup failed")
	}
	if _, ok := tb.LookupPred("missing", 0); ok {
		t.Error("lookup invented a predicate")
	}
}

func TestConstInterning(t *testing.T) {
	tb := NewTable()
	a := tb.Const("a")
	if tb.Const("a") != a {
		t.Fatal("same constant interned twice")
	}
	if tb.ConstName(a) != "a" {
		t.Error("name wrong")
	}
	// Ids are dense, in interning order.
	if b := tb.Const("b"); a != 0 || b != 1 {
		t.Errorf("ids a=%d b=%d, want 0 and 1", a, b)
	}
}

func TestZeroValueTableUsable(t *testing.T) {
	var tb Table
	p := tb.Pred("p", 0)
	c := tb.Const("c")
	if tb.PredName(p) != "p" || tb.ConstName(c) != "c" {
		t.Error("zero-value table broken")
	}
}

func TestOutOfRangeFormatting(t *testing.T) {
	tb := NewTable()
	if tb.PredName(Pred(99)) == "" || tb.ConstName(Const(99)) == "" {
		t.Error("out-of-range ids should format to placeholders, not empty")
	}
}

// Property: interning is injective — distinct (name, arity) pairs never
// collide, and ids round-trip to their names.
func TestInterningInjective(t *testing.T) {
	f := func(names []string, arities []uint8) bool {
		tb := NewTable()
		type key struct {
			n string
			a int
		}
		seen := map[key]Pred{}
		for i, n := range names {
			a := 0
			if len(arities) > 0 {
				a = int(arities[i%len(arities)]) % 4
			}
			id := tb.Pred(n, a)
			k := key{n, a}
			if prev, ok := seen[k]; ok {
				if prev != id {
					return false
				}
			} else {
				for _, other := range seen {
					if other == id {
						return false
					}
				}
				seen[k] = id
			}
			if tb.PredName(id) != n || tb.PredArity(id) != a {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
