package hypo_test

import (
	"context"
	"fmt"
	"log"
	"sort"

	"hypodatalog"
)

// The package-level example: parse, inspect stratification, query.
func Example() {
	prog, err := hypo.Parse(`
		take(tony, his101).
		take(tony, eng201).
		take(mary, his101).
		grad(S) :- take(S, his101), take(S, eng201).
	`)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := hypo.New(prog, hypo.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ok, err := eng.Ask("grad(mary)[add: take(mary, eng201)]")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("would mary graduate with eng201?", ok)
	// Output:
	// would mary graduate with eng201? true
}

func ExampleEngine_Query() {
	prog, err := hypo.Parse(`
		take(tony, his101).
		take(tony, eng201).
		take(mary, his101).
		grad(S) :- take(S, his101), take(S, eng201).
	`)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := hypo.New(prog, hypo.Options{})
	if err != nil {
		log.Fatal(err)
	}
	// Example 2 of the paper: who could graduate with one more course?
	bindings, err := eng.Query("grad(S)[add: take(S, C)]")
	if err != nil {
		log.Fatal(err)
	}
	students := map[string]bool{}
	for _, b := range bindings {
		students[b["S"]] = true
	}
	var names []string
	for s := range students {
		names = append(names, s)
	}
	sort.Strings(names)
	fmt.Println(names)
	// Output:
	// [mary tony]
}

func ExampleProgram_Stratification() {
	prog, err := hypo.Parse(`
		a2 :- b2, a2[add: c2].
		a2 :- d2, not a1.
		a1 :- b1, a1[add: c1].
		a1 :- d1.
	`)
	if err != nil {
		log.Fatal(err)
	}
	s := prog.Stratification()
	fmt.Printf("linear=%v strata=%d (data-complexity in Σ_%d^P)\n", s.Linear, s.Strata, s.Strata)
	// Output:
	// linear=true strata=2 (data-complexity in Σ_2^P)
}

func ExampleEngine_Explain() {
	prog, err := hypo.Parse(`
		p(a).
		q(X) :- r(X)[add: s(X)].
		r(X) :- p(X), s(X).
	`)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := hypo.New(prog, hypo.Options{Mode: hypo.ModeUniform})
	if err != nil {
		log.Fatal(err)
	}
	tree, err := eng.Explain("q(a)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(tree)
	// Output:
	// q(a)  [rule q(a) :- r(a)[add: s(a)]]
	//   r(a)  [under add: s(a)]
	//     r(a)  [rule r(a) :- p(a), s(a)]
	//       p(a)  [fact]
	//       s(a)  [fact]
}

func ExampleNewPool() {
	prog, err := hypo.Parse("p(a).\nq(X) :- p(X).")
	if err != nil {
		log.Fatal(err)
	}
	pool, err := hypo.NewPool(prog, hypo.Options{})
	if err != nil {
		log.Fatal(err)
	}
	// Pools are safe to share across goroutines; each read gets its own
	// engine from the free list. A ground read yields one empty binding
	// when it holds.
	done := make(chan bool, 4)
	for i := 0; i < 4; i++ {
		go func() {
			ok := false
			_, err := pool.Read(context.Background(), hypo.Request{Kind: hypo.ReadAsk, Query: "q(a)"}, func(hypo.Binding) error {
				ok = true
				return nil
			})
			done <- err == nil && ok
		}()
	}
	all := true
	for i := 0; i < 4; i++ {
		all = all && <-done
	}
	fmt.Println(all)
	// Output:
	// true
}

func ExampleEngine_AskUnder() {
	prog, err := hypo.Parse("grad(S) :- take(S, his101), take(S, eng201).\ntake(mary, his101).")
	if err != nil {
		log.Fatal(err)
	}
	eng, err := hypo.New(prog, hypo.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ok, err := eng.AskUnder("grad(mary)", "take(mary, eng201)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ok)
	// Output:
	// true
}
