package bench

import (
	"fmt"
	"slices"

	hypo "hypodatalog"
	"hypodatalog/internal/workload"
)

// maintShape is one graph of E21: the base edges of a right-linear reach
// program and the edges its commits toggle.
type maintShape struct {
	name    string
	g       workload.Digraph // the base edges
	add     [2]int           // absent from g
	retract [2]int           // in g, and much of the closure reads it
	local   [2]int           // in g, and little of the closure reads it
	read    [2]int           // reach(read[0], read[1]) is asked before and after the commit
}

// e21Maintenance prices what one base-fact commit does to a cascade's
// materialised Δ models, the maintenance the paper's from-scratch PROVE_Δ
// (section 5.2.1) leaves open. Each case is one cold cascade engine: a
// read materialises reach's root model, Engine.ApplyDelta commits one
// edge, and the same read follows. The counters are the commit's work and
// that read's, not the warm-up's: models maintained in place (inc_states)
// or dropped (inc_dropped), and what the read then rematerialised.
//
// spine is churn's graph: an n-node spine with 12 of 24 chords present;
// retract removes a chord, local-retract the spine's last edge. chains is
// 100 disjoint chains of 20 (19,000 reach atoms); add joins chain 0 to
// chain 1, retract cuts chain 0 in the middle and local-retract at its end.
func e21Maintenance(s Sizes) ([]Case, error) {
	var shapes []maintShape
	for _, n := range s.MaintN {
		spine, chords := workload.SpineChords(rngFor(s, 21, n), n, 24)
		spine.Edges = append(spine.Edges, chords[:12]...)
		shapes = append(shapes, maintShape{
			name: fmt.Sprintf("spine/n=%d", n), g: spine,
			add: chords[12], retract: chords[0], local: [2]int{n - 2, n - 1},
			read: [2]int{0, n - 1},
		})
	}
	shapes = append(shapes, maintShape{
		name: "chains/k=100/len=20", g: workload.Chains(100, 20),
		add: [2]int{19, 20}, retract: [2]int{9, 10}, local: [2]int{18, 19},
		read: [2]int{0, 19},
	})
	var l caseList
	for _, sh := range shapes {
		prog := l.parse(sh.name, workload.ClosureProgram(sh.g, workload.RightLinear))
		l.add(sh.name+"/add", func() (Counters, error) { return commitThenRead(prog, sh.g, sh.add, true, sh.read) })
		l.add(sh.name+"/retract", func() (Counters, error) { return commitThenRead(prog, sh.g, sh.retract, false, sh.read) })
		l.add(sh.name+"/local-retract", func() (Counters, error) { return commitThenRead(prog, sh.g, sh.local, false, sh.read) })
	}
	return l.done()
}

// commitThenRead runs one E21 case: warm a cold cascade with the read,
// assert or retract edge, read again, check both answers against
// breadth-first search and report the work from the commit on.
func commitThenRead(prog *hypo.Program, g workload.Digraph, edge [2]int, assert bool, read [2]int) (Counters, error) {
	e, err := hypo.New(prog, hypo.Options{Mode: hypo.ModeCascade})
	if err != nil {
		return nil, err
	}
	q := fmt.Sprintf("reach(n%d, n%d)", read[0], read[1])
	check := func(g workload.Digraph) error {
		got, err := e.Ask(q)
		if want := workload.Reachable(g, read[0], read[1]); err == nil && got != want {
			err = fmt.Errorf("%s = %v, want %v", q, got, want)
		}
		return err
	}
	if err := check(g); err != nil {
		return nil, err
	}
	before := e.Stats()
	atom := []string{fmt.Sprintf("edge(n%d, n%d)", edge[0], edge[1])}
	after := workload.Digraph{N: g.N}
	if assert {
		err = e.ApplyDelta(atom, nil)
		after.Edges = append(slices.Clone(g.Edges), edge)
	} else {
		err = e.ApplyDelta(nil, atom)
		after.Edges = slices.DeleteFunc(slices.Clone(g.Edges), func(x [2]int) bool { return x == edge })
	}
	if err != nil {
		return nil, err
	}
	if err := check(after); err != nil {
		return nil, err
	}
	w := e.Stats().Sub(before)
	return Counters{
		"materialisations": w.Materialisations,
		"derived_models":   w.DerivedModels,
		"join_probes":      w.JoinProbes,
		"inc_states":       w.IncStates,
		"inc_dropped":      w.IncDropped,
	}, nil
}
