package hypo

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"hypodatalog/internal/parser"
	"hypodatalog/internal/workload"
)

// padded spells i in spaces and tabs: one whitespace run per value, so
// that i gives a distinct text of one read, not a distinct read.
func padded(i int) string {
	var b strings.Builder
	for ; i > 0; i >>= 1 {
		b.WriteByte(" \t"[i&1])
	}
	return b.String()
}

// TestReadMemoBounded: more distinct texts than the compile memo holds
// never grow it past its bound, and a read of texts it held before the
// flood is served from it again afterwards. The texts differ only in
// whitespace, so every one of them is the same read, a cache hit after
// the first.
func TestReadMemoBounded(t *testing.T) {
	pl, err := NewPool(mustParse(t, uniSrc), Options{PoolSize: 1, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	ctx := context.Background()
	hot := Request{Kind: ReadAskUnder, Query: "grad(mary)", Add: []string{"take(mary, eng201)"}}
	read := func(req Request) ReadInfo {
		t.Helper()
		ok := false
		info, err := pl.Read(ctx, req, holds(&ok))
		if err != nil || !ok {
			t.Fatalf("%+v = %v, %v", req, ok, err)
		}
		return info
	}
	read(hot)
	m := &pl.dom.memo
	for i := 1; i <= maxMemoEntries+100; i++ {
		ws := padded(i)
		info := read(Request{Kind: ReadAskUnder, Query: "grad(" + ws + "mary)", Add: []string{"take(mary," + ws + "eng201)"}})
		if info.Cache != CacheHit {
			t.Fatalf("text %d: cache %v, want a hit on the hot read's entry", i, info.Cache)
		}
		m.premises.mu.RLock()
		m.atoms.mu.RLock()
		np, na := len(m.premises.m), len(m.atoms.m)
		m.atoms.mu.RUnlock()
		m.premises.mu.RUnlock()
		if np > maxMemoEntries || na > maxMemoEntries {
			t.Fatalf("after %d texts the memo holds %d premises and %d adds, bound %d", i+1, np, na, maxMemoEntries)
		}
	}
	if m.premises.get(hot.Query) != nil {
		t.Fatalf("the hot premise outlived %d newer texts", maxMemoEntries+100)
	}
	read(hot)
	r, err := compileRead(hot, pl.prog.syms, pl.dom)
	if err != nil {
		t.Fatal(err)
	}
	if r.prem != m.premises.get(hot.Query) || r.adds[0] != m.atoms.get(hot.Add[0]) {
		t.Errorf("the hot read is compiled afresh after the flood, not served from the memo")
	}
}

// TestReadMemoByteBound: long texts count by their bytes. The memo
// never holds more than maxMemoBytes of text in a map, and a text longer
// than that on its own is compiled on every read and never held.
func TestReadMemoByteBound(t *testing.T) {
	pl, err := NewPool(mustParse(t, uniSrc), Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	m := &pl.dom.memo.premises
	ask := func(q string) {
		t.Helper()
		ok := false
		if _, err := pl.Read(context.Background(), Request{Kind: ReadAsk, Query: q}, holds(&ok)); err != nil || ok {
			t.Fatalf("grad(mary) padded to %d bytes = %v, %v", len(q), ok, err)
		}
	}
	for i := 0; i < 40; i++ {
		ask("grad(mary)" + strings.Repeat(" ", 64<<10+i))
		m.mu.RLock()
		n, held := m.bytes, len(m.m)
		m.mu.RUnlock()
		if n > maxMemoBytes || held == 0 {
			t.Fatalf("after %d long texts the memo holds %d of them in %d B, bound %d B", i+1, held, n, maxMemoBytes)
		}
	}
	huge := "grad(mary)" + strings.Repeat(" ", maxMemoBytes)
	ask(huge)
	if m.get(huge) != nil {
		t.Error("a text over the byte bound on its own is held")
	}
}

// TestReadMemoConcurrent: concurrent pool reads that compile and then
// share the same memo entries, cold at first, answer as a fresh engine
// does. Run it under -race: the memo is written by whichever read first
// compiles a text and read by all the others.
func TestReadMemoConcurrent(t *testing.T) {
	prog := mustParse(t, workload.ChainProgram(16))
	var reqs []Request
	for i := 1; i <= 16; i++ {
		reqs = append(reqs,
			Request{Kind: ReadAskUnder, Query: fmt.Sprintf("a%d", i), Add: []string{"b1", fmt.Sprintf("b%d", i)}},
			Request{Kind: ReadAsk, Query: fmt.Sprintf("a%d[add: b%d]", i, 17-i)},
			Request{Kind: ReadQuery, Query: fmt.Sprintf("a%d", i)},
		)
	}
	want := make([]string, len(reqs))
	for i, req := range reqs {
		e, err := New(prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var bs []Binding
		if _, err := e.Read(context.Background(), req, collectInto(&bs)); err != nil {
			t.Fatal(err)
		}
		want[i] = bindingSet(bs)
	}
	pl, err := NewPool(prog, Options{PoolSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range reqs {
					i := (k + g*len(reqs)/4) % len(reqs)
					var bs []Binding
					if _, err := pl.Read(context.Background(), reqs[i], collectInto(&bs)); err != nil {
						t.Errorf("%+v: %v", reqs[i], err)
						return
					}
					if got := bindingSet(bs); got != want[i] {
						t.Errorf("%+v = %q, a fresh engine says %q", reqs[i], got, want[i])
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestReadKeyFromMemo: the answer-cache key a read builds from its memo
// entries is the one its parse spells: the kind, the premise rendered
// back to surface syntax and, for AskUnder, the rendered adds in sorted
// order — whether the parts are compiled afresh or held.
func TestReadKeyFromMemo(t *testing.T) {
	prog := mustParse(t, uniSrc)
	dom := newDomain(prog, nil)
	for _, req := range []Request{
		{Kind: ReadAsk, Query: "grad( tony )"},
		{Kind: ReadQuery, Query: "grad(S)[add: take(S,eng201)]"},
		{Kind: ReadAskUnder, Query: "grad(mary)"},
		{Kind: ReadAskUnder, Query: "not grad(mary)", Add: []string{"take(mary,his101)", "take( mary, eng201)", "take(mary, his101)"}},
	} {
		p, err := parser.ParsePremise(req.Query)
		if err != nil {
			t.Fatal(err)
		}
		want := string(req.Kind) + "\x1f" + p.String()
		if req.Kind == ReadAskUnder {
			adds := make([]string, len(req.Add))
			for i, src := range req.Add {
				a, err := parser.ParseAtom(src)
				if err != nil {
					t.Fatal(err)
				}
				adds[i] = a.String()
			}
			sort.Strings(adds)
			want += "\x1f" + strings.Join(adds, "\x1f")
		}
		for _, pass := range []string{"cold", "held"} {
			r, err := compileRead(req, prog.syms, dom)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.key(); got != want {
				t.Errorf("%s %+v: key %q, want %q", pass, req, got, want)
			}
		}
	}
}
