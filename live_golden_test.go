package hypo

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hypodatalog/internal/ast"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/live_golden from the current code")

// goldenDir holds the durable files and the recovered state of
// goldenHistory, written by an earlier version of the store: the snapshot
// and WAL format, and what booting from them recovers, must not drift.
const goldenDir = "testdata/live_golden"

// goldenExtra is the ExtraDomain the history runs under: on and e are
// outside liveSrc's own constants. Recovery boots without it, so the
// recovered domain names them in the recovered facts' order (e first).
var goldenExtra = []string{"on", "e"}

// goldenHistory is a fixed commit history over liveSrc: asserts,
// retracts (of a seed fact too), a constant from ExtraDomain, a no-op
// assert and an assert-then-retract that nets out to nothing. With
// SnapshotEvery 4 it compacts once, after the fourth commit, and leaves
// a two-record WAL tail.
var goldenHistory = []struct{ asserts, retracts []string }{
	{[]string{"edge(b, c)", "edge(c, e)"}, nil},
	{[]string{"flag(on)"}, []string{"flag(off)"}},
	{[]string{"node(e)"}, []string{"edge(a, b)"}},
	{[]string{"edge(a, b)"}, []string{"edge(c, e)"}},
	{[]string{"flag(on)", "edge(e, a)"}, nil},
	{[]string{"edge(b, b)"}, []string{"edge(b, b)"}},
}

func goldenConfig(dir string) LiveConfig {
	return LiveConfig{
		WALPath:       filepath.Join(dir, "wal.log"),
		SnapshotPath:  filepath.Join(dir, "db.snap"),
		SnapshotEvery: 4,
		NoSync:        true,
		Logger:        quietLog,
	}
}

// goldenState renders what a Live holds: its version, its base facts
// sorted by canonical text, and its pinned domain in order.
func goldenState(l *Live) string {
	var b strings.Builder
	fmt.Fprintf(&b, "version %d\n", l.Version())
	base, syms := l.pool.base, l.pool.prog.syms
	var fs []string
	for _, id := range base.db.All() {
		a := ast.Atom{Pred: syms.PredName(base.in.Pred(id))}
		for _, c := range base.in.Args(id) {
			a.Args = append(a.Args, ast.Const(syms.ConstName(c)))
		}
		fs = append(fs, a.String())
	}
	sort.Strings(fs)
	for _, f := range fs {
		fmt.Fprintf(&b, "fact %s\n", f)
	}
	for _, c := range l.pool.dom.consts {
		fmt.Fprintf(&b, "const %s\n", syms.ConstName(c))
	}
	return b.String()
}

// runGoldenHistory runs goldenHistory in a fresh directory and returns
// the files it leaves — before a clean Close and after it — and the
// log of its commits.
func runGoldenHistory(t *testing.T) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	l, err := OpenLive(mustParse(t, liveSrc), goldenConfig(dir), Options{ExtraDomain: goldenExtra})
	if err != nil {
		t.Fatal(err)
	}
	var commits strings.Builder
	for _, c := range goldenHistory {
		info, err := l.Apply(mutations(t, c.asserts, c.retracts))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&commits, "version %d changed %d compacted %v\n", info.Version, info.Changed, info.Compacted)
	}
	out := map[string][]byte{"commits.txt": []byte(commits.String())}
	read := func(name, as string) {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[as] = b
	}
	read("db.snap", "db.snap")
	read("wal.log", "wal.log")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	read("db.snap", "closed.snap")
	read("wal.log", "closed.wal")
	return out
}

// TestLiveGoldenSnapshot replays goldenHistory and checks every byte the
// store writes — the periodic snapshot, the WAL tail, the snapshot and
// rotated WAL of a clean Close — and every commit's version, Changed
// and Compacted against the files in goldenDir.
func TestLiveGoldenSnapshot(t *testing.T) {
	got := runGoldenHistory(t)
	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, b := range got {
			if err := os.WriteFile(filepath.Join(goldenDir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	for name, b := range got {
		want, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, want) {
			t.Errorf("%s differs from %s:\ngot  %q\nwant %q", name, filepath.Join(goldenDir, name), b, want)
		}
	}
}

// TestLiveGoldenRecover boots from goldenDir's snapshot and WAL tail —
// files an earlier version of the store wrote — without ExtraDomain, and
// checks the version, the facts and the pinned domain's order it
// recovers, and that a clean Close from there writes the same closing
// snapshot and WAL.
func TestLiveGoldenRecover(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"db.snap", "wal.log"} {
		b, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := OpenLive(mustParse(t, liveSrc), goldenConfig(dir), Options{})
	if err != nil {
		t.Fatal(err)
	}
	state := filepath.Join(goldenDir, "state.txt")
	if *updateGolden {
		if err := os.WriteFile(state, []byte(goldenState(l)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenState(l); got != string(want) {
		t.Errorf("recovered state:\n%s\nwant:\n%s", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, f := range [][2]string{{"db.snap", "closed.snap"}, {"wal.log", "closed.wal"}} {
		got, err := os.ReadFile(filepath.Join(dir, f[0]))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(goldenDir, f[1]))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s after recovery and Close differs from %s", f[0], f[1])
		}
	}
}
