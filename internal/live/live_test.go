package live

import (
	"bytes"
	"errors"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/parser"
	"hypodatalog/internal/vfs"
)

func atom(t *testing.T, src string) ast.Atom {
	t.Helper()
	a, err := parser.ParseAtom(src)
	if err != nil {
		t.Fatalf("ParseAtom(%q): %v", src, err)
	}
	return a
}

func prog(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return p
}

const seedSrc = `
edge(a, b).
edge(b, c).
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
`

// quiet drops log output so expected warnings (torn tails) don't clutter
// test output.
func quiet() *slog.Logger {
	return slog.New(slog.NewTextHandler(bytes.NewBuffer(nil), nil))
}

// model plays the part hypo.Live plays for a Store in production: it
// holds the fact set the store hands over at Open and keeps no copy of,
// applies each committed batch and reset to it, and runs the store's
// compaction policy over it after every commit and reset and on Close.
// The store's tests check facts against it and against what a reopen
// recovers.
type model struct {
	*Store
	facts map[string]ast.Atom // key: canonical surface text
}

func openModel(seed *ast.Program, cfg Config) (*model, Recovery, error) {
	s, fs, rec, err := Open(seed, cfg)
	if err != nil {
		return nil, rec, err
	}
	m := &model{Store: s, facts: make(map[string]ast.Atom, len(fs))}
	for _, a := range fs {
		m.facts[a.String()] = a
	}
	return m, rec, nil
}

// Commit commits ms, applies it to the model in batch order and compacts
// when the policy says so, reporting what hypo.Live would: Changed counts
// the mutations that flip membership.
func (m *model) Commit(ms []Mutation) (CommitInfo, error) {
	v, err := m.Store.Commit(ms)
	if err != nil {
		return CommitInfo{}, err
	}
	info := CommitInfo{Version: v}
	for _, mu := range ms {
		k := mu.Atom.String()
		if _, had := m.facts[k]; had != (mu.Op == OpAssert) {
			info.Changed++
			if had {
				delete(m.facts, k)
			} else {
				m.facts[k] = mu.Atom
			}
		}
	}
	info.Compacted, _ = m.compact(false)
	return info, nil
}

// compact compacts over the model's facts when the policy says so,
// reporting whether a snapshot was written.
func (m *model) compact(force bool) (bool, error) {
	if !m.CompactDue(force) {
		return false, nil
	}
	err := m.Compact(m.Facts())
	return err == nil, err
}

// ResetToFacts resets the store and the model to fs, then compacts.
func (m *model) ResetToFacts(fs []ast.Atom, version uint64) error {
	if err := m.Store.ResetToFacts(fs, version); err != nil {
		return err
	}
	clear(m.facts)
	for _, a := range fs {
		m.facts[a.String()] = a
	}
	m.compact(true)
	return nil
}

// Close compacts, as a clean shutdown does, and closes the store.
func (m *model) Close() error {
	_, err := m.compact(true)
	if cerr := m.Store.Close(); err == nil {
		err = cerr
	}
	return err
}

// Facts returns the model's facts sorted by canonical text.
func (m *model) Facts() []ast.Atom {
	out := make([]ast.Atom, 0, len(m.facts))
	for _, a := range m.facts {
		out = append(out, a)
	}
	SortFacts(out)
	return out
}

func (m *model) Has(a ast.Atom) bool {
	_, ok := m.facts[a.String()]
	return ok
}

func openStore(t *testing.T, dir string, every int) (*model, Recovery) {
	t.Helper()
	s, rec, err := openModel(prog(t, seedSrc), Config{
		WALPath:       filepath.Join(dir, "wal.log"),
		SnapshotPath:  filepath.Join(dir, "db.snap"),
		SnapshotEvery: every,
		Logger:        quiet(),
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, rec
}

func TestCommitAndVersioning(t *testing.T) {
	s, rec := openStore(t, t.TempDir(), 0)
	defer s.Close()
	if rec.Version != 0 || rec.Replayed != 0 || rec.FromSnapshot {
		t.Fatalf("fresh recovery = %+v", rec)
	}
	if n := len(s.Facts()); n != 2 {
		t.Fatalf("seed fact count = %d, want 2", n)
	}

	info, err := s.Commit([]Mutation{{Op: OpAssert, Atom: atom(t, "edge(c, d)")}})
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if info.Version != 1 || info.Changed != 1 {
		t.Fatalf("info = %+v", info)
	}
	if !s.Has(atom(t, "edge(c, d)")) {
		t.Fatal("asserted fact missing")
	}

	// Batches are one version regardless of size; no-op mutations commit
	// but report Changed accordingly.
	info, err = s.Commit([]Mutation{
		{Op: OpAssert, Atom: atom(t, "edge(c, d)")}, // already present
		{Op: OpRetract, Atom: atom(t, "edge(a, b)")},
		{Op: OpRetract, Atom: atom(t, "edge(x, y)")}, // absent
	})
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if info.Version != 2 || info.Changed != 1 {
		t.Fatalf("info = %+v", info)
	}
	if s.Has(atom(t, "edge(a, b)")) {
		t.Fatal("retracted fact still present")
	}
	if s.Version() != 2 {
		t.Fatalf("Version = %d, want 2", s.Version())
	}
}

func TestCommitRejectsBadBatches(t *testing.T) {
	s, _ := openStore(t, t.TempDir(), 0)
	defer s.Close()

	if _, err := s.Commit(nil); err == nil {
		t.Fatal("empty batch committed")
	}
	nonGround := ast.Atom{Pred: "edge", Args: []ast.Term{ast.Var("X"), ast.Const("b")}}
	if _, err := s.Commit([]Mutation{{Op: OpAssert, Atom: nonGround}}); err == nil {
		t.Fatal("non-ground fact committed")
	}
	if _, err := s.Commit([]Mutation{{Op: 7, Atom: atom(t, "edge(a, b)")}}); err == nil {
		t.Fatal("unknown op committed")
	}
	// A bad mutation anywhere in the batch rejects the whole batch.
	if _, err := s.Commit([]Mutation{
		{Op: OpAssert, Atom: atom(t, "edge(z, z)")},
		{Op: OpAssert, Atom: nonGround},
	}); err == nil {
		t.Fatal("batch with one bad mutation committed")
	}
	if s.Has(atom(t, "edge(z, z)")) {
		t.Fatal("partial batch applied")
	}
	if s.Version() != 0 {
		t.Fatalf("rejected batches moved the version to %d", s.Version())
	}
}

// TestFactsSnapshotIsolationOfSlice: the facts Open recovers are the
// caller's, sorted by canonical text. The store keeps no reference to
// them: overwriting the slice changes nothing it logs or recovers, and
// its later commits leave the slice as it was.
func TestFactsSnapshotIsolationOfSlice(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{WALPath: filepath.Join(dir, "wal.log"), Logger: quiet()}
	s, before, _, err := Open(prog(t, seedSrc), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 2 {
		t.Fatalf("recovered facts len = %d, want 2", len(before))
	}
	first := before[0].String()
	before[0] = atom(t, "edge(z, z)")
	if _, err := s.Commit([]Mutation{{Op: OpAssert, Atom: atom(t, "edge(c, d)")}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, after, _, err := Open(prog(t, seedSrc), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(before) != 2 || len(after) != 3 {
		t.Fatalf("old slice len %d / new %d, want 2 / 3", len(before), len(after))
	}
	if after[0].String() != first {
		t.Fatalf("recovered %s first, want %s: the caller's write reached the store", after[0], first)
	}
	// Sorted by canonical text.
	for i := 1; i < len(after); i++ {
		if after[i-1].String() >= after[i].String() {
			t.Fatalf("Facts not sorted: %s before %s", after[i-1], after[i])
		}
	}
}

func TestRecoveryReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir, 0) // no compaction: everything lives in the WAL
	for _, m := range []Mutation{
		{Op: OpAssert, Atom: atom(t, "edge(c, d)")},
		{Op: OpAssert, Atom: atom(t, "edge(d, e)")},
		{Op: OpRetract, Atom: atom(t, "edge(a, b)")},
	} {
		if _, err := s.Commit([]Mutation{m}); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash: skip Close (which would compact) and drop the
	// file handle on the floor.
	s.wal.Close()
	s.closed = true

	r, rec := openStore(t, dir, 0)
	defer r.Close()
	if rec.Version != 3 || rec.Replayed != 3 || rec.FromSnapshot || rec.TornBytes != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	if !r.Has(atom(t, "edge(d, e)")) || r.Has(atom(t, "edge(a, b)")) {
		t.Fatal("replayed state wrong")
	}
}

func TestRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "wal.log")
	s, _ := openStore(t, dir, 0)
	if _, err := s.Commit([]Mutation{{Op: OpAssert, Atom: atom(t, "edge(c, d)")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit([]Mutation{{Op: OpAssert, Atom: atom(t, "edge(d, e)")}}); err != nil {
		t.Fatal(err)
	}
	s.wal.Close()
	s.closed = true

	// Tear the last record: chop off its final 3 bytes, as a crash
	// mid-write would.
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	r, rec := openStore(t, dir, 0)
	defer r.Close()
	if rec.Version != 1 || rec.Replayed != 1 || rec.TornBytes == 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	if r.Has(atom(t, "edge(d, e)")) {
		t.Fatal("torn commit replayed")
	}
	// The torn tail must be gone from disk so the next commit appends to
	// a valid prefix: commit and recover once more.
	if _, err := r.Commit([]Mutation{{Op: OpAssert, Atom: atom(t, "edge(e, f)")}}); err != nil {
		t.Fatal(err)
	}
	r.wal.Close()
	r.closed = true
	r2, rec2 := openStore(t, dir, 0)
	defer r2.Close()
	if rec2.Version != 2 || !r2.Has(atom(t, "edge(e, f)")) {
		t.Fatalf("post-truncation recovery = %+v", rec2)
	}
}

func TestRecoveryRejectsCorruptInterior(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "wal.log")
	s, _ := openStore(t, dir, 0)
	if _, err := s.Commit([]Mutation{{Op: OpAssert, Atom: atom(t, "edge(c, d)")}}); err != nil {
		t.Fatal(err)
	}
	s.wal.Close()
	s.closed = true

	// A record that passes its CRC but claims an out-of-sequence version
	// means the file was assembled wrong, not torn: refuse to open.
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, encodeRecord(99, []Mutation{{Op: OpAssert, Atom: ast.Atom{Pred: "p"}}})...)
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = Open(prog(t, seedSrc), Config{WALPath: wal, Logger: quiet()})
	if err == nil {
		t.Fatal("out-of-sequence WAL opened")
	}
}

func TestCompactionAndSnapshotRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir, 2) // compact every 2 commits
	var last CommitInfo
	for _, f := range []string{"edge(c, d)", "edge(d, e)", "edge(e, f)"} {
		var err error
		if last, err = s.Commit([]Mutation{{Op: OpAssert, Atom: atom(t, f)}}); err != nil {
			t.Fatal(err)
		}
	}
	// Commit 2 compacted; commit 3 sits in the rotated WAL.
	if !last.Compacted && s.SinceSnapshot() != 1 {
		t.Fatalf("SinceSnapshot = %d after 3 commits with every=2", s.SinceSnapshot())
	}
	s.wal.Close()
	s.closed = true

	r, rec := openStore(t, dir, 2)
	defer r.Close()
	if !rec.FromSnapshot {
		t.Fatalf("recovery did not use snapshot: %+v", rec)
	}
	if rec.Version != 3 || rec.Replayed != 1 {
		t.Fatalf("recovery = %+v", rec)
	}
	for _, f := range []string{"edge(a, b)", "edge(c, d)", "edge(d, e)", "edge(e, f)"} {
		if !r.Has(atom(t, f)) {
			t.Fatalf("fact %s missing after snapshot recovery", f)
		}
	}
}

func TestCleanCloseCompactsAndReplaysNothing(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir, 0) // periodic compaction off; Close still compacts
	if _, err := s.Commit([]Mutation{{Op: OpAssert, Atom: atom(t, "edge(c, d)")}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.Commit([]Mutation{{Op: OpAssert, Atom: atom(t, "edge(x, y)")}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Commit after Close = %v, want ErrClosed", err)
	}

	r, rec := openStore(t, dir, 0)
	defer r.Close()
	if rec.Replayed != 0 || !rec.FromSnapshot || rec.Version != 1 {
		t.Fatalf("clean-shutdown recovery = %+v", rec)
	}
	if !r.Has(atom(t, "edge(c, d)")) {
		t.Fatal("fact lost across clean restart")
	}
}

// TestCompactionCrashWindow covers a crash between the snapshot rename
// and the WAL rotation: the snapshot already holds the WAL's records, and
// replaying them on top must be a harmless no-op.
func TestCompactionCrashWindow(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir, 2) // the second commit compacts
	m1 := []Mutation{{Op: OpAssert, Atom: atom(t, "edge(c, d)")}}
	m2 := []Mutation{{Op: OpRetract, Atom: atom(t, "edge(a, b)")}}
	mustCommit(t, s, m1...)
	if info := mustCommit(t, s, m2...); !info.Compacted {
		t.Fatal("the second commit did not compact")
	}
	// Put the old WAL (records 1..2, base 0) back over the rotated one —
	// exactly the state after the snapshot rename.
	old := append(encodeHeader(0), encodeRecord(1, m1)...)
	old = append(old, encodeRecord(2, m2)...)
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	s.wal.Close()
	s.closed = true

	r, rec := openStore(t, dir, 0)
	defer r.Close()
	if rec.Version != 2 || rec.Replayed != 2 || !rec.FromSnapshot {
		t.Fatalf("crash-window recovery = %+v", rec)
	}
	if !r.Has(atom(t, "edge(c, d)")) || r.Has(atom(t, "edge(a, b)")) {
		t.Fatal("overlap replay corrupted state")
	}
}

func TestWALRoundTrip(t *testing.T) {
	ms := []Mutation{
		{Op: OpAssert, Atom: atom(t, "edge(a, b)")},
		{Op: OpRetract, Atom: atom(t, "flag")},
		{Op: OpAssert, Atom: atom(t, "'weird pred'('multi word const', '')")},
	}
	data := encodeHeader(41)
	data = append(data, encodeRecord(42, ms)...)
	base, recs, goodLen, err := parseWAL(data)
	if err != nil {
		t.Fatalf("parseWAL: %v", err)
	}
	if base != 41 || goodLen != len(data) || len(recs) != 1 {
		t.Fatalf("base=%d goodLen=%d/%d recs=%d", base, goodLen, len(data), len(recs))
	}
	if recs[0].version != 42 || len(recs[0].muts) != len(ms) {
		t.Fatalf("record = %+v", recs[0])
	}
	for i, m := range recs[0].muts {
		if m.Op != ms[i].Op || m.Atom.String() != ms[i].Atom.String() {
			t.Fatalf("mutation %d = %+v, want %+v", i, m, ms[i])
		}
	}
}

// TestStreamRingAllocsFlat: once the stream ring holds StreamTailLen
// records, a commit allocates about what one did while it was filling —
// the ring overwrites its oldest record instead of copying the others.
func TestStreamRingAllocsFlat(t *testing.T) {
	s, _, _, err := Open(prog(t, seedSrc), Config{WALPath: "wal.log", NoSync: true, FS: vfs.NewMem(), Logger: quiet()})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	const window = 1000
	toggle := [2][]Mutation{
		{{Op: OpAssert, Atom: atom(t, "edge(c, d)")}},
		{{Op: OpRetract, Atom: atom(t, "edge(c, d)")}},
	}
	commits := 0
	bytesPerCommit := func(n int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			if _, err := s.Commit(toggle[commits%2]); err != nil {
				t.Fatal(err)
			}
			commits++
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
	}
	bytesPerCommit(s.cfg.StreamTailLen - window)
	filling := bytesPerCommit(window) // the ring fills with the last of these
	full := bytesPerCommit(window)
	if full > 4*filling {
		t.Errorf("a commit allocates %d B once the ring is full, %d B while it fills", full, filling)
	}
}
