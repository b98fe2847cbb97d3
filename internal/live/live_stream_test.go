package live

import (
	"path/filepath"
	"sort"
	"testing"

	"hypodatalog/internal/ast"
)

// openTailStore opens a store with a tiny stream tail so eviction paths
// are easy to hit.
func openTailStore(t *testing.T, dir string, tailLen int) *model {
	t.Helper()
	s, _, err := openModel(prog(t, seedSrc), Config{
		WALPath:       filepath.Join(dir, "wal.log"),
		StreamTailLen: tailLen,
		Logger:        quiet(),
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func commitFact(t *testing.T, s *model, src string) CommitInfo {
	t.Helper()
	info, err := s.Commit([]Mutation{{Op: OpAssert, Atom: atom(t, src)}})
	if err != nil {
		t.Fatalf("Commit(%s): %v", src, err)
	}
	return info
}

func TestRecordsSinceAndHorizon(t *testing.T) {
	s := openTailStore(t, t.TempDir(), 3)
	defer s.Close()

	if recs, ok := s.RecordsSince(0); !ok || recs != nil {
		t.Fatalf("empty store RecordsSince(0) = %v, %v; want nil, true", recs, ok)
	}
	if h := s.StreamHorizon(); h != 0 {
		t.Fatalf("empty horizon = %d, want 0", h)
	}

	commitFact(t, s, "edge(c, d)") // v1
	commitFact(t, s, "edge(d, e)") // v2

	recs, ok := s.RecordsSince(0)
	if !ok || len(recs) != 2 || recs[0].Version != 1 || recs[1].Version != 2 {
		t.Fatalf("RecordsSince(0) = %+v, %v", recs, ok)
	}
	if recs, ok := s.RecordsSince(1); !ok || len(recs) != 1 || recs[0].Version != 2 {
		t.Fatalf("RecordsSince(1) = %+v, %v", recs, ok)
	}
	if recs, ok := s.RecordsSince(2); !ok || recs != nil {
		t.Fatalf("caught-up RecordsSince(2) = %v, %v; want nil, true", recs, ok)
	}

	// Push past the tail bound: versions 3, 4, 5 with StreamTailLen=3
	// evict versions 1 and 2.
	commitFact(t, s, "edge(e, f)") // v3
	commitFact(t, s, "edge(f, g)") // v4
	commitFact(t, s, "edge(g, h)") // v5
	if h := s.StreamHorizon(); h != 2 {
		t.Fatalf("horizon after eviction = %d, want 2", h)
	}
	if _, ok := s.RecordsSince(1); ok {
		t.Fatal("RecordsSince(1) should report the tail no longer reaches back")
	}
	if recs, ok := s.RecordsSince(2); !ok || len(recs) != 3 {
		t.Fatalf("RecordsSince(2) = %+v, %v; want 3 records", recs, ok)
	}
}

func TestUpdatesBroadcastOnCommit(t *testing.T) {
	s := openTailStore(t, t.TempDir(), 8)
	defer s.Close()
	ch := s.Updates()
	select {
	case <-ch:
		t.Fatal("channel closed before any commit")
	default:
	}
	commitFact(t, s, "edge(c, d)")
	select {
	case <-ch:
	default:
		t.Fatal("commit did not close the update channel")
	}
	// The replacement channel reports the next commit.
	ch2 := s.Updates()
	select {
	case <-ch2:
		t.Fatal("fresh channel already closed")
	default:
	}
	commitFact(t, s, "edge(d, e)")
	select {
	case <-ch2:
	default:
		t.Fatal("second commit did not close the new channel")
	}
}

func TestEncodeDecodeRecordPayload(t *testing.T) {
	rec := Record{Version: 7, Muts: []Mutation{
		{Op: OpAssert, Atom: atom(t, "edge(a, b)")},
		{Op: OpRetract, Atom: atom(t, "edge(b, c)")},
	}}
	got, err := DecodeRecordPayload(EncodeRecordPayload(rec))
	if err != nil {
		t.Fatalf("DecodeRecordPayload: %v", err)
	}
	if got.Version != rec.Version || len(got.Muts) != 2 {
		t.Fatalf("round trip = %+v", got)
	}
	for i := range rec.Muts {
		if got.Muts[i].Op != rec.Muts[i].Op || got.Muts[i].Atom.String() != rec.Muts[i].Atom.String() {
			t.Fatalf("mutation %d round trip = %+v, want %+v", i, got.Muts[i], rec.Muts[i])
		}
	}
	// Version 0 on the wire is a reset marker, never a streamable record.
	if _, err := DecodeRecordPayload(EncodeRecordPayload(Record{Version: 0})); err == nil {
		t.Fatal("DecodeRecordPayload accepted version 0")
	}
}

func storeFacts(t *testing.T, s *model) []string {
	t.Helper()
	fs := s.Facts()
	out := make([]string, 0, len(fs))
	for _, f := range fs {
		out = append(out, f.String())
	}
	sort.Strings(out)
	return out
}

func TestResetToFactsDurability(t *testing.T) {
	dir := t.TempDir()
	s := openTailStore(t, dir, 8)
	commitFact(t, s, "edge(c, d)") // v1

	facts := []ast.Atom{atom(t, "edge(x, y)"), atom(t, "edge(y, z)")}
	if err := s.ResetToFacts(facts, 5); err != nil {
		t.Fatalf("ResetToFacts: %v", err)
	}
	if v := s.Version(); v != 5 {
		t.Fatalf("version after reset = %d, want 5", v)
	}
	want := []string{"edge(x, y)", "edge(y, z)"}
	if got := storeFacts(t, s); !equalStrings(got, want) {
		t.Fatalf("facts after reset = %v, want %v", got, want)
	}

	// A reset clears the stream tail: history before the jump is gone,
	// so a follower behind the reset must re-bootstrap.
	if h := s.StreamHorizon(); h != 5 {
		t.Fatalf("horizon after reset = %d, want 5", h)
	}
	if _, ok := s.RecordsSince(1); ok {
		t.Fatal("RecordsSince(1) should fail after a reset cleared the tail")
	}

	// Rewinds are refused.
	if err := s.ResetToFacts(facts, 5); err == nil {
		t.Fatal("ResetToFacts accepted a non-advancing version")
	}
	if err := s.ResetToFacts(facts, 3); err == nil {
		t.Fatal("ResetToFacts accepted a rewind")
	}

	// The reset survives a crash/reopen.
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := openTailStore(t, dir, 8)
	defer s2.Close()
	if v := s2.Version(); v != 5 {
		t.Fatalf("version after reopen = %d, want 5", v)
	}
	if got := storeFacts(t, s2); !equalStrings(got, want) {
		t.Fatalf("facts after reopen = %v, want %v", got, want)
	}
	// Commits continue from the jumped-to version.
	if info := commitFact(t, s2, "edge(z, w)"); info.Version != 6 {
		t.Fatalf("commit after reopen = v%d, want v6", info.Version)
	}
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
