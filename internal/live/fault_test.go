package live

// Targeted fault-injection regressions: each test scripts one specific
// disk failure and pins down the store's contract for it. The torture
// sweep (torture_test.go) explores the space; these document the
// individual guarantees.

import (
	"errors"
	"math/rand"
	"testing"

	"hypodatalog/internal/vfs"
)

func openMemStore(t *testing.T, fs vfs.FS, every int) *model {
	t.Helper()
	cfg := tortureConfig(fs)
	cfg.SnapshotEvery = every
	s, _, err := openModel(prog(t, seedSrc), cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func mustCommit(t *testing.T, s *model, ms ...Mutation) CommitInfo {
	t.Helper()
	info, err := s.Commit(ms)
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return info
}

// TestCommitSyncFailureDegrades: a failed WAL fsync mid-commit must (a)
// leave memory exactly where it was — the WAL and the fact set may not
// diverge, (b) flip the store to sticky read-only, (c) keep reads
// serving, and (d) recover to precisely the acked state after a crash.
func TestCommitSyncFailureDegrades(t *testing.T) {
	mem := vfs.NewMem()
	// Sync #1 is the WAL header; #2 and #3 are the two good commits.
	ft := vfs.NewFault(mem, vfs.FailNth(vfs.OpSync, 4))
	s := openMemStore(t, ft, 0)
	mustCommit(t, s, Mutation{Op: OpAssert, Atom: atom(t, "edge(c, d)")})
	mustCommit(t, s, Mutation{Op: OpAssert, Atom: atom(t, "edge(d, e)")})
	version, facts := s.Version(), factKeys(s.Facts())

	_, err := s.Commit([]Mutation{{Op: OpAssert, Atom: atom(t, "edge(e, f)")}})
	if !errors.Is(err, ErrReadOnly) || !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("commit over failed sync = %v; want ErrReadOnly wrapping ErrInjected", err)
	}
	if got := s.Version(); got != version {
		t.Fatalf("version moved across a failed commit: %d -> %d", version, got)
	}
	if got := factKeys(s.Facts()); !equalKeys(got, facts) {
		t.Fatalf("facts moved across a failed commit:\n got %v\nwant %v", got, facts)
	}
	if ro, _, roErr := s.Degraded(); !ro || !errors.Is(roErr, vfs.ErrInjected) {
		t.Fatalf("Degraded() = %v, %v; want sticky injected cause", ro, roErr)
	}
	if _, err := s.Commit([]Mutation{{Op: OpAssert, Atom: atom(t, "edge(e, f)")}}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("second commit after degradation = %v; want ErrReadOnly", err)
	}
	if !s.Has(atom(t, "edge(d, e)")) {
		t.Fatal("reads stopped serving after degradation")
	}

	// Power cut, then recovery on the healed disk: the acked version and
	// nothing else.
	mem.Crash(rand.New(rand.NewSource(7)))
	s2, rec, err := openModel(prog(t, seedSrc), tortureConfig(mem))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s2.Close()
	if rec.Version != version {
		t.Fatalf("recovered version = %d, want %d", rec.Version, version)
	}
	if got := factKeys(s2.Facts()); !equalKeys(got, facts) {
		t.Fatalf("recovered facts:\n got %v\nwant %v", got, facts)
	}
}

// TestSnapshotRenameFailureStaysWritable: a compaction that dies at the
// snapshot rename must not take the store down with it — the commit
// that triggered it still acks, later commits still work, and a restart
// replays everything from the never-rotated WAL.
func TestSnapshotRenameFailureStaysWritable(t *testing.T) {
	mem := vfs.NewMem()
	ft := vfs.NewFault(mem, vfs.FailPath(vfs.OpRename, tortureSnap))
	s := openMemStore(t, ft, 2)
	mustCommit(t, s, Mutation{Op: OpAssert, Atom: atom(t, "edge(c, d)")})
	info := mustCommit(t, s, Mutation{Op: OpAssert, Atom: atom(t, "edge(d, e)")}) // triggers the doomed compaction
	if info.Compacted {
		t.Fatal("compaction reported success past a failed snapshot rename")
	}
	if ro, _, _ := s.Degraded(); ro {
		t.Fatal("a failed snapshot rename degraded the store; the WAL still covers everything")
	}
	mustCommit(t, s, Mutation{Op: OpAssert, Atom: atom(t, "edge(e, f)")})
	want := factKeys(s.Facts())

	s2, rec, err := openModel(prog(t, seedSrc), tortureConfig(mem))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s2.Close()
	if rec.Version != 3 || rec.FromSnapshot {
		t.Fatalf("recovery = version %d fromSnapshot %v, want 3 from WAL", rec.Version, rec.FromSnapshot)
	}
	if got := factKeys(s2.Facts()); !equalKeys(got, want) {
		t.Fatalf("recovered facts:\n got %v\nwant %v", got, want)
	}
}

// TestSnapshotDirSyncFailureAbortsCompaction: the directory fsync after
// the snapshot rename is load-bearing — if it fails, the WAL must NOT
// rotate (a rotation the crash could outlive while the snapshot rename
// rolls back would lose every commit in between). The store stays
// writable; recovery replays the full, never-rotated WAL.
func TestSnapshotDirSyncFailureAbortsCompaction(t *testing.T) {
	mem := vfs.NewMem()
	// SyncDir #1 durably creates the WAL; #2 is the snapshot rename's.
	ft := vfs.NewFault(mem, vfs.FailNth(vfs.OpSyncDir, 2))
	s := openMemStore(t, ft, 2)
	mustCommit(t, s, Mutation{Op: OpAssert, Atom: atom(t, "edge(c, d)")})
	info := mustCommit(t, s, Mutation{Op: OpAssert, Atom: atom(t, "edge(d, e)")})
	if info.Compacted {
		t.Fatal("compaction reported success past a failed snapshot dir-sync")
	}
	if ro, _, _ := s.Degraded(); ro {
		t.Fatal("an aborted compaction degraded the store")
	}
	mustCommit(t, s, Mutation{Op: OpAssert, Atom: atom(t, "edge(e, f)")})
	want := factKeys(s.Facts())

	mem.Crash(rand.New(rand.NewSource(11)))
	s2, rec, err := openModel(prog(t, seedSrc), tortureConfig(mem))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s2.Close()
	if rec.Version != 3 {
		t.Fatalf("recovered version = %d, want 3", rec.Version)
	}
	if got := factKeys(s2.Facts()); !equalKeys(got, want) {
		t.Fatalf("recovered facts:\n got %v\nwant %v", got, want)
	}
}

// TestWALRotationDirSyncFailureDegrades: once the rotated WAL's rename
// is issued, a failed directory fsync means future appends land in a
// file a crash could roll back — the store must degrade. The commit
// that triggered the compaction was already durable, so it still acks.
func TestWALRotationDirSyncFailureDegrades(t *testing.T) {
	mem := vfs.NewMem()
	// SyncDir #1: WAL create; #2: snapshot rename; #3: WAL rotation.
	ft := vfs.NewFault(mem, vfs.FailNth(vfs.OpSyncDir, 3))
	s := openMemStore(t, ft, 2)
	mustCommit(t, s, Mutation{Op: OpAssert, Atom: atom(t, "edge(c, d)")})
	if _, err := s.Commit([]Mutation{{Op: OpAssert, Atom: atom(t, "edge(d, e)")}}); err != nil {
		t.Fatalf("the triggering commit was durable before the rotation; it must ack: %v", err)
	}
	if ro, _, roErr := s.Degraded(); !ro || !errors.Is(roErr, vfs.ErrInjected) {
		t.Fatalf("Degraded() = %v, %v; want degraded with injected cause", ro, roErr)
	}
	if _, err := s.Commit([]Mutation{{Op: OpAssert, Atom: atom(t, "edge(e, f)")}}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("commit after rotation degradation = %v; want ErrReadOnly", err)
	}
	version, want := s.Version(), factKeys(s.Facts())

	mem.Crash(rand.New(rand.NewSource(13)))
	s2, rec, err := openModel(prog(t, seedSrc), tortureConfig(mem))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s2.Close()
	if rec.Version != version {
		t.Fatalf("recovered version = %d, want %d", rec.Version, version)
	}
	if got := factKeys(s2.Facts()); !equalKeys(got, want) {
		t.Fatalf("recovered facts:\n got %v\nwant %v", got, want)
	}
}

// TestFirstBootCreateDirSyncFailure: even the very first WAL creation
// propagates its directory fsync — otherwise first-boot commits could be
// acked into a file a crash unlinks.
func TestFirstBootCreateDirSyncFailure(t *testing.T) {
	ft := vfs.NewFault(vfs.NewMem(), vfs.FailNth(vfs.OpSyncDir, 1))
	if _, _, _, err := Open(prog(t, seedSrc), tortureConfig(ft)); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("Open over failed create dir-sync = %v; want ErrInjected", err)
	}
}
