package live

// Disk-full (ENOSPC) survival tests. Unlike the EIO-class faults in
// fault_test.go — which are sticky until restart — space pressure is
// transient: the kernel rejected the data outright, the rollback
// truncate restored the known-good WAL prefix, and once space returns
// the store must become writable again IN PLACE via TryRecover, no
// restart. The sweep at the bottom fills the disk at every mutating
// operation of the workload (including mid-compaction) and asserts the
// full contract each time.

import (
	"errors"
	"fmt"
	"math/rand"
	"syscall"
	"testing"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/vfs"
)

// TestENOSPCCommitDegradesTransient: a commit hitting a full disk must
// (a) roll back cleanly — version and facts unmoved, (b) degrade the
// store read-only with a transient classification, (c) keep serving
// reads, (d) refuse TryRecover while the disk is still full, and (e)
// recover to writable via TryRecover once space returns.
func TestENOSPCCommitDegradesTransient(t *testing.T) {
	mem := vfs.NewMem()
	en := vfs.NewENOSPC(7) // first failing write is torn: rollback must cope
	ft := vfs.NewFault(mem, en)
	s := openMemStore(t, ft, 0)
	mustCommit(t, s, Mutation{Op: OpAssert, Atom: atom(t, "edge(c, d)")})
	version, facts := s.Version(), factKeys(s.Facts())

	en.Fill()
	_, err := s.Commit([]Mutation{{Op: OpAssert, Atom: atom(t, "edge(d, e)")}})
	if !errors.Is(err, ErrReadOnly) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("commit on full disk = %v; want ErrReadOnly wrapping ENOSPC", err)
	}
	if got := s.Version(); got != version {
		t.Fatalf("version moved across a failed commit: %d -> %d", version, got)
	}
	if got := factKeys(s.Facts()); !equalKeys(got, facts) {
		t.Fatalf("facts moved across a failed commit:\n got %v\nwant %v", got, facts)
	}
	ro, transient, cause := s.Degraded()
	if !ro || !transient || !errors.Is(cause, syscall.ENOSPC) {
		t.Fatalf("Degraded() = %v, %v, %v; want read-only, transient, ENOSPC cause", ro, transient, cause)
	}
	if !s.Has(atom(t, "edge(c, d)")) {
		t.Fatal("reads stopped serving after ENOSPC degradation")
	}

	// Still full: the probe write must fail and the store stay read-only.
	if err := s.TryRecover(); err == nil {
		t.Fatal("TryRecover succeeded while the disk is still full")
	}
	if ro, _, _ := s.Degraded(); !ro {
		t.Fatal("a failed recovery probe cleared the degradation")
	}

	// Space returns: recovery re-enables writes without a restart.
	en.Release()
	if err := s.TryRecover(); err != nil {
		t.Fatalf("TryRecover after space returned: %v", err)
	}
	if ro, _, _ := s.Degraded(); ro {
		t.Fatal("store still read-only after successful recovery")
	}
	mustCommit(t, s, Mutation{Op: OpAssert, Atom: atom(t, "edge(d, e)")})
	want := factKeys(s.Facts())

	// The recovered write path is durable: a crash loses nothing acked.
	mem.Crash(rand.New(rand.NewSource(3)))
	s2, rec, err := openModel(prog(t, seedSrc), tortureConfig(mem))
	if err != nil {
		t.Fatalf("recovery after crash: %v", err)
	}
	defer s2.Close()
	if rec.Version != version+1 {
		t.Fatalf("recovered version = %d, want %d", rec.Version, version+1)
	}
	if got := factKeys(s2.Facts()); !equalKeys(got, want) {
		t.Fatalf("recovered facts:\n got %v\nwant %v", got, want)
	}
}

// TestENOSPCStickyWhenRollbackFails: transiency requires a clean
// rollback. If the truncate restoring the WAL prefix fails too, the
// on-disk tail is no longer a known-good prefix — the degradation must
// be sticky, and TryRecover must refuse even after space returns.
func TestENOSPCStickyWhenRollbackFails(t *testing.T) {
	en := vfs.NewENOSPC(5)
	script := vfs.ScriptFunc(func(op vfs.Op) vfs.Decision {
		if en.Full() && op.Kind == vfs.OpTruncate {
			return vfs.Decision{Err: vfs.ErrInjected}
		}
		return en.Decide(op)
	})
	ft := vfs.NewFault(vfs.NewMem(), script)
	s := openMemStore(t, ft, 0)
	mustCommit(t, s, Mutation{Op: OpAssert, Atom: atom(t, "edge(c, d)")})

	en.Fill()
	if _, err := s.Commit([]Mutation{{Op: OpAssert, Atom: atom(t, "edge(d, e)")}}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("commit on full disk = %v; want ErrReadOnly", err)
	}
	if _, transient, _ := s.Degraded(); transient {
		t.Fatal("degradation classified transient although the rollback truncate failed")
	}
	en.Release()
	if err := s.TryRecover(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("TryRecover on a sticky degradation = %v; want ErrReadOnly", err)
	}
	if ro, _, _ := s.Degraded(); !ro {
		t.Fatal("sticky degradation cleared by TryRecover")
	}
}

// TestTortureENOSPCSweep fills the disk at every mutating operation of
// the torture workload in turn — WAL appends, fsyncs, snapshot writes,
// WAL rotations, everything compaction does — and asserts, for each
// fill point: acked commits are intact in memory, any degradation is
// transient, releasing space makes the store writable again in place,
// and the post-recovery state survives a crash-restart.
func TestTortureENOSPCSweep(t *testing.T) {
	seedProg := prog(t, seedSrc)
	batches := makeBatches(rand.New(rand.NewSource(5)), tortureBatches)
	states := modelStates(seedProg.Facts, batches)

	// Counting run on a healthy disk enumerates the fill points.
	mem := vfs.NewMem()
	ft := vfs.NewFault(mem, nil)
	s, _, err := openModel(seedProg, tortureConfig(ft))
	if err != nil {
		t.Fatalf("healthy open: %v", err)
	}
	for i, b := range batches {
		if _, err := s.Commit(b); err != nil {
			t.Fatalf("healthy commit %d: %v", i+1, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("healthy close: %v", err)
	}
	n := ft.Ops()

	for k := 1; k <= n; k++ {
		if err := enospcRound(seedProg, batches, states, k); err != nil {
			t.Fatalf("fill point %d/%d: %v", k, n, err)
		}
	}
}

// enospcRound runs one fill point of the ENOSPC sweep: the disk fills
// at mutating op k, the workload runs until refused, then space returns
// and the full recovery contract is checked.
func enospcRound(seedProg *ast.Program, batches [][]Mutation, states [][]string, k int) error {
	mem := vfs.NewMem()
	en := vfs.NewENOSPC(k % 64) // deterministic torn-write length per point
	filled := false
	script := vfs.ScriptFunc(func(op vfs.Op) vfs.Decision {
		if !filled && op.Seq >= k {
			filled = true
			en.Fill()
		}
		return en.Decide(op)
	})
	ft := vfs.NewFault(mem, script)
	s, _, err := openModel(seedProg, tortureConfig(ft))
	if err != nil {
		// The fill landed inside Open (e.g. the WAL header write). Space
		// returning must make a fresh Open succeed; nothing was acked.
		en.Release()
		s, _, err = openModel(seedProg, tortureConfig(ft))
		if err != nil {
			return fmt.Errorf("reopen after releasing space: %v", err)
		}
	}
	defer s.Close()
	acked := 0
	for _, b := range batches {
		if _, err := s.Commit(b); err != nil {
			if !errors.Is(err, ErrReadOnly) {
				return fmt.Errorf("failed commit did not carry ErrReadOnly: %v", err)
			}
			break
		}
		acked++
	}
	// No crash happened: every acked commit must be intact in memory.
	if got := int(s.Version()); got != acked {
		return fmt.Errorf("version %d != acked %d", got, acked)
	}
	if got := factKeys(s.Facts()); !equalKeys(got, states[acked]) {
		return fmt.Errorf("facts at version %d diverge from model:\n got %v\nwant %v", acked, got, states[acked])
	}

	// Space returns: the store must become writable again without restart.
	en.Release()
	if ro, transient, cause := s.Degraded(); ro {
		if !transient {
			return fmt.Errorf("ENOSPC degradation not transient: %v", cause)
		}
		if err := s.TryRecover(); err != nil {
			return fmt.Errorf("TryRecover after space returned: %v", err)
		}
	}
	extra := Mutation{Op: OpAssert, Atom: ast.Atom{Pred: "edge", Args: []ast.Term{ast.Const("a"), ast.Const("f")}}}
	if _, err := s.Commit([]Mutation{extra}); err != nil {
		return fmt.Errorf("commit after recovery: %v", err)
	}
	postVersion, postFacts := s.Version(), factKeys(s.Facts())

	// The post-recovery write path is durable: crash and recover.
	mem.Crash(rand.New(rand.NewSource(int64(k))))
	s2, rec, err := openModel(seedProg, tortureConfig(mem))
	if err != nil {
		return fmt.Errorf("recovery after crash: %v", err)
	}
	defer s2.Close()
	if rec.Version != postVersion {
		return fmt.Errorf("recovered version = %d, want %d", rec.Version, postVersion)
	}
	if got := factKeys(s2.Facts()); !equalKeys(got, postFacts) {
		return fmt.Errorf("recovered facts:\n got %v\nwant %v", got, postFacts)
	}
	if ro, _, _ := s2.Degraded(); ro {
		return fmt.Errorf("recovered store is read-only")
	}
	return nil
}
