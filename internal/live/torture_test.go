package live

// Crash-consistency torture harness.
//
// The harness replays a deterministic randomized mutation workload
// against an in-memory disk (vfs.Mem) behind a fault injector
// (vfs.Fault), simulating a power cut at EVERY mutating filesystem
// operation — each write, sync, create, rename, remove and directory
// fsync the store issues — then crashes the disk, recovers a fresh
// store from the surviving image, and asserts the durability contract:
//
//	acked ≤ recovered version ≤ attempted
//	recovered fact set == the model's fact set at exactly that version
//
// The lower bound is the promise to callers (an acknowledged commit is
// never lost). The upper bound plus exact-state equality is atomicity:
// a batch that was cut mid-commit may be fully present (the usual ack
// ambiguity — it was durable before the ack could be delivered) or
// fully absent, but never partially applied, and recovery can never
// invent versions nobody attempted.
//
// A failing seed is shrunk to the smallest failing batch count and
// written to $TORTURE_ARTIFACT_DIR (when set) so CI can upload it.
// Environment knobs:
//
//	TORTURE_SEED=N      torture exactly seed N (repro a CI failure)
//	TORTURE_RANDOM=1    use a time-derived seed (CI torture job)
//
// Without either, a fixed seed set runs — fast and deterministic, so
// the sweep is part of the ordinary test suite.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"
	"time"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/vfs"
)

func isReadOnly(err error) bool { return errors.Is(err, ErrReadOnly) }

const (
	tortureWAL     = "/db/wal.log"
	tortureSnap    = "/db/db.snap"
	tortureEvery   = 4 // compact often: rename/rotate paths are the interesting ones
	tortureBatches = 24
)

func tortureConfig(fs vfs.FS) Config {
	return Config{
		WALPath:       tortureWAL,
		SnapshotPath:  tortureSnap,
		SnapshotEvery: tortureEvery,
		FS:            fs,
		Logger:        quiet(),
	}
}

// makeBatches generates n mutation batches from rng. Generation is
// sequential, so makeBatches(rng, m) for m < n yields a prefix of the
// same workload — the property the shrinking loop relies on.
func makeBatches(rng *rand.Rand, n int) [][]Mutation {
	consts := []string{"a", "b", "c", "d", "e", "f"}
	pick := func() ast.Term { return ast.Const(consts[rng.Intn(len(consts))]) }
	batches := make([][]Mutation, n)
	for i := range batches {
		size := 1 + rng.Intn(3)
		batch := make([]Mutation, size)
		for j := range batch {
			a := ast.Atom{Pred: "edge", Args: []ast.Term{pick(), pick()}}
			if rng.Intn(3) == 0 {
				batch[j] = Mutation{Op: OpRetract, Atom: a}
			} else {
				batch[j] = Mutation{Op: OpAssert, Atom: a}
			}
		}
		batches[i] = batch
	}
	return batches
}

func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func factKeys(facts []ast.Atom) []string {
	keys := make([]string, len(facts))
	for i, a := range facts {
		keys[i] = a.String()
	}
	sort.Strings(keys)
	return keys
}

// modelStates computes the expected fact set after every version:
// states[v] is the sorted fact-key set once batches[0:v] have been
// applied (states[0] is the seed).
func modelStates(seedFacts []ast.Atom, batches [][]Mutation) [][]string {
	cur := make(map[string]bool)
	for _, a := range seedFacts {
		cur[a.String()] = true
	}
	states := make([][]string, 0, len(batches)+1)
	states = append(states, sortedKeys(cur))
	for _, b := range batches {
		for _, m := range b {
			if m.Op == OpAssert {
				cur[m.Atom.String()] = true
			} else {
				delete(cur, m.Atom.String())
			}
		}
		states = append(states, sortedKeys(cur))
	}
	return states
}

func equalKeys(a, b []string) bool {
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

// runToCut replays the workload against a disk that power-cuts at
// crash boundary k, reporting how many batches were acknowledged and
// how many were attempted. A harness-level surprise (a commit failing
// without the read-only contract, or the degradation not being sticky)
// is returned as an error.
func runToCut(seedProg *ast.Program, batches [][]Mutation, mem *vfs.Mem, cut vfs.Script) (acked, attempted int, harness error) {
	ft := vfs.NewFault(mem, cut)
	s, _, err := openModel(seedProg, tortureConfig(ft))
	if err != nil {
		return 0, 0, nil // the cut landed inside Open: nothing was acked
	}
	defer s.Close() // post-cut close failures are expected; ignored
	for _, b := range batches {
		attempted++
		if _, err := s.Commit(b); err != nil {
			if !isReadOnly(err) {
				return acked, attempted, fmt.Errorf("failed commit did not carry ErrReadOnly: %v", err)
			}
			// Degradation must be sticky: the next commit is refused too.
			if _, err2 := s.Commit(b); !isReadOnly(err2) {
				return acked, attempted, fmt.Errorf("read-only state not sticky: second commit = %v", err2)
			}
			if ro, _, _ := s.Degraded(); !ro {
				return acked, attempted, fmt.Errorf("commit failed (%v) but Degraded() = false", err)
			}
			return acked, attempted, nil
		}
		acked++
	}
	return acked, attempted, nil
}

// checkRecovery opens a fresh store over the crashed (now fault-free)
// disk image and verifies the durability contract.
func checkRecovery(seedProg *ast.Program, states [][]string, acked, attempted int, mem *vfs.Mem) error {
	s, rec, err := openModel(seedProg, tortureConfig(mem))
	if err != nil {
		return fmt.Errorf("recovery failed: %v", err)
	}
	defer s.Close()
	v := int(rec.Version)
	if v < acked || v > attempted {
		return fmt.Errorf("recovered version %d outside [acked %d, attempted %d]", v, acked, attempted)
	}
	got := factKeys(s.Facts())
	if !equalKeys(got, states[v]) {
		return fmt.Errorf("facts at recovered version %d diverge from model:\n got %v\nwant %v", v, got, states[v])
	}
	if ro, _, roErr := s.Degraded(); ro {
		return fmt.Errorf("recovered store is read-only: %v", roErr)
	}
	return nil
}

// tortureSweep runs the full crash-point sweep for one (seed, batch
// count) pair and returns the first invariant violation.
func tortureSweep(seedProg *ast.Program, seed int64, nBatches int) error {
	batches := makeBatches(rand.New(rand.NewSource(seed)), nBatches)
	states := modelStates(seedProg.Facts, batches)

	// Counting run on a healthy disk: every batch must ack, the final
	// state must match the model, and Ops() is the number of crash
	// boundaries the sweep enumerates.
	mem := vfs.NewMem()
	ft := vfs.NewFault(mem, nil)
	s, _, err := openModel(seedProg, tortureConfig(ft))
	if err != nil {
		return fmt.Errorf("healthy open: %v", err)
	}
	for i, b := range batches {
		if _, err := s.Commit(b); err != nil {
			return fmt.Errorf("healthy commit %d: %v", i+1, err)
		}
	}
	if got := factKeys(s.Facts()); !equalKeys(got, states[nBatches]) {
		return fmt.Errorf("healthy run final state diverges from model:\n got %v\nwant %v", got, states[nBatches])
	}
	if err := s.Close(); err != nil {
		return fmt.Errorf("healthy close: %v", err)
	}
	n := ft.Ops()

	for k := 0; k <= n; k++ {
		// Deterministic per-crash-point randomness: the torn-write length
		// and the crash's survival draws depend only on (seed, k).
		crng := rand.New(rand.NewSource(seed*1_000_003 + int64(k)))
		mem := vfs.NewMem()
		acked, attempted, herr := runToCut(seedProg, batches, mem, vfs.PowerCut(k, crng.Intn(64)))
		if herr != nil {
			return fmt.Errorf("crash point %d/%d: %v", k, n, herr)
		}
		mem.Crash(crng)
		if err := checkRecovery(seedProg, states, acked, attempted, mem); err != nil {
			return fmt.Errorf("crash point %d/%d: %v", k, n, err)
		}
	}
	return nil
}

// shrinkTorture finds the smallest batch count that still fails for the
// seed (workloads are prefix-stable, so this is a true minimization).
func shrinkTorture(seedProg *ast.Program, seed int64, nBatches int) (int, error) {
	for nb := 1; nb <= nBatches; nb++ {
		if err := tortureSweep(seedProg, seed, nb); err != nil {
			return nb, err
		}
	}
	return nBatches, fmt.Errorf("failure did not reproduce during shrinking")
}

func tortureSeeds(t *testing.T) []int64 {
	if v := os.Getenv("TORTURE_SEED"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("TORTURE_SEED=%q: %v", v, err)
		}
		return []int64{seed}
	}
	if os.Getenv("TORTURE_RANDOM") == "1" {
		seed := time.Now().UnixNano()
		t.Logf("torture: random seed %d (repro with TORTURE_SEED=%d)", seed, seed)
		return []int64{seed}
	}
	return []int64{1, 2, 3}
}

func TestTortureCrashSweep(t *testing.T) {
	seedProg := prog(t, seedSrc)
	for _, seed := range tortureSeeds(t) {
		err := tortureSweep(seedProg, seed, tortureBatches)
		if err == nil {
			continue
		}
		nb, minErr := shrinkTorture(seedProg, seed, tortureBatches)
		report := fmt.Sprintf("torture seed %d failed: %v\n\nminimal repro: %d batch(es): %v\nrerun: TORTURE_SEED=%d go test -run TestTortureCrashSweep ./internal/live/\n",
			seed, err, nb, minErr, seed)
		if dir := os.Getenv("TORTURE_ARTIFACT_DIR"); dir != "" {
			_ = os.MkdirAll(dir, 0o755)
			path := filepath.Join(dir, fmt.Sprintf("torture-seed-%d.txt", seed))
			if werr := os.WriteFile(path, []byte(report), 0o644); werr == nil {
				t.Logf("torture: failing seed written to %s", path)
			}
		}
		t.Fatal(report)
	}
}
