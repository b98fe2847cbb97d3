package hypo

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"hypodatalog/internal/live"
	"hypodatalog/internal/metrics"
	"hypodatalog/internal/ref"
	"hypodatalog/internal/vfs"
)

// quietLog drops store diagnostics (compaction notices) in tests.
var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// liveSrc declares flag/1 extensional (a seed fact) and light/1 by rule,
// with spare constants so asserts have room to move.
const liveSrc = `
flag(off).
node(a). node(b). node(c).
edge(a, b).
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
light(X) :- flag(X).
`

func openLive(t *testing.T, opts Options) *Live {
	t.Helper()
	dir := t.TempDir()
	l, err := OpenLive(mustParse(t, liveSrc), LiveConfig{
		WALPath:      filepath.Join(dir, "wal.log"),
		SnapshotPath: filepath.Join(dir, "db.snap"),
		NoSync:       true,
		Logger:       quietLog,
	}, opts)
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func mutations(t *testing.T, asserts, retracts []string) []live.Mutation {
	t.Helper()
	ms, err := ParseMutations(asserts, retracts)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestLiveApplyVisibleToNextQuery(t *testing.T) {
	l := openLive(t, Options{})
	pl := l.Pool()
	if ok, err := ask(context.Background(), pl, "reach(b, c)"); err != nil || ok {
		t.Fatalf("reach(b, c) before assert = %v, %v", ok, err)
	}
	info, err := l.Apply(mutations(t, []string{"edge(b, c)"}, nil))
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if info.Version != 1 || info.Changed != 1 {
		t.Fatalf("info = %+v", info)
	}
	if pl.Version() != 1 {
		t.Fatalf("pool version = %d, want 1", pl.Version())
	}
	if ok, err := ask(context.Background(), pl, "reach(b, c)"); err != nil || !ok {
		t.Fatalf("reach(b, c) after assert = %v, %v", ok, err)
	}
	// Rules fire over the new base: light(on)? still needs flag(on).
	if _, err := l.Apply(mutations(t, nil, []string{"edge(b, c)"})); err != nil {
		t.Fatal(err)
	}
	if ok, _ := ask(context.Background(), pl, "reach(b, c)"); ok {
		t.Fatal("reach(b, c) survived retraction")
	}
}

// TestLiveSnapshotIsolation holds one engine across a commit: the leased
// engine must keep answering at its pinned version while the next lease
// sees the new one.
func TestLiveSnapshotIsolation(t *testing.T) {
	l := openLive(t, Options{})
	pl := l.Pool()
	err := pl.Do(context.Background(), func(e *Engine) error {
		if v := e.DataVersion(); v != 0 {
			return fmt.Errorf("leased engine at version %d, want 0", v)
		}
		if ok, err := e.Ask("reach(b, c)"); err != nil || ok {
			return fmt.Errorf("pre-commit reach(b, c) = %v, %v", ok, err)
		}
		// Commit while the lease is held.
		if _, err := l.Apply(mutations(t, []string{"edge(b, c)"}, nil)); err != nil {
			return err
		}
		// The running engine still evaluates against its own version.
		if ok, err := e.Ask("reach(b, c)"); err != nil || ok {
			return fmt.Errorf("leased engine saw the commit: %v, %v", ok, err)
		}
		if v := e.DataVersion(); v != 0 {
			return fmt.Errorf("leased engine version drifted to %d", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The next lease is at version 1 and sees the fact.
	err = pl.Do(context.Background(), func(e *Engine) error {
		if v := e.DataVersion(); v != 1 {
			return fmt.Errorf("post-commit lease at version %d, want 1", v)
		}
		ok, err := e.Ask("reach(b, c)")
		if err != nil || !ok {
			return fmt.Errorf("post-commit reach(b, c) = %v, %v", ok, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLiveApplyValidation(t *testing.T) {
	l := openLive(t, Options{})
	cases := []struct {
		name     string
		asserts  []string
		retracts []string
	}{
		{"intensional predicate", []string{"reach(a, b)"}, nil},
		{"intensional via rule head", []string{"light(off)"}, nil},
		{"out-of-domain constant", []string{"edge(a, zz9)"}, nil},
		{"out-of-domain retract", nil, []string{"edge(a, zz9)"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ms, err := ParseMutations(tc.asserts, tc.retracts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.Apply(ms); err == nil {
				t.Fatalf("Apply(%v, %v) succeeded", tc.asserts, tc.retracts)
			}
		})
	}
	if _, err := ParseMutations([]string{"edge(a, X)"}, nil); err == nil {
		t.Fatal("non-ground assert parsed")
	}
	if _, err := ParseMutations([]string{"edge(a,"}, nil); err == nil {
		t.Fatal("malformed atom parsed")
	}
	if l.Version() != 0 {
		t.Fatalf("rejected batches moved the version to %d", l.Version())
	}
	// A batch mixing one valid and one invalid mutation is all-or-nothing.
	ms := mutations(t, []string{"edge(b, c)"}, nil)
	bad, err := ParseMutations([]string{"reach(a, c)"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Apply(append(ms, bad...)); err == nil {
		t.Fatal("mixed batch committed")
	}
	if ok, _ := ask(context.Background(), l.Pool(), "reach(b, c)"); ok {
		t.Fatal("rejected batch partially applied")
	}
}

// TestLiveExtraDomainAssert: constants declared via Options.ExtraDomain
// are assertable even though no program text mentions them.
func TestLiveExtraDomainAssert(t *testing.T) {
	l := openLive(t, Options{ExtraDomain: []string{"d"}})
	if _, err := l.Apply(mutations(t, []string{"edge(c, d)"}, nil)); err != nil {
		t.Fatalf("Apply with ExtraDomain constant: %v", err)
	}
	ok, err := ask(context.Background(), l.Pool(), "reach(c, d)")
	if err != nil || !ok {
		t.Fatalf("reach(c, d) = %v, %v", ok, err)
	}
}

// TestLiveRecovery: facts asserted in one Live survive into the next via
// snapshot + WAL, including constants outside the seed program's text.
func TestLiveRecovery(t *testing.T) {
	dir := t.TempDir()
	lc := LiveConfig{
		WALPath:      filepath.Join(dir, "wal.log"),
		SnapshotPath: filepath.Join(dir, "db.snap"),
		NoSync:       true,
		Logger:       quietLog,
	}
	opts := Options{ExtraDomain: []string{"d"}}
	l, err := OpenLive(mustParse(t, liveSrc), lc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Apply(mutations(t, []string{"edge(b, c)", "edge(c, d)"}, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Apply(mutations(t, nil, []string{"flag(off)"})); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen WITHOUT ExtraDomain: the recovered fact edge(c, d) must pull
	// d back into the pinned domain on its own.
	r, err := OpenLive(mustParse(t, liveSrc), lc, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	if v := r.Version(); v != 2 {
		t.Fatalf("recovered version = %d, want 2", v)
	}
	if ok, err := ask(context.Background(), r.Pool(), "reach(a, d)"); err != nil || !ok {
		t.Fatalf("reach(a, d) after recovery = %v, %v", ok, err)
	}
	if ok, _ := ask(context.Background(), r.Pool(), "light(off)"); ok {
		t.Fatal("retracted flag(off) resurrected by recovery")
	}
	// And the recovered constant is assertable again.
	if _, err := r.Apply(mutations(t, []string{"node(d)"}, nil)); err != nil {
		t.Fatalf("asserting recovered constant: %v", err)
	}
}

// TestLiveRecoveredDomainOrder pins the domain a recovered Live ranges
// over: dom(R, DB) of the initial program, then Options.ExtraDomain, then
// each constant the recovered facts name that neither holds, in the
// order the store recovers facts: sorted by canonical text (d before f
// and e here, though edge(f, e) was asserted first) — the same constants
// in the same order however the domain is computed.
func TestLiveRecoveredDomainOrder(t *testing.T) {
	dir := t.TempDir()
	lc := LiveConfig{WALPath: filepath.Join(dir, "wal.log"), NoSync: true, Logger: quietLog}
	l, err := OpenLive(mustParse(t, liveSrc), lc, Options{ExtraDomain: []string{"e", "d", "f"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Apply(mutations(t, []string{"edge(f, e)", "edge(c, d)", "flag(d)"}, nil)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenLive(mustParse(t, liveSrc), lc, Options{ExtraDomain: []string{"g", "a"}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	p := mustParse(t, liveSrc)
	var want []string
	seen := map[string]bool{}
	add := func(c string) {
		if !seen[c] {
			seen[c] = true
			want = append(want, c)
		}
	}
	for _, c := range ref.Domain(p.comp) {
		add(p.syms.ConstName(c))
	}
	add("g")
	add("a")
	recovered := []string{"flag(off)", "node(a)", "node(b)", "node(c)", "edge(a, b)", "edge(f, e)", "edge(c, d)", "flag(d)"}
	sort.Strings(recovered)
	for _, m := range mutations(t, recovered, nil) {
		for _, a := range m.Atom.Args {
			add(a.Name)
		}
	}
	var got []string
	for _, c := range r.pool.dom.consts {
		got = append(got, r.pool.prog.syms.ConstName(c))
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("recovered domain = %v, want %v", got, want)
	}
}

func TestLiveClosedApply(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLive(mustParse(t, liveSrc), LiveConfig{
		WALPath: filepath.Join(dir, "wal.log"),
		NoSync:  true,
		Logger:  quietLog,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := l.Apply(mutations(t, []string{"edge(b, c)"}, nil)); !errors.Is(err, live.ErrClosed) {
		t.Fatalf("Apply after Close = %v, want ErrClosed", err)
	}
}

// TestLiveConcurrentReadWrite is the race-clean mixed-traffic test: a
// writer toggles flag(on) on and off (one mutation per commit) while
// readers check the invariant that light(on) holds exactly at odd data
// versions — any engine mixing versions, or any memo state bleeding
// across a rebuild, breaks the parity.
func TestLiveConcurrentReadWrite(t *testing.T) {
	l := openLive(t, Options{PoolSize: 4, ExtraDomain: []string{"on"}})
	pl := l.Pool()

	const commits = 60
	var wg sync.WaitGroup
	errCh := make(chan error, 8)

	wg.Add(1)
	go func() {
		defer wg.Done()
		on := true
		for i := 0; i < commits; i++ {
			var ms []live.Mutation
			var err error
			if on {
				ms, err = ParseMutations([]string{"flag(on)"}, nil)
			} else {
				ms, err = ParseMutations(nil, []string{"flag(on)"})
			}
			if err == nil {
				_, err = l.Apply(ms)
			}
			if err != nil {
				errCh <- fmt.Errorf("writer commit %d: %w", i, err)
				return
			}
			on = !on
		}
	}()

	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				err := pl.Do(context.Background(), func(e *Engine) error {
					v := e.DataVersion()
					ok, err := e.Ask("light(on)")
					if err != nil {
						return err
					}
					if want := v%2 == 1; ok != want {
						return fmt.Errorf("reader %d: light(on)=%v at version %d", r, ok, v)
					}
					// Same lease, same version: the answer must not move
					// even if the writer committed meanwhile.
					ok2, err := e.Ask("light(on)")
					if err != nil {
						return err
					}
					if ok2 != ok {
						return fmt.Errorf("reader %d: answer changed mid-lease at version %d", r, v)
					}
					return nil
				})
				if err != nil {
					errCh <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if v := l.Version(); v != commits {
		t.Fatalf("final version = %d, want %d", v, commits)
	}
	// Ended on a retract (even count): light(on) is off.
	if ok, err := ask(context.Background(), pl, "light(on)"); err != nil || ok {
		t.Fatalf("final light(on) = %v, %v", ok, err)
	}
}

// TestLiveNoVersionSkewUnderCompactionLatency races Apply (with
// compaction every other commit) against readers sampling versions,
// with every fsync slowed by injected latency to stretch the commit
// window. The pool version is read first, the store version second, so
// pool > store is a genuine ordering violation: the pool must never
// publish a version before the store has durably reached it.
func TestLiveNoVersionSkewUnderCompactionLatency(t *testing.T) {
	ft := vfs.NewFault(vfs.NewMem(), vfs.Latency(vfs.OpSync, 200*time.Microsecond))
	l, err := OpenLive(mustParse(t, liveSrc), LiveConfig{
		WALPath:       "/db/wal.log",
		SnapshotPath:  "/db/db.snap",
		SnapshotEvery: 2,
		Logger:        quietLog,
		FS:            ft,
	}, Options{PoolSize: 4})
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	defer l.Close()
	pl := l.Pool()

	stop := make(chan struct{})
	errCh := make(chan error, 8)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pv := pl.Version()
				if sv := l.Version(); pv > sv {
					errCh <- fmt.Errorf("pool publishes version %d before the store reaches it (store at %d)", pv, sv)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ask(context.Background(), pl, "reach(a, b)"); err != nil {
				errCh <- fmt.Errorf("reader: %w", err)
				return
			}
		}
	}()

	on := true
	for i := 0; i < 30; i++ {
		var ms []live.Mutation
		if on {
			ms, err = ParseMutations([]string{"edge(b, c)"}, nil)
		} else {
			ms, err = ParseMutations(nil, []string{"edge(b, c)"})
		}
		if err == nil {
			_, err = l.Apply(ms)
		}
		if err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		on = !on
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if pv, sv := pl.Version(), l.Version(); pv != sv {
		t.Fatalf("after quiescence pool version %d != store version %d", pv, sv)
	}
}

// TestInstallSnapshotCompactionDegrades: InstallSnapshot compacts after
// its reset through the same path as Apply. A healthy compaction counts
// live_compactions and refreshes disk_bytes; one that degrades the store
// — the WAL rotation's directory fsync failing on a full disk — also
// flips live_read_only and starts the recovery prober.
func TestInstallSnapshotCompactionDegrades(t *testing.T) {
	// SyncDir #1 creates the WAL; each compaction then makes two, the
	// snapshot rename's and the WAL rotation's. The second rotation fails.
	syncDirs := 0
	script := vfs.ScriptFunc(func(op vfs.Op) vfs.Decision {
		if op.Kind != vfs.OpSyncDir {
			return vfs.Decision{}
		}
		if syncDirs++; syncDirs == 5 {
			return vfs.Decision{Err: fmt.Errorf("sync dir: %w", syscall.ENOSPC)}
		}
		return vfs.Decision{}
	})
	mets := metrics.NewSet("test_install_snapshot_compaction")
	l, err := OpenLive(mustParse(t, liveSrc), LiveConfig{
		WALPath:               "/db/wal.log",
		SnapshotPath:          "/db/db.snap",
		FS:                    vfs.NewFault(vfs.NewMem(), script),
		Logger:                quietLog,
		RecoveryProbeInterval: time.Hour,
	}, Options{PoolSize: 1, Metrics: mets})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	install := func(src string, version uint64) {
		t.Helper()
		var buf strings.Builder
		if err := mustParse(t, src).WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if err := l.InstallSnapshot(strings.NewReader(buf.String()), version); err != nil {
			t.Fatalf("InstallSnapshot: %v", err)
		}
	}

	install("flag(off). node(a). edge(a, b).", 5)
	if got := mets.LiveCompactions.Value(); got != 1 {
		t.Fatalf("live_compactions = %d after a compacting InstallSnapshot, want 1", got)
	}
	if got, want := mets.DiskBytes.Value(), l.Store().DiskBytes(); got != want {
		t.Fatalf("disk_bytes = %d, want %d", got, want)
	}
	if got := mets.LiveSnapshotAge.Value(); got != 0 {
		t.Fatalf("live_snapshot_age = %d after compaction, want 0", got)
	}

	install("flag(off). node(b). edge(b, c).", 9)
	if ro, _ := l.Degraded(); !ro {
		t.Fatal("a failed WAL rotation after InstallSnapshot did not degrade the store")
	}
	if got := mets.LiveReadOnly.Value(); got != 1 {
		t.Fatalf("live_read_only = %d after the degrading compaction, want 1", got)
	}
	if !l.Recovering() {
		t.Fatal("no recovery prober after a transient degradation in InstallSnapshot")
	}
	if got := mets.LiveCompactions.Value(); got != 1 {
		t.Fatalf("live_compactions = %d after a failed compaction, want 1", got)
	}
	if got, want := mets.DiskBytes.Value(), l.Store().DiskBytes(); got != want {
		t.Fatalf("disk_bytes = %d after the rotation, want %d", got, want)
	}
}

// TestLiveSnapshotProgramUnderCommits: followers bootstrapping through
// SnapshotProgram while the primary commits, compacting every third
// commit, get at whatever version they are handed exactly the primary's
// fact set at that version. The snapshot is read from the pool's base,
// which must be at the store's version whenever mu is free.
func TestLiveSnapshotProgramUnderCommits(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLive(mustParse(t, liveSrc), LiveConfig{
		WALPath:       filepath.Join(dir, "wal.log"),
		SnapshotPath:  filepath.Join(dir, "db.snap"),
		SnapshotEvery: 3,
		NoSync:        true,
		Logger:        quietLog,
	}, Options{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// states[v] is the fact set at version v, replayed from the batches.
	var batches [][]live.Mutation
	cur := map[string]bool{}
	for _, f := range mustParse(t, liveSrc).src.Facts {
		cur[f.String()] = true
	}
	render := func() string {
		var fs []string
		for f := range cur {
			fs = append(fs, f)
		}
		sort.Strings(fs)
		return strings.Join(fs, " ")
	}
	states := []string{render()}
	nodes := []string{"a", "b", "c"}
	for i := 0; i < 120; i++ {
		e := fmt.Sprintf("edge(%s, %s)", nodes[i%3], nodes[i/3%3])
		asserts, retracts := []string{e}, []string{"flag(off)"}
		if cur[e] {
			asserts, retracts = []string{"flag(off)"}, []string{e}
		}
		batches = append(batches, mutations(t, asserts, retracts))
		for _, f := range asserts {
			cur[f] = true
		}
		for _, f := range retracts {
			delete(cur, f)
		}
		states = append(states, render())
	}

	done := make(chan struct{})
	errCh := make(chan error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					errCh <- nil
					return
				default:
				}
				prog, v := l.SnapshotProgram()
				fs := make([]string, len(prog.Facts))
				for i, f := range prog.Facts {
					fs[i] = f.String()
				}
				if !sort.StringsAreSorted(fs) {
					errCh <- fmt.Errorf("snapshot at version %d is not sorted by canonical text: %v", v, fs)
					return
				}
				if got := strings.Join(fs, " "); got != states[v] {
					errCh <- fmt.Errorf("snapshot at version %d:\n got %s\nwant %s", v, got, states[v])
					return
				}
			}
		}()
	}
	for _, b := range batches {
		if _, err := l.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	for r := 0; r < 2; r++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
}
