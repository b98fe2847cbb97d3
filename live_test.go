package hypo

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hypodatalog/internal/live"
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
