package tenant

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"
	"time"

	hypo "hypodatalog"
	"hypodatalog/internal/metrics"
	"hypodatalog/internal/workload"
)

// ask decides a ground read on the pool.
func ask(pl *hypo.Pool, query string) (ok bool, err error) {
	_, err = pl.Read(context.Background(), hypo.Request{Kind: hypo.ReadAsk, Query: query}, func(hypo.Binding) error {
		ok = true
		return nil
	})
	return ok, err
}

const uniSrc = `
take(tony, his101).
take(tony, eng201).
take(mary, his101).
grad(S) :- take(S, his101), take(S, eng201).
`

const paritySrc = `
even.
odd :- not even.
`

func quiet() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

func openTestRegistry(t *testing.T, dir string) *Registry {
	t.Helper()
	r, err := Open(Config{
		Dir:        dir,
		Options:    hypo.Options{PoolSize: 2},
		LiveConfig: hypo.LiveConfig{NoSync: true},
		Logger:     quiet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"default", "a", "tenant-1", "x_y", "0abc"} {
		if !ValidName(ok) {
			t.Errorf("ValidName(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", "-lead", "_lead", "UPPER", "dot.dot", "a/b", "..",
		"ab123456789012345678901234567890123456789012345678901234567890123"} {
		if ValidName(bad) {
			t.Errorf("ValidName(%q) = true, want false", bad)
		}
	}
}

func TestCreateGetDelete(t *testing.T) {
	r := openTestRegistry(t, t.TempDir())

	tn, created, err := r.Create("uni", uniSrc)
	if err != nil || !created {
		t.Fatalf("Create = %v, created=%v", err, created)
	}
	if tn.Name() != "uni" || tn.Live() == nil || tn.Pool() == nil {
		t.Fatalf("tenant not fully built: %+v", tn)
	}
	if got, err := r.Get("uni"); err != nil || got != tn {
		t.Fatalf("Get = %v, %v", got, err)
	}

	// Idempotent PUT: same rules return the same tenant, created=false.
	again, created, err := r.Create("uni", uniSrc)
	if err != nil || created || again != tn {
		t.Fatalf("re-Create = %v, created=%v, same=%v", err, created, again == tn)
	}

	// Different rules conflict.
	if _, _, err := r.Create("uni", paritySrc); !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting Create err = %v, want ErrConflict", err)
	}

	// The tenant answers queries through its own pool.
	ok, err := ask(tn.Pool(), "grad(tony)")
	if err != nil || !ok {
		t.Fatalf("Ask through tenant pool = %v, %v", ok, err)
	}

	if err := r.Delete(context.Background(), "uni"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := r.Get("uni"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("Get after delete err = %v, want ErrUnknown", err)
	}
	if _, err := os.Stat(filepath.Join(r.cfg.Dir, "uni")); !os.IsNotExist(err) {
		t.Fatalf("state dir survived delete: %v", err)
	}
	if err := r.Delete(context.Background(), "uni"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("double Delete err = %v, want ErrUnknown", err)
	}
}

func TestCreateValidation(t *testing.T) {
	r := openTestRegistry(t, t.TempDir())
	if _, _, err := r.Create("Bad Name", uniSrc); !errors.Is(err, ErrBadName) {
		t.Errorf("bad name err = %v, want ErrBadName", err)
	}
	if _, _, err := r.Create("ok", "p :- q("); !errors.Is(err, ErrBadProgram) {
		t.Errorf("bad program err = %v, want ErrBadProgram", err)
	}
}

func TestDefaultProtected(t *testing.T) {
	r := openTestRegistry(t, t.TempDir())
	if _, _, err := r.Create("default", uniSrc); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(context.Background(), "default"); !errors.Is(err, ErrProtected) {
		t.Fatalf("Delete(default) err = %v, want ErrProtected", err)
	}
	if r.Default() == nil {
		t.Fatal("default tenant gone after refused delete")
	}
}

// TestBootRecovery writes through two tenants, closes the registry, and
// reopens it over the same directory: both programs must come back with
// their own committed data, proving per-tenant WALs replay
// independently.
func TestBootRecovery(t *testing.T) {
	dir := t.TempDir()
	r := openTestRegistry(t, dir)
	if _, _, err := r.Create("uni", uniSrc); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Create("parity", paritySrc); err != nil {
		t.Fatal(err)
	}
	uni, _ := r.Get("uni")
	ms, err := hypo.ParseMutations([]string{"take(mary, eng201)"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := uni.Live().Apply(ms); err != nil {
		t.Fatal(err)
	}
	wantV := uni.Version()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2 := openTestRegistry(t, dir)
	names := []string{}
	for _, tn := range r2.List() {
		names = append(names, tn.Name())
	}
	if len(names) != 2 || names[0] != "parity" || names[1] != "uni" {
		t.Fatalf("recovered tenants = %v", names)
	}
	uni2, _ := r2.Get("uni")
	if uni2.Version() != wantV {
		t.Errorf("recovered uni version = %d, want %d", uni2.Version(), wantV)
	}
	if ok, err := ask(uni2.Pool(), "grad(mary)"); err != nil || !ok {
		t.Errorf("recovered write lost: grad(mary) = %v, %v", ok, err)
	}
	par, _ := r2.Get("parity")
	if ok, err := ask(par.Pool(), "even"); err != nil || !ok {
		t.Errorf("recovered parity: even = %v, %v", ok, err)
	}
}

// TestBootSkipsIncompleteDir: a directory without program.hdl (crash
// between mkdir and the program write) must not fail boot.
func TestBootSkipsIncompleteDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "halfmade"), 0o755); err != nil {
		t.Fatal(err)
	}
	r := openTestRegistry(t, dir)
	if _, err := r.Get("halfmade"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("incomplete dir registered: %v", err)
	}
}

func TestStaticRegistry(t *testing.T) {
	prog, err := hypo.Parse(uniSrc)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := hypo.NewPool(prog, hypo.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	r := NewStatic("default", pool, nil, nil, 0)
	defer r.Close()
	if !r.static || r.Default() == nil || r.Default().Pool() != pool {
		t.Fatalf("static registry malformed")
	}
	if _, _, err := r.Create("x", uniSrc); !errors.Is(err, ErrStatic) {
		t.Errorf("static Create err = %v, want ErrStatic", err)
	}
	if err := r.Delete(context.Background(), "x"); !errors.Is(err, ErrStatic) {
		t.Errorf("static Delete err = %v, want ErrStatic", err)
	}
	if r.Default().Metrics() != metrics.Default {
		t.Error("static default tenant not on metrics.Default")
	}
}

// TestAdmitQuota exercises the per-tenant admission gate directly:
// slots, bounded queue, shed, and drain waking queued waiters.
func TestAdmitQuota(t *testing.T) {
	r := openTestRegistry(t, t.TempDir())
	tn, _, err := r.Create("q", uniSrc)
	if err != nil {
		t.Fatal(err)
	}
	// The registry template sets no explicit quota; pool size 2 → 2
	// slots, queue 8. Occupy both slots.
	rel1, err := tn.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := tn.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// A third admit with an immediate deadline parks in the queue and
	// surfaces the ctx error.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := tn.Admit(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued admit err = %v, want DeadlineExceeded", err)
	}
	rel1()
	// A slot is free again.
	rel3, err := tn.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel3()
	rel2()

	tn.BeginDrain()
	if _, err := tn.Admit(context.Background()); !errors.Is(err, ErrDraining) {
		t.Fatalf("admit while draining err = %v, want ErrDraining", err)
	}
}

// TestAdmitShedsBeyondQueue fills slots and queue and checks the
// overflow is shed immediately, counted on this tenant's metric set
// only.
func TestAdmitShedsBeyondQueue(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Config{
		Dir:        dir,
		Options:    hypo.Options{PoolSize: 1},
		LiveConfig: hypo.LiveConfig{NoSync: true},
		MaxQueue:   1,
		Logger:     quiet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	a, _, err := r.Create("a", uniSrc)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := r.Create("b", uniSrc)
	if err != nil {
		t.Fatal(err)
	}

	rel, err := a.Admit(context.Background()) // slot
	if err != nil {
		t.Fatal(err)
	}
	queuedErr := make(chan error, 1)
	go func() {
		_, err := a.Admit(context.Background()) // queue (released by drain below)
		queuedErr <- err
	}()
	// Wait until the goroutine is actually queued.
	deadline := time.Now().Add(5 * time.Second)
	for a.queued.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, err := a.Admit(context.Background()); !errors.Is(err, ErrShed) {
		t.Fatalf("overflow admit err = %v, want ErrShed", err)
	}
	if got := a.Metrics().HTTPShed.Value(); got != 1 {
		t.Errorf("tenant a shed counter = %d, want 1", got)
	}
	if got := b.Metrics().HTTPShed.Value(); got != 0 {
		t.Errorf("tenant b shed counter = %d, want 0 (isolation)", got)
	}
	// Tenant b is untouched by a's pressure.
	relB, err := b.Admit(context.Background())
	if err != nil {
		t.Fatalf("tenant b admit during a's saturation: %v", err)
	}
	relB()

	a.BeginDrain()
	if err := <-queuedErr; !errors.Is(err, ErrDraining) {
		t.Errorf("queued waiter err = %v, want ErrDraining", err)
	}
	rel()
}

// TestDeleteWaitsForInFlight: Delete must not close stores under an
// in-flight evaluation — the drain acquires every slot first.
func TestDeleteWaitsForInFlight(t *testing.T) {
	r := openTestRegistry(t, t.TempDir())
	tn, _, err := r.Create("busy", uniSrc)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := tn.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.Delete(context.Background(), "busy") }()
	select {
	case err := <-done:
		t.Fatalf("Delete returned %v with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	rel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Delete after release: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Delete never finished after the in-flight request released")
	}
}

func TestMetricsIsolationAndSnapshot(t *testing.T) {
	r := openTestRegistry(t, t.TempDir())
	a, _, err := r.Create("ma", uniSrc)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := r.Create("mb", uniSrc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics() == b.Metrics() {
		t.Fatal("tenants share a metric set")
	}
	if a.Metrics().Name() != "hypo_ma" {
		t.Errorf("tenant metric set name = %q", a.Metrics().Name())
	}
	if _, err := ask(a.Pool(), "grad(tony)"); err != nil {
		t.Fatal(err)
	}
	if a.Metrics().QueriesStarted.Value() == 0 {
		t.Error("tenant a query not counted on its set")
	}
	if b.Metrics().QueriesStarted.Value() != 0 {
		t.Error("tenant a query leaked onto b's set")
	}
	snap, ok := programsSnapshot().(map[string]any)
	if !ok {
		t.Fatal("programsSnapshot is not a map")
	}
	if _, ok := snap["ma"]; !ok {
		t.Errorf("snapshot missing tenant ma: %v", snap)
	}
	if _, ok := snap["mb"]; !ok {
		t.Errorf("snapshot missing tenant mb: %v", snap)
	}
}

// TestDeltaWorkChargedToItsTenant: Δ-part work — materialisations by
// queries, cached models maintained or dropped by commits — used to be
// counted on metrics.Default from inside the bottom-up prover, whichever
// tenant's engine ran it.
func TestDeltaWorkChargedToItsTenant(t *testing.T) {
	r := openTestRegistry(t, t.TempDir())
	src := workload.ClosureProgram(workload.Chain(6), workload.RightLinear)
	idle, _, err := r.Create("idle", src)
	if err != nil {
		t.Fatal(err)
	}
	busy, _, err := r.Create("busy", src)
	if err != nil {
		t.Fatal(err)
	}
	deltaWork := func(m *metrics.Set) int64 {
		return m.DeltaMaterialisations.Value() + m.LiveIncrementalStates.Value() + m.LiveIncrementalDropped.Value()
	}
	before := deltaWork(metrics.Default)

	ask := func(want bool) {
		t.Helper()
		if got, err := ask(busy.Pool(), "reach(n0, n6)"); err != nil || got != want {
			t.Fatalf("reach(n0, n6) = %v, %v; want %v", got, err, want)
		}
	}
	ask(true)
	ms, err := hypo.ParseMutations(nil, []string{"edge(n2, n3)"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := busy.Live().Apply(ms); err != nil {
		t.Fatal(err)
	}
	ask(false)

	bm := busy.Metrics()
	if bm.DeltaMaterialisations.Value() == 0 {
		t.Error("busy tenant's closure was materialised but its delta_materialisations reads 0")
	}
	if bm.LiveIncrementalStates.Value()+bm.LiveIncrementalDropped.Value() == 0 {
		t.Error("busy tenant's cached model met a commit but neither live_incremental_states nor _dropped moved")
	}
	if got := deltaWork(idle.Metrics()); got != 0 {
		t.Errorf("idle tenant's set shows %d units of Δ work", got)
	}
	if got := deltaWork(metrics.Default) - before; got != 0 {
		t.Errorf("default set moved by %d: Δ work charged to the wrong tenant", got)
	}
}

// TestMemoryQuotaUnderWriteChurn: a live tenant whose memory quota is
// far below its answer cache's budget takes commits, each followed by a
// round of open reads through admission. A commit frees the answers it
// supersedes, so the cache holds one version's answers and the tenant's
// footprint stays under its quota: no warm engine is trimmed and no
// request is shed. Dead answers that stayed until byte pressure evicted
// them would push the footprint over the quota, and every admission
// would trim the warm engines for them.
func TestMemoryQuotaUnderWriteChurn(t *testing.T) {
	const n, commits = 16, 200
	r, err := Open(Config{
		Dir:        t.TempDir(),
		Options:    hypo.Options{PoolSize: 2, CacheBytes: 64 << 20},
		LiveConfig: hypo.LiveConfig{NoSync: true},
		Logger:     quiet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tn, _, err := r.Create("churn", workload.ClosureProgram(workload.Chain(n), workload.RightLinear))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	shed := 0
	reads := func() {
		for i := 0; i < n; i++ {
			release, err := tn.Admit(ctx)
			if err != nil {
				shed++
				continue
			}
			q := fmt.Sprintf("reach(n%d, Y)", i)
			_, err = tn.Pool().Read(ctx, hypo.Request{Kind: hypo.ReadQuery, Query: q}, func(hypo.Binding) error { return nil })
			release()
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
	}
	reads()
	// One version's answers and a warm engine, with 1 MiB to spare.
	quota := tn.Pool().MemBytes() + 1<<20
	tn.SetQuotas(quota, 0)
	chord := []string{fmt.Sprintf("edge(n%d, n%d)", n-1, n/2)}
	for k := 1; k <= commits; k++ {
		ms, err := hypo.ParseMutations(chord, nil)
		if k%2 == 0 {
			ms, err = hypo.ParseMutations(nil, chord)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tn.Live().Apply(ms); err != nil {
			t.Fatal(err)
		}
		reads()
	}
	m := tn.Metrics()
	t.Logf("quota %d B; footprint %d B, cache %d B", quota, tn.Pool().MemBytes(), tn.Pool().CacheMemBytes())
	if shed != 0 || m.MemTenantShed.Value() != 0 || m.MemEngineTrims.Value() != 0 {
		t.Fatalf("under a %d B quota: %d reads shed (mem_tenant_shed %d), %d engines trimmed",
			quota, shed, m.MemTenantShed.Value(), m.MemEngineTrims.Value())
	}
}

// TestMemoryQuotaTrimsCache: a tenant whose memory quota is below one
// version's answers alone is not shed for good. Each admission drops the
// idle engines and then the least recently used cached answers down to
// the quota, counting them as cache evictions, and takes its slot.
func TestMemoryQuotaTrimsCache(t *testing.T) {
	const n = 16
	r, err := Open(Config{
		Dir:        t.TempDir(),
		Options:    hypo.Options{PoolSize: 2, CacheBytes: 64 << 20},
		LiveConfig: hypo.LiveConfig{NoSync: true},
		Logger:     quiet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tn, _, err := r.Create("trim", workload.ClosureProgram(workload.Chain(n), workload.RightLinear))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	reads := func() {
		for i := 0; i < n; i++ {
			release, err := tn.Admit(ctx)
			if err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			q := fmt.Sprintf("reach(n%d, Y)", i)
			_, err = tn.Pool().Read(ctx, hypo.Request{Kind: hypo.ReadQuery, Query: q}, func(hypo.Binding) error { return nil })
			release()
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
	}
	reads()
	m := tn.Metrics()
	quota := tn.Pool().CacheMemBytes() / 2
	if quota <= 0 || m.CacheEvictions.Value() != 0 {
		t.Fatalf("cache holds %d B after %d answers, %d evicted", 2*quota, n, m.CacheEvictions.Value())
	}
	tn.SetQuotas(quota, 0)
	reads()
	if m.MemTenantShed.Value() != 0 || m.CacheEvictions.Value() == 0 {
		t.Fatalf("under a %d B quota: mem_tenant_shed %d, cache_evictions %d; want 0 and > 0",
			quota, m.MemTenantShed.Value(), m.CacheEvictions.Value())
	}
	// The last read stored its answer after its admission's trim.
	release, err := tn.Admit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	release()
	if c := tn.Pool().CacheMemBytes(); c > quota || c == 0 {
		t.Errorf("cache holds %d B after a trim to a %d B quota; want some, at most the quota", c, quota)
	}
}
