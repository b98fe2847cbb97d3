package tenant

// Per-tenant resource-quota tests: the memory ceiling (trim idle
// engines first, shed only if still over) and the write-path disk
// quota.

import (
	"context"
	"errors"
	"testing"

	hypo "hypodatalog"
)

// TestMemoryQuotaTrimsBeforeShedding: a tenant over its memory ceiling
// first sheds idle engines (warm memo tables rebuild lazily); only the
// footprint that trimming cannot reclaim — the answer cache — causes
// requests to be refused with ErrOverMemory.
func TestMemoryQuotaTrimsBeforeShedding(t *testing.T) {
	r, err := Open(Config{
		Dir:        t.TempDir(),
		Options:    hypo.Options{PoolSize: 2, CacheBytes: 1 << 20},
		LiveConfig: hypo.LiveConfig{NoSync: true},
		Logger:     quiet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tn, _, err := r.Create("m", uniSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the pool so idle engines carry memo state and the answer
	// cache holds an entry.
	if _, err := tn.Pool().Read(context.Background(), hypo.Request{Kind: hypo.ReadQuery, Query: "grad(S)"}, func(hypo.Binding) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if tn.Pool().MemBytes() <= 0 {
		t.Fatal("warm pool reports no footprint; the quota has nothing to govern")
	}

	// A 1-byte ceiling: idle engines are dropped, but the cached answers
	// remain — still over, so the request is shed before taking a slot.
	tn.SetQuotas(1, 0)
	if _, err := tn.Admit(context.Background()); !errors.Is(err, ErrOverMemory) {
		t.Fatalf("admit over memory quota = %v, want ErrOverMemory", err)
	}
	if got := tn.Metrics().MemEngineTrims.Value(); got <= 0 {
		t.Fatalf("mem_engine_trims = %d, want > 0 (idle engines must go first)", got)
	}
	if got := tn.Metrics().MemTenantShed.Value(); got != 1 {
		t.Fatalf("mem_tenant_shed = %d, want 1", got)
	}

	// With a ceiling that the post-trim footprint fits, trimming alone
	// satisfies the quota and the request is admitted.
	tn.SetQuotas(1<<20, 0)
	rel, err := tn.Admit(context.Background())
	if err != nil {
		t.Fatalf("admit under a fitting quota = %v", err)
	}
	rel()

	// Unlimited again: no gating at all.
	tn.SetQuotas(0, 0)
	rel, err = tn.Admit(context.Background())
	if err != nil {
		t.Fatalf("admit with quota off = %v", err)
	}
	rel()
}

// TestDiskQuotaGatesWrites: the WAL+snapshot footprint over the disk
// quota refuses writes with ErrOverDisk; reads are never disk-gated
// (CheckDiskQuota is only consulted on the write path, so Admit stays
// open).
func TestDiskQuotaGatesWrites(t *testing.T) {
	r := openTestRegistry(t, t.TempDir())
	tn, _, err := r.Create("d", uniSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.CheckDiskQuota(); err != nil {
		t.Fatalf("unlimited disk quota = %v, want nil", err)
	}

	tn.SetQuotas(0, 1)
	if err := tn.CheckDiskQuota(); !errors.Is(err, ErrOverDisk) {
		t.Fatalf("1-byte disk quota on a tenant with a WAL = %v, want ErrOverDisk", err)
	}
	if got := tn.Metrics().DiskQuotaShed.Value(); got != 1 {
		t.Fatalf("disk_quota_shed = %d, want 1", got)
	}
	// Reads stay open: admission does not consult the disk quota.
	rel, err := tn.Admit(context.Background())
	if err != nil {
		t.Fatalf("admit with disk over quota = %v, want nil (reads unaffected)", err)
	}
	rel()

	tn.SetQuotas(0, 1<<30)
	if err := tn.CheckDiskQuota(); err != nil {
		t.Fatalf("roomy disk quota = %v, want nil", err)
	}
}
