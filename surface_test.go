package hypo_test

import (
	"reflect"
	"strings"
	"testing"

	hypo "hypodatalog"
	"hypodatalog/internal/server"
	"hypodatalog/internal/tenant"
)

// TestPublicSurface pins the exported methods of Engine and Pool and the
// exported fields of the option and config structs. A new read wrapper or
// knob must be added to this list, so it shows up in review; one that goes
// must be taken off it.
func TestPublicSurface(t *testing.T) {
	want := map[string]string{
		// One read method per type (Read), Ask/Query/AskUnder for the
		// examples, and the four shims benchmark/ladder.go calls
		// (QueryEach, AskInfoCtx, AskUnderInfoCtx, QueryEachInfoCtx).
		"*hypo.Engine methods": "ApplyDelta Ask AskUnder DataVersion Explain MemBytes Program Query QueryEach Read Stats",
		"*hypo.Pool methods":   "AskInfoCtx AskUnderInfoCtx CacheMemBytes Close Do ExplainCtx MemBytes QueryEachInfoCtx Read SetProgram SetProgramDelta Size TrimMemory Version",

		"hypo.Request fields":    "Kind Query Add Info",
		"hypo.Options fields":    "Mode MaxGoals MaxMemoryBytes NoTabling ExtraDomain PoolSize CacheBytes Metrics",
		"hypo.LiveConfig fields": "WALPath SnapshotPath SnapshotEvery NoSync Logger FS StreamTailLen RecoveryProbeInterval",
		"server.Config fields":   "Registry Pool Live DefaultTimeout MaxTimeout MaxBodyBytes Logger Role ReplPrimary ReplicaStatus PrimaryURL MinVersionWait Metrics",
		"tenant.Config fields":   "Dir DefaultName Options LiveConfig MaxQueue MemoryQuota DiskQuota Logger",
	}
	got := map[string]string{}
	for _, v := range []any{(*hypo.Engine)(nil), (*hypo.Pool)(nil)} {
		tp := reflect.TypeOf(v)
		names := make([]string, tp.NumMethod()) // exported only, sorted
		for i := range names {
			names[i] = tp.Method(i).Name
		}
		got[tp.String()+" methods"] = strings.Join(names, " ")
	}
	for _, v := range []any{hypo.Request{}, hypo.Options{}, hypo.LiveConfig{}, server.Config{}, tenant.Config{}} {
		tp := reflect.TypeOf(v)
		var names []string
		for i := 0; i < tp.NumField(); i++ {
			if f := tp.Field(i); f.IsExported() {
				names = append(names, f.Name)
			}
		}
		got[tp.String()+" fields"] = strings.Join(names, " ")
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s changed:\n got  %s\n want %s\nedit this list if the change is meant", k, got[k], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("listed %d types, checked %d", len(want), len(got))
	}
}
