package scenario

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"obm/internal/core"
	"obm/internal/engine"
	"obm/internal/mapping"
)

// TestCacheDiskIntegration drives a real mapper through two caches
// sharing a directory — a process restart in miniature. The second
// cache must serve from disk without recomputing, bit-identically.
func TestCacheDiskIntegration(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	p := testProblem(t, "C1")
	m := mapping.MonteCarlo{Samples: 500, Seed: 7}

	c1, err := ConfigureShared(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ResetShared()
	mp1, ev1, err := c1.MapEval(ctx, p, m)
	if err != nil {
		t.Fatal(err)
	}
	if st := c1.StoreStats(); st.Computed != 1 || st.DiskHits != 0 || st.DiskEntries != 1 {
		t.Fatalf("cold stats = %+v, want 1 computed, 1 disk entry", st)
	}

	// "Restart": a fresh cache warming the same directory, with a sink
	// watching which tier answers.
	c2, err := ConfigureShared(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var skipped []string
	sctx := engine.WithSink(ctx, engine.SinkFunc(func(pr engine.Progress) {
		if pr.Skipped {
			mu.Lock()
			skipped = append(skipped, pr.Stage)
			mu.Unlock()
		}
	}))
	mp2, ev2, err := c2.MapEval(sctx, p, m)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.StoreStats(); st.Computed != 0 || st.DiskHits != 1 {
		t.Fatalf("warm stats = %+v, want 0 computed / 1 disk hit", st)
	}
	if len(skipped) != 1 || !strings.HasPrefix(skipped[0], "disk:") {
		t.Errorf("disk hit should report a disk-prefixed skipped stage, got %v", skipped)
	}
	if len(mp1) != len(mp2) {
		t.Fatal("mapping lengths differ across the disk tier")
	}
	for i := range mp1 {
		if mp1[i] != mp2[i] {
			t.Fatalf("mapping[%d] = %d via disk, %d computed", i, mp2[i], mp1[i])
		}
	}
	for i := range ev1.APLs {
		if math.Float64bits(ev1.APLs[i]) != math.Float64bits(ev2.APLs[i]) {
			t.Fatalf("APLs[%d] not bit-identical across the disk tier", i)
		}
	}
	for _, pair := range [][2]float64{
		{ev1.MaxAPL, ev2.MaxAPL}, {ev1.DevAPL, ev2.DevAPL},
		{ev1.GlobalAPL, ev2.GlobalAPL}, {ev1.MinMaxRatio, ev2.MinMaxRatio},
	} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			t.Fatalf("evaluation scalar not bit-identical: %v vs %v", pair[0], pair[1])
		}
	}
	// A third request on the same cache is served by the promoted
	// memory copy.
	if _, _, err := c2.MapEval(ctx, p, m); err != nil {
		t.Fatal(err)
	}
	if st := c2.StoreStats(); st.MemHits != 1 {
		t.Errorf("promotion missing: %+v", st)
	}
}

func TestConfigureSharedInstallsAndRejects(t *testing.T) {
	dir := t.TempDir()
	defer ResetShared()
	c, err := ConfigureShared(filepath.Join(dir, "cache"), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if Shared() != c {
		t.Error("ConfigureShared did not install the cache as shared")
	}
	// A directory path blocked by a regular file must fail loudly, not
	// degrade to memory-only.
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ConfigureShared(filepath.Join(blocker, "cache"), 0); err == nil {
		t.Error("unusable cache dir accepted")
	}
	if _, err := ConfigureShared("", 0); err == nil {
		t.Error("empty cache dir accepted")
	}
}

// TestObjectiveFingerprintCoversMappers pins the objective component
// of the work-unit key for each mapper family: optimizing mappers
// report their configured objective, Global is objective-fixed, and
// unknown mapper types fall back to the default objective.
func TestObjectiveFingerprintCoversMappers(t *testing.T) {
	if got := mapping.ObjectiveFingerprint(mapping.Global{}); got != (core.GAPL{}).Fingerprint() {
		t.Errorf("Global objective fingerprint = %q", got)
	}
	def := mapping.ObjectiveFingerprint(mapping.SortSelectSwap{})
	alt := mapping.ObjectiveFingerprint(mapping.SortSelectSwap{Objective: core.DevAPL{}})
	if def == alt {
		t.Error("objective change invisible to the work-unit key")
	}
	if got := mapping.ObjectiveFingerprint(mapping.MonteCarlo{Samples: 10}); got != def {
		t.Errorf("default objective differs across mapper families: %q vs %q", got, def)
	}
}
