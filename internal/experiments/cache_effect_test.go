package experiments

import (
	"context"
	"sync/atomic"
	"testing"

	"obm/internal/engine"
	"obm/internal/scenario"
	"obm/internal/workload"
)

// TestSharedCacheDeduplicatesMapperWork is the refactor's effectiveness
// proof: running the mapper-heavy paper experiments back to back must
// invoke each (problem, mapper) pair once — strictly fewer mapper runs
// than requests — with every repeat surfacing as a skipped progress
// event. A warm re-run of one experiment must then be all hits.
func TestSharedCacheDeduplicatesMapperWork(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real mappers; skip under -short")
	}
	scenario.ResetShared()
	t.Cleanup(func() { scenario.ResetShared() })

	var skipped atomic.Int64
	ctx := engine.WithSink(context.Background(), engine.SinkFunc(func(p engine.Progress) {
		if p.Skipped {
			skipped.Add(1)
		}
	}))

	// table4, fig9 and fig10 all evaluate the same four standard mappers
	// on the same eight configurations; table1 adds Global on four of
	// them. Before the scenario cache that was 4*8*3 + 4 = 100 mapper
	// runs; now the 32 distinct artifacts are computed once and reused.
	for _, id := range []string{"table1", "table4", "fig9", "fig10"} {
		r, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(ctx, quickOpts()); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}

	st := scenario.Shared().StoreStats()
	hits, misses := st.MemHits+st.DiskHits, st.Computed
	total := hits + misses
	if total == 0 {
		t.Fatal("experiments made no cache requests; mapEval not wired?")
	}
	if misses >= total {
		t.Fatalf("no deduplication: %d mapper runs for %d requests", misses, total)
	}
	if misses != 32 {
		t.Errorf("distinct (problem, mapper) artifacts = %d, want 32", misses)
	}
	if hits != total-32 {
		t.Errorf("hits = %d, want %d", hits, total-32)
	}
	if got := skipped.Load(); got != int64(hits) {
		t.Errorf("skipped progress events = %d, want one per cache hit (%d)", got, hits)
	}

	// Warm re-run: everything is served from the cache, nothing recomputed.
	r, err := Get("table4")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(ctx, quickOpts()); err != nil {
		t.Fatal(err)
	}
	if misses2 := scenario.Shared().StoreStats().Computed; misses2 != misses {
		t.Errorf("warm re-run recomputed %d artifacts; want 0", misses2-misses)
	}
}

// TestFailedInputsNotMemoized: a request that fails on its inputs
// leaves the shared input memo as it found it, so a long-lived daemon
// does not grow per bad request, and a later request builds afresh.
func TestFailedInputsNotMemoized(t *testing.T) {
	c := scenario.ResetShared()
	t.Cleanup(func() { scenario.ResetShared() })
	for i := 0; i < 2; i++ {
		if _, err := problemFor("C9"); err == nil {
			t.Fatal("unknown configuration built a problem")
		}
		if _, err := generatedProblem(workload.GenSpec{Name: "empty"}); err == nil {
			t.Fatal("invalid generator spec built a problem")
		}
		for _, id := range []string{"table1", "gap", "seeds"} {
			r, err := Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Run(context.Background(), Options{Quick: true, Seed: 1, Configs: []string{"C9"}}); err == nil {
				t.Fatalf("%s ran on an unknown configuration", id)
			}
		}
	}
	if n := c.Inputs(); n != 0 {
		t.Fatalf("failed requests left %d memo entries", n)
	}
	p, err := problemFor("C1")
	if err != nil {
		t.Fatal(err)
	}
	if q, _ := problemFor("C1"); q != p || c.Inputs() != 1 {
		t.Errorf("a good request is not memoized once: same problem %v, %d entries", q == p, c.Inputs())
	}
}
