package scenario

import (
	"context"
	"strings"
	"sync"
	"testing"

	"obm/internal/artifact"
	"obm/internal/core"
	"obm/internal/engine"
	"obm/internal/mapping"
	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/workload"
)

// hitsMisses reads c's store accounting as (requests served without
// computing, compute callbacks started).
func hitsMisses(c *Cache) (hits, misses uint64) {
	st := c.StoreStats()
	return st.MemHits + st.DiskHits, st.Computed
}

func testProblem(t *testing.T, cfg string) *core.Problem {
	t.Helper()
	w, err := workload.Config(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProblem(model.MustNew(mesh.MustNew(8, 8), model.DefaultParams()), w)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCacheHitReturnsIdenticalArtifact(t *testing.T) {
	c := NewCache()
	ctx := context.Background()
	p := testProblem(t, "C1")
	m := mapping.SortSelectSwap{}

	mp1, ev1, err := c.MapEval(ctx, p, m)
	if err != nil {
		t.Fatal(err)
	}
	// A second, independently built problem with the same content must
	// hit and return the identical artifact.
	mp2, ev2, err := c.MapEval(ctx, testProblem(t, "C1"), m)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := hitsMisses(c); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits, %d misses; want 1, 1", hits, misses)
	}
	if len(mp1) != len(mp2) {
		t.Fatal("mapping lengths differ")
	}
	for i := range mp1 {
		if mp1[i] != mp2[i] {
			t.Fatalf("cached mapping differs at %d: %v vs %v", i, mp1[i], mp2[i])
		}
	}
	if ev1.MaxAPL != ev2.MaxAPL || ev1.DevAPL != ev2.DevAPL || ev1.GlobalAPL != ev2.GlobalAPL {
		t.Errorf("cached evaluation differs: %+v vs %+v", ev1, ev2)
	}
}

func TestCacheMissPerDistinctKey(t *testing.T) {
	c := NewCache()
	ctx := context.Background()
	p1, p2 := testProblem(t, "C1"), testProblem(t, "C2")
	if _, _, err := c.MapEval(ctx, p1, mapping.Global{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.MapEval(ctx, p2, mapping.Global{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.MapEval(ctx, p1, mapping.Greedy{}); err != nil {
		t.Fatal(err)
	}
	if hits, misses := hitsMisses(c); hits != 0 || misses != 3 {
		t.Errorf("stats = %d hits, %d misses; want 0, 3", hits, misses)
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d, want 3", c.Len())
	}
}

func TestCacheReturnsIndependentCopies(t *testing.T) {
	c := NewCache()
	ctx := context.Background()
	p := testProblem(t, "C1")
	mp, ev, err := c.MapEval(ctx, p, mapping.Global{})
	if err != nil {
		t.Fatal(err)
	}
	mp[0], mp[1] = mp[1], mp[0]
	ev.APLs[0] = -1
	mp2, ev2, err := c.MapEval(ctx, p, mapping.Global{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mp2.Validate(p.N()); err != nil {
		t.Errorf("cached mapping corrupted by caller mutation: %v", err)
	}
	if ev2.APLs[0] == -1 {
		t.Error("cached evaluation corrupted by caller mutation")
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := NewCache()
	ctx := context.Background()
	p := testProblem(t, "C3")
	m := mapping.MonteCarlo{Samples: 2_000, Seed: 7}
	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.MapEval(ctx, p, m)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if hits, misses := hitsMisses(c); misses != 1 || hits != callers-1 {
		t.Errorf("stats = %d hits, %d misses; want %d, 1", hits, misses, callers-1)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache()
	ctx := context.Background()
	p := testProblem(t, "C1")
	// Iters <= 0 is a validation error inside the mapper.
	if _, _, err := c.MapEval(ctx, p, mapping.Annealing{Iters: -1}); err == nil {
		t.Fatal("invalid mapper accepted")
	}
	if c.Len() != 0 {
		t.Errorf("failed computation left %d entries", c.Len())
	}
	// A cancelled computation must not poison the key either.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.MapEval(cancelled, p, mapping.Global{}); err == nil {
		t.Fatal("cancelled computation succeeded")
	}
	if _, _, err := c.MapEval(ctx, p, mapping.Global{}); err != nil {
		t.Errorf("retry after cancellation failed: %v", err)
	}
}

func TestCacheHitReportsSkippedStage(t *testing.T) {
	c := NewCache()
	var mu sync.Mutex
	var skipped []string
	sink := engine.SinkFunc(func(pr engine.Progress) {
		if pr.Skipped {
			mu.Lock()
			skipped = append(skipped, pr.Stage)
			mu.Unlock()
		}
	})
	ctx := engine.WithSink(context.Background(), sink)
	p := testProblem(t, "C1")
	if _, _, err := c.MapEval(ctx, p, mapping.Global{}); err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Errorf("cold path reported skipped stages: %v", skipped)
	}
	if _, _, err := c.MapEval(ctx, p, mapping.Global{}); err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 1 || !strings.Contains(skipped[0], "Global") {
		t.Errorf("hit should report one skipped stage naming the mapper, got %v", skipped)
	}
}

func TestProblemFingerprintContentKeyed(t *testing.T) {
	p1, p2 := testProblem(t, "C1"), testProblem(t, "C1")
	if p1.Fingerprint() != p2.Fingerprint() {
		t.Error("identical problems should share a fingerprint")
	}
	if p1.Fingerprint() == testProblem(t, "C2").Fingerprint() {
		t.Error("different workloads should not share a fingerprint")
	}
}

func TestSharedReset(t *testing.T) {
	before := Shared()
	if before == nil {
		t.Fatal("no shared cache")
	}
	fresh := ResetShared()
	if fresh == Shared() != true || fresh == before {
		t.Error("ResetShared should install a distinct fresh cache")
	}
	if h, m := hitsMisses(fresh); h != 0 || m != 0 {
		t.Error("fresh cache should start empty")
	}
}

func TestDefaultBudget(t *testing.T) {
	q, f := DefaultBudget(true), DefaultBudget(false)
	if !(q.RandomDraws < f.RandomDraws && q.MCSamples < f.MCSamples && q.SAIters < f.SAIters && q.SimReplicas < f.SimReplicas) {
		t.Errorf("quick budgets should be smaller: %+v vs %+v", q, f)
	}
	if f.MCSamples != 10_000 {
		t.Errorf("full MC budget %d, paper uses 10^4", f.MCSamples)
	}
}

func TestStandardMappers(t *testing.T) {
	sp := Spec{Configs: []string{"C1"}, Budget: DefaultBudget(true), Seed: 1}
	ms := sp.StandardMappers()
	if len(ms) != 4 {
		t.Fatalf("want 4 standard mappers, got %d", len(ms))
	}
	names := []string{ms[0].Name(), ms[1].Name(), ms[2].Name(), ms[3].Name()}
	want := []string{"Global", "MC(1000)", "SA(5000)", "SSS"}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("mapper %d = %s, want %s", i, names[i], want[i])
		}
	}
	// Fingerprints must track the seed (it offsets MC and SA streams).
	other := Spec{Budget: DefaultBudget(true), Seed: 2}.StandardMappers()
	if ms[1].Fingerprint() == other[1].Fingerprint() || ms[2].Fingerprint() == other[2].Fingerprint() {
		t.Error("seeded mapper fingerprints should differ across spec seeds")
	}
	if ms[0].Fingerprint() != other[0].Fingerprint() {
		t.Error("Global fingerprint should not depend on the seed")
	}
}

func TestCacheDistinguishesObjectives(t *testing.T) {
	c := NewCache()
	ctx := context.Background()
	p := testProblem(t, "C1")
	def := mapping.MonteCarlo{Samples: 500, Seed: 7}
	alt := mapping.MonteCarlo{Samples: 500, Seed: 7, Objective: core.GAPL{}}
	if def.Fingerprint() == alt.Fingerprint() {
		t.Fatalf("objective missing from fingerprint: %s", def.Fingerprint())
	}
	if _, _, err := c.MapEval(ctx, p, def); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.MapEval(ctx, p, alt); err != nil {
		t.Fatal(err)
	}
	// Same mapper shape, different objective: two distinct artifacts.
	if hits, misses := hitsMisses(c); hits != 0 || misses != 2 {
		t.Errorf("stats = %d hits, %d misses; want 0, 2", hits, misses)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	// And re-requesting either is a hit, not a recompute.
	if _, _, err := c.MapEval(ctx, p, alt); err != nil {
		t.Fatal(err)
	}
	if hits, _ := hitsMisses(c); hits != 1 {
		t.Errorf("hits = %d after re-request, want 1", hits)
	}
}

func TestStandardMappersObjective(t *testing.T) {
	def := Spec{Budget: DefaultBudget(true), Seed: 1}
	alt := def
	alt.Objective = core.DevAPL{}
	ms, alts := def.StandardMappers(), alt.StandardMappers()
	if got := alts[3].Name(); got != "SSS{dev-APL}" {
		t.Errorf("SSS under dev objective named %q", got)
	}
	// Global is objective-fixed; the optimizing mappers must carry the
	// objective in their fingerprints (distinct cache keys).
	if ms[0].Fingerprint() != alts[0].Fingerprint() {
		t.Error("Global fingerprint should not depend on the objective")
	}
	for i := 1; i < 4; i++ {
		if ms[i].Fingerprint() == alts[i].Fingerprint() {
			t.Errorf("mapper %d fingerprint conflates objectives: %s", i, ms[i].Fingerprint())
		}
	}
}

// paretoQuick is a small NSGA-II shape for cache tests.
func paretoQuick(seed uint64) mapping.NSGAII {
	return mapping.NSGAII{Population: 16, Generations: 8, ArchiveSize: 8, Seed: seed}
}

func TestCacheMapEvalSetHitReturnsIdenticalFront(t *testing.T) {
	c := NewCache()
	ctx := context.Background()
	sm := paretoQuick(5)
	set1, err := c.MapEvalSet(ctx, testProblem(t, "C1"), sm)
	if err != nil {
		t.Fatal(err)
	}
	if set1.Len() < 1 {
		t.Fatal("empty front")
	}
	set2, err := c.MapEvalSet(ctx, testProblem(t, "C1"), sm)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := hitsMisses(c); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits, %d misses; want 1, 1", hits, misses)
	}
	if set1.Fingerprint() != set2.Fingerprint() {
		t.Errorf("cached front differs: %s vs %s", set1.Fingerprint(), set2.Fingerprint())
	}
	// The returned set is an independent copy: mutating it must not
	// corrupt the cached artifact.
	set2.Members[0].Mapping[0], set2.Members[0].Mapping[1] = set2.Members[0].Mapping[1], set2.Members[0].Mapping[0]
	set3, err := c.MapEvalSet(ctx, testProblem(t, "C1"), sm)
	if err != nil {
		t.Fatal(err)
	}
	if set3.Fingerprint() != set1.Fingerprint() {
		t.Error("cached front corrupted by caller mutation")
	}
}

func TestCacheMapEvalSetDistinctKeys(t *testing.T) {
	c := NewCache()
	ctx := context.Background()
	p := testProblem(t, "C1")
	if _, err := c.MapEvalSet(ctx, p, paretoQuick(5)); err != nil {
		t.Fatal(err)
	}
	// A different seed is a different work unit; so is a scalar mapper
	// on the same problem.
	if _, err := c.MapEvalSet(ctx, p, paretoQuick(6)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.MapEval(ctx, p, mapping.SortSelectSwap{}); err != nil {
		t.Fatal(err)
	}
	if hits, misses := hitsMisses(c); hits != 0 || misses != 3 {
		t.Errorf("stats = %d hits, %d misses; want 0, 3", hits, misses)
	}
}

func TestCacheMapEvalSetDiskWarm(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	sm := paretoQuick(5)
	disk, err := artifact.OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cold := NewCacheWith(disk)
	set1, err := cold.MapEvalSet(ctx, testProblem(t, "C1"), sm)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh cache over the same directory (a "second process") must
	// serve the identical front from disk without recomputing.
	disk2, err := artifact.OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewCacheWith(disk2)
	set2, err := warm.MapEvalSet(ctx, testProblem(t, "C1"), sm)
	if err != nil {
		t.Fatal(err)
	}
	st := warm.StoreStats()
	if st.Computed != 0 || st.DiskHits != 1 {
		t.Errorf("warm stats = %+v; want 0 computed, 1 disk hit", st)
	}
	if set1.Fingerprint() != set2.Fingerprint() {
		t.Errorf("disk round-trip changed the front: %s vs %s", set1.Fingerprint(), set2.Fingerprint())
	}
}

func TestSpecParetoMapper(t *testing.T) {
	sp := Spec{Budget: DefaultBudget(true), Seed: 1}
	sm := sp.ParetoMapper()
	if got := sm.Vector().Name(); got != "vec(max-APL,dev-APL,energy)" {
		t.Errorf("ParetoMapper vector = %q", got)
	}
	g, ok := sm.(mapping.NSGAII)
	if !ok {
		t.Fatalf("ParetoMapper is %T, want NSGAII", sm)
	}
	if g.Population != sp.Budget.ParetoPop || g.Generations != sp.Budget.ParetoGens {
		t.Errorf("budgets not threaded: %+v vs %+v", g, sp.Budget)
	}
	// Seed changes the cache key.
	alt := sp
	alt.Seed = 2
	if alt.ParetoMapper().Fingerprint() == sm.Fingerprint() {
		t.Error("seed missing from the Pareto mapper cache key")
	}
}
